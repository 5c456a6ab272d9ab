"""Ablation study: the full model against single-component removals.

Every variant trains the same architecture from scratch on the same
per-seed synthetic corpus, through the same library calls as the CLI's
``assess``, ``train`` and ``eval`` stages.  A variant is one row of
`VARIANTS`, the settings it changes from the full model's:

* ``no_time`` / ``no_scope`` / ``no_action`` drop one value signal by
  pinning the aggregation weights, which changes which consultations the
  filter keeps.
* ``no_va`` turns the alignment loss off.
* ``no_cai`` zeros the attention skip weight, so consultations enter the
  encoder as bare text without attended action context.
* ``semantic_only`` drops both value components: no filter (the most
  recent consultations stand in) and no alignment loss.

Scores are mean test NDCG@10 over the seeds.  The two contrasts the
synthetic generator plants signal for (full vs semantic_only, full vs
no_cai) are hard expectations; any other variant overtaking the full
model is recorded as a soft inversion rather than an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Tuple

import numpy as np

from . import model as M
from . import train as TR
from .datagen import GenSpec, generate
from .evaluate import N_NEG, evaluate_sessions
from .linkage import build_linkage
from .value import ValueParams, assess_corpus, fit_buckets

FULL = "full"
SEMANTIC_ONLY = "semantic_only"
NO_CAI = "no_cai"

#: name -> the settings the variant changes from the full model's.  Each key
#: names a field of ValueParams, ModelConfig or TrainConfig, or is the
#: ``value_filter`` argument of `train.train` and `train.model_score_fn`.
VARIANTS: Dict[str, Dict[str, object]] = {
    FULL: {},
    "no_time": {"lambda1": 1.0},
    "no_scope": {"lambda2": 0.0},
    "no_action": {"lambda2": 1.0},
    "no_va": {"lambda_va": 0.0},
    NO_CAI: {"lambda3_skip": 0.0},
    SEMANTIC_ONLY: {"value_filter": False, "lambda_va": 0.0},
}


@dataclass(frozen=True)
class AblationConfig:
    """Everything one ablation run depends on.

    The generator spec is re-seeded per run seed, so every variant within
    a seed sees the identical corpus while seeds differ end to end."""

    gen: GenSpec = GenSpec(n_users=30, n_items=20, seed=0)
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    d: int = 32
    value_params: ValueParams = ValueParams(l_seq=1)
    train: TR.TrainConfig = TR.TrainConfig(
        max_epochs=40, patience=40, batch_size=24, va_batch=32,
        lambda_va=0.3, tau1=1.0, lr=3e-3,
    )
    metric: str = "ndcg@10"


@dataclass(frozen=True)
class AblationResult:
    per_seed: Dict[str, List[float]]
    means: Dict[str, float]
    soft_inversions: Tuple[str, ...]
    elapsed_seconds: float


def _override(settings, overrides: Mapping[str, object]):
    """`settings` with the overrides that name one of its fields."""
    names = {f.name for f in fields(settings)}
    return replace(settings, **{k: v for k, v in overrides.items() if k in names})


def _run_variant(corpus, linkage, buckets, overrides: Mapping[str, object],
                 cfg: AblationConfig, seed: int) -> float:
    """Test-split metric of one variant at one seed."""
    params = _override(cfg.value_params, overrides)
    value_filter = overrides.get("value_filter", True)
    assessments = assess_corpus(corpus, linkage, buckets, params)
    model = M.init_model(corpus, _override(M.ModelConfig(d=cfg.d, seed=seed), overrides))
    result = TR.train(corpus, linkage, assessments, model,
                      _override(replace(cfg.train, seed=seed), overrides),
                      l_seq=params.l_seq, value_filter=value_filter)
    fn = TR.model_score_fn(result.model, corpus, TR.kept_consultations(assessments),
                           l_seq=params.l_seq, value_filter=value_filter)
    report = evaluate_sessions(fn, corpus, TR.split_sessions(corpus).test,
                               n_neg=min(N_NEG, len(corpus.items) - 1), seed=0)
    return report.macro[cfg.metric]


def run_ablation(cfg: AblationConfig = AblationConfig(),
                 progress=None) -> AblationResult:
    """Train every variant on every seed and aggregate the metric.

    ``progress`` (optional) is called with one line per finished run."""
    t0 = time.time()
    per_seed: Dict[str, List[float]] = {name: [] for name in VARIANTS}
    for seed in cfg.seeds:
        corpus, _ = generate(replace(cfg.gen, seed=seed))
        linkage = build_linkage(corpus)
        buckets = fit_buckets(linkage, cfg.value_params.n_buckets)
        for name, overrides in VARIANTS.items():
            score = _run_variant(corpus, linkage, buckets, overrides, cfg, seed)
            per_seed[name].append(score)
            if progress is not None:
                progress(f"seed {seed} {name}: {cfg.metric}={score:.4f}")
    means = {name: float(np.mean(vals)) for name, vals in per_seed.items()}
    soft = tuple(
        name for name in VARIANTS
        if name != FULL and means[name] > means[FULL]
    )
    return AblationResult(per_seed, means, soft, time.time() - t0)

