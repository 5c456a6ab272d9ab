"""Ablation study: the full model against single-component removals.

Every variant trains the same architecture from scratch on the same
per-seed synthetic corpus; what changes is exactly one ingredient:

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
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

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

#: name -> (value-params override, lambda_va override, lambda3 override,
#: value_filter); None keeps the baseline setting.
_VARIANTS: Tuple[Tuple[str, Optional[Dict[str, float]], Optional[float], Optional[float], bool], ...] = (
    (FULL, None, None, None, True),
    ("no_time", {"lambda1": 1.0}, None, None, True),
    ("no_scope", {"lambda2": 0.0}, None, None, True),
    ("no_action", {"lambda2": 1.0}, None, None, True),
    ("no_va", None, 0.0, None, True),
    (NO_CAI, None, None, 0.0, True),
    (SEMANTIC_ONLY, None, 0.0, None, False),
)


def variant_names() -> Tuple[str, ...]:
    return tuple(name for name, *_ in _VARIANTS)


@dataclass(frozen=True)
class AblationConfig:
    """Everything one ablation run depends on.

    The generator spec is re-seeded per run seed, so every variant within
    a seed sees the identical corpus while seeds differ end to end."""

    gen: GenSpec = GenSpec(n_users=30, n_items=20, seed=0)
    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    d: int = 32
    lambda3_skip: float = 1.0
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


def _run_variant(corpus, linkage, buckets, name: str,
                 value_overrides: Optional[Mapping[str, float]],
                 lambda_va: Optional[float], lambda3: Optional[float],
                 value_filter: bool, cfg: AblationConfig, seed: int) -> float:
    params = cfg.value_params
    if value_overrides:
        params = replace(params, **value_overrides)
    assessments = assess_corpus(corpus, linkage, buckets, params)
    kept_map = TR.kept_consultations(assessments) if value_filter else None

    mcfg = M.ModelConfig(d=cfg.d, seed=seed,
                         lambda3_skip=cfg.lambda3_skip if lambda3 is None else lambda3)
    model = M.init_model(corpus, mcfg)
    tcfg = replace(
        cfg.train, seed=seed,
        lambda_va=cfg.train.lambda_va if lambda_va is None else lambda_va,
    )
    result = TR.train(corpus, linkage, assessments, model, tcfg,
                      l_seq=params.l_seq, value_filter=value_filter)

    split = TR.split_sessions(corpus)
    fn = TR.model_score_fn(result.model, corpus, kept_map,
                           l_seq=params.l_seq, value_filter=value_filter)
    report = evaluate_sessions(fn, corpus, split.test,
                               n_neg=min(N_NEG, len(corpus.items) - 1), seed=0)
    return report.macro[cfg.metric]


def run_ablation(cfg: AblationConfig = AblationConfig(),
                 progress=None) -> AblationResult:
    """Train every variant on every seed and aggregate the metric.

    ``progress`` (optional) is called with one line per finished run."""
    t0 = time.time()
    per_seed: Dict[str, List[float]] = {name: [] for name in variant_names()}
    for seed in cfg.seeds:
        corpus, _ = generate(replace(cfg.gen, seed=seed))
        linkage = build_linkage(corpus)
        buckets = fit_buckets(linkage, cfg.value_params.n_buckets)
        for name, overrides, lam_va, lam3, filt in _VARIANTS:
            score = _run_variant(corpus, linkage, buckets, name, overrides,
                                 lam_va, lam3, filt, cfg, seed)
            per_seed[name].append(score)
            if progress is not None:
                progress(f"seed {seed} {name}: {cfg.metric}={score:.4f}")
    means = {name: float(np.mean(vals)) for name, vals in per_seed.items()}
    soft = tuple(
        name for name in variant_names()
        if name != FULL and means[name] > means[FULL]
    )
    return AblationResult(per_seed, means, soft, time.time() - t0)

