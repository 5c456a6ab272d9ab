"""Pipeline orchestration: one flat config file, eight subcommands.

Stage order and the artifact each one writes (paths are config keys,
resolved under ``--out`` unless absolute):

    datagen  <corpus>/items.jsonl + events.jsonl + oracle.jsonl
    ingest   <corpus>/items.jsonl + events.jsonl (validated, canonical)
    index    <index>            inverted-index dump
    link     <linkage>          consultation-action links
    assess   <values>           per-search value reports (+ histogram)
    train    <checkpoint>       model parameters (a JSON header and its
                                data file); <reports>/train_log.csv,
                                a row per epoch as it ends
    eval     <reports>/metrics.json (or metrics_<ranker>.json)
    report   <reports>/comparison.txt

Each stage validates its upstream artifacts and fails with an error
naming the stage to run first when one is missing.  Every stage also
writes ``manifests/<stage>.json`` (config hash, input/output hashes,
timing), and ``eval --ranker <ranker>`` writes ``manifests/eval_<ranker>.json``
for the bm25 and semantic rankers, named like their metrics files;
manifests carry timestamps and sit outside the byte-stable artifact
contract, which covers the JSONL/JSON artifacts themselves.

Config: a single flat JSON object.  Every setting is declared once, as a
field of the dataclass that owns it (``GenSpec``, ``LinkageParams``,
``ScopeParams``, ``ValueParams``, ``ModelConfig``, ``TrainConfig``), and
its default and type come from there; ``CONFIG_DEFAULTS`` is built from
those fields.  Unknown keys are rejected with every offending key listed;
flags override config keys; ``--seed``, ``--config``, and ``--out`` exist
on every subcommand.  ``STAGES`` declares each subcommand once: what it
runs, the config keys it takes as flags, and the artifacts it reads.

Exit codes: 0 success, 2 config error, 3 missing upstream artifact,
4 data validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .corpus import load_corpus, dump_corpus
from .datagen import GenSpec, write_dataset
from .evaluate import (
    N_NEG,
    MetricReport,
    bm25_score_fn,
    dump_metrics,
    evaluate_sessions,
    format_metric_table,
    load_metrics,
)
from .index import ScopeParams, build_index, dump_index, load_index
from .linkage import LinkageParams, build_linkage, dump_linkage, load_linkage
from .model import ModelConfig, init_model, load_model, save_model
from .train import (EpochRow, TrainConfig, kept_consultations, model_score_fn,
                    split_sessions, train)
from .value import (
    ValueParams,
    assess_corpus,
    dump_values,
    fit_buckets,
    load_assessments,
    score_histogram,
)

#: The dataclasses that own the settings.  Each of their scalar fields with
#: a default is one config key of the same name; ``seed`` is a single key
#: shared by every owner.
_OWNERS = (GenSpec, LinkageParams, ScopeParams, ValueParams, ModelConfig, TrainConfig)

#: The generator's fields take a ``gen_`` prefix: they size the synthetic
#: corpus, not the model.
_GEN_KEYS = {"n_users": "gen_users", "n_items": "gen_items",
             "horizon_hours": "gen_horizon_hours"}


def _settings(cls) -> Dict[str, dataclasses.Field]:
    """Config key -> field, for every setting `cls` owns."""
    rename = _GEN_KEYS if cls is GenSpec else {}
    return {
        rename.get(f.name, f.name): f
        for f in dataclasses.fields(cls)
        if isinstance(f.default, (bool, int, float, str))
    }


def _config_defaults() -> Dict[str, object]:
    defaults: Dict[str, object] = {
        # artifact paths, resolved against --out
        "corpus": "corpus",
        "index": "index.jsonl",
        "linkage": "linkage.jsonl",
        "values": "values.jsonl",
        "checkpoint": "checkpoint.json",
        "reports": "reports",
        # train on the value-filtered consultations (false: the most recent)
        "value_filter": True,
        # sampled negatives per evaluated session
        "n_neg_eval": N_NEG,
    }
    for cls in _OWNERS:
        for key, f in _settings(cls).items():
            if defaults.setdefault(key, f.default) != f.default:
                raise TypeError(f"{cls.__name__}.{f.name} redefines config key {key}")
    return defaults


#: Every legal config key with its default.
CONFIG_DEFAULTS: Dict[str, object] = _config_defaults()

RANKERS = ("vaps", "bm25", "semantic")


class CliError(Exception):
    """Base for expected failures; `exit_code` maps to the CLI contract."""

    exit_code = 2


class ConfigError(CliError):
    exit_code = 2


class MissingArtifact(CliError):
    exit_code = 3


class DataError(CliError):
    exit_code = 4


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _finite(number) -> bool:
    """Whether `number` converts to a finite float."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def validate_config(supplied: Dict[str, object]) -> Dict[str, object]:
    """Merge supplied keys over the defaults; reject every bad key at once."""
    unknown = sorted(set(supplied) - set(CONFIG_DEFAULTS))
    bad_types: List[str] = []
    non_finite: List[str] = []
    for key, value in supplied.items():
        if key in unknown:
            continue
        default = CONFIG_DEFAULTS[key]
        if isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif isinstance(default, float):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = isinstance(value, str)
        if not ok:
            bad_types.append(f"{key}={value!r}")
        elif isinstance(default, float) and not _finite(value):
            non_finite.append(f"{key}={value!r}")
    problems = []
    if unknown:
        problems.append("unknown config keys: " + ", ".join(unknown))
    if bad_types:
        problems.append("wrong-typed config values: " + ", ".join(sorted(bad_types)))
    if non_finite:
        problems.append("non-finite config values: " + ", ".join(sorted(non_finite)))
    if problems:
        raise ConfigError("; ".join(problems))
    merged = dict(CONFIG_DEFAULTS)
    merged.update(supplied)
    # an integral value given for a float key is stored as that float
    return {key: float(value) if isinstance(CONFIG_DEFAULTS[key], float) else value
            for key, value in merged.items()}


def load_config(path: Optional[str], overrides: Dict[str, object]) -> Dict[str, object]:
    supplied: Dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config file not readable: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold one JSON object")
        supplied.update(raw)
    supplied.update(overrides)
    return validate_config(supplied)


def _resolve(cfg: Dict[str, object], out_dir: str, key: str) -> str:
    path = str(cfg[key])
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


Outputs = Dict[str, Optional[str]]  # path -> SHA-256 of what the stage wrote there, or None


def write_manifest(out_dir: str, stage: str, cfg: Dict[str, object],
                   input_hashes: Dict[str, str], outputs: Outputs,
                   started: float, name: str) -> str:
    """Write the manifest of a run of `stage` to ``manifests/<name>.json``;
    an output whose digest the stage did not give is hashed here."""
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    payload = {
        "stage": stage,
        "version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "inputs": {
            os.path.relpath(p, out_dir): h for p, h in sorted(input_hashes.items())
        },
        "outputs": {os.path.relpath(p, out_dir): digest or _sha256(p)
                    for p, digest in sorted(outputs.items())},
        "started_unix": round(started, 3),
        "elapsed_seconds": round(time.time() - started, 3),
    }
    path = os.path.join(out_dir, "manifests", f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _corpus_paths(cfg: Dict[str, object], out_dir: str) -> Tuple[str, str]:
    corpus_dir = _resolve(cfg, out_dir, "corpus")
    return (os.path.join(corpus_dir, "items.jsonl"),
            os.path.join(corpus_dir, "events.jsonl"))


def _raw_corpus_paths(cfg: Dict[str, object], out_dir: str, args) -> Tuple[str, str]:
    """The items and events files `ingest` reads: --items/--events, or the
    corpus directory's own."""
    items_path, events_path = _corpus_paths(cfg, out_dir)
    return args.items or items_path, args.events or events_path


def _read(what: str, load: Callable, *args):
    """`load(*args)`, with an artifact it refuses (a ValueError, which
    CorpusError is) reported as a data error naming `what`."""
    try:
        return load(*args)
    except ValueError as exc:
        raise DataError(f"{what} failed validation: {exc}") from exc


def _build(cls, cfg: Dict[str, object]):
    """`cls` built from the settings it owns, read from the config.  A
    value the class rejects is a config error."""
    kwargs = {f.name: cfg[key] for key, f in _settings(cls).items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {cls.__name__} setting: {exc}") from exc


def cmd_datagen(cfg, out_dir, args) -> Outputs:
    spec = _build(GenSpec, cfg)
    corpus_dir = _resolve(cfg, out_dir, "corpus")
    write_dataset(spec, corpus_dir)
    print(f"wrote synthetic dataset under {corpus_dir}")
    return dict.fromkeys(os.path.join(corpus_dir, name)
                         for name in ("items.jsonl", "events.jsonl", "oracle.jsonl"))


def cmd_ingest(cfg, out_dir, args) -> Outputs:
    corpus = _read("corpus", load_corpus, *_raw_corpus_paths(cfg, out_dir, args))
    os.makedirs(_resolve(cfg, out_dir, "corpus"), exist_ok=True)
    items_out, events_out = _corpus_paths(cfg, out_dir)
    dump_corpus(corpus, items_out, events_out)
    n_events = sum(
        len(h.interactions) + len(h.consultations) for h in corpus.users.values()
    )
    print(f"ingested {len(corpus.users)} users, {len(corpus.items)} items, "
          f"{n_events} events")
    return dict.fromkeys([items_out, events_out])


def cmd_index(cfg, out_dir, args) -> Outputs:
    corpus = _read("corpus", load_corpus, *_corpus_paths(cfg, out_dir))
    index = build_index(corpus)
    path = _resolve(cfg, out_dir, "index")
    dump_index(index, path)
    print(f"indexed {len(index.postings)} terms over {len(corpus.items)} items")
    return {path: None}


def cmd_link(cfg, out_dir, args) -> Outputs:
    corpus = _read("corpus", load_corpus, *_corpus_paths(cfg, out_dir))
    table = build_linkage(corpus, _build(LinkageParams, cfg))
    path = _resolve(cfg, out_dir, "linkage")
    dump_linkage(table, path)
    n_links = sum(len(v) for user in table.links.values() for v in user.values())
    print(f"linked {n_links} consultation-action pairs")
    return {path: None}


def cmd_assess(cfg, out_dir, args) -> Outputs:
    corpus = _read("corpus", load_corpus, *_corpus_paths(cfg, out_dir))
    index = _read("index", load_index, _resolve(cfg, out_dir, "index"))
    linkage = _read("linkage", load_linkage, _resolve(cfg, out_dir, "linkage"), corpus)
    params = _build(ValueParams, cfg)
    scope = _build(ScopeParams, cfg)
    buckets = fit_buckets(linkage, n_buckets=params.n_buckets)
    assessments = assess_corpus(corpus, linkage, buckets, params, scope, index)
    path = _resolve(cfg, out_dir, "values")
    dump_values(assessments, path)
    print(score_histogram(assessments))
    return {path: None}


def cmd_train(cfg, out_dir, args) -> Outputs:
    corpus = _read("corpus", load_corpus, *_corpus_paths(cfg, out_dir))
    params = _build(ValueParams, cfg)
    linkage = _read("linkage", load_linkage, _resolve(cfg, out_dir, "linkage"), corpus)
    assessments = _read("values", load_assessments, _resolve(cfg, out_dir, "values"),
                        corpus, params)
    mcfg = _build(ModelConfig, cfg)
    tcfg = _build(TrainConfig, cfg)
    if not split_sessions(corpus).train:
        raise DataError("corpus has no training sessions: no user has more than two searches")
    model = init_model(corpus, mcfg)
    reports_dir = _resolve(cfg, out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    log_path = os.path.join(reports_dir, "train_log.csv")

    def progress(row: EpochRow) -> None:
        print(f"epoch {row.epoch}/{tcfg.max_epochs}: l_search {row.l_search:.4f} "
              f"l_va {row.l_va:.4f} valid ndcg@10 {row.valid_ndcg10:.4f} "
              f"({row.elapsed_seconds:.1f} s)", flush=True)

    result = train(corpus, linkage, assessments, model, tcfg,
                   l_seq=params.l_seq, value_filter=cfg["value_filter"],
                   log_path=log_path, on_epoch=progress)
    checkpoint_path = _resolve(cfg, out_dir, "checkpoint")
    written = save_model(result.model, checkpoint_path)
    print(f"best epoch {result.best_epoch}: "
          f"valid ndcg@10 {result.best_valid_ndcg10:.4f}")
    return {**written, log_path: None}


def _ranker_name(stem: str, ranker: str) -> str:
    """`stem` for the vaps ranker, `stem`_`ranker` for the others: the
    names of a ranker's metrics file and eval manifest."""
    return stem if ranker == "vaps" else f"{stem}_{ranker}"


def _metrics_path(cfg, out_dir, ranker: str) -> str:
    reports_dir = _resolve(cfg, out_dir, "reports")
    return os.path.join(reports_dir, _ranker_name("metrics", ranker) + ".json")


def cmd_eval(cfg, out_dir, args) -> Outputs:
    if cfg["n_neg_eval"] < 1:
        raise ConfigError(f"n_neg_eval must be >= 1, got {cfg['n_neg_eval']}")
    corpus = _read("corpus", load_corpus, *_corpus_paths(cfg, out_dir))
    params = _build(ValueParams, cfg)
    ranker = args.ranker
    if ranker == "bm25":
        score_fn = bm25_score_fn(corpus)
    else:
        model = _read("checkpoint", load_model, _resolve(cfg, out_dir, "checkpoint"), corpus)
        kept_map = None  # semantic: the same checkpoint, most recent consultations
        if ranker == "vaps":
            kept_map = kept_consultations(_read("values", load_assessments,
                                                _resolve(cfg, out_dir, "values"), corpus, params))
        score_fn = model_score_fn(model, corpus, kept_map, l_seq=params.l_seq,
                                  value_filter=ranker == "vaps")
    split = split_sessions(corpus)
    if not split.test:
        raise DataError("corpus has no search sessions to evaluate")
    n_neg = min(cfg["n_neg_eval"], len(corpus.items) - 1)
    report = evaluate_sessions(score_fn, corpus, split.test,
                               n_neg=n_neg, seed=cfg["seed"])
    reports_dir = _resolve(cfg, out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    path = _metrics_path(cfg, out_dir, ranker)
    dump_metrics(report, path)
    print(format_metric_table({ranker: report}))
    return {path: None}


def cmd_report(cfg, out_dir, args) -> Outputs:
    reports: Dict[str, MetricReport] = {}
    for ranker in RANKERS:
        reports[ranker] = _read("metrics", load_metrics, _metrics_path(cfg, out_dir, ranker))
    table = format_metric_table(reports)
    reports_dir = _resolve(cfg, out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    path = os.path.join(reports_dir, "comparison.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    return {path: None}


Inputs = List[Tuple[str, str]]  # (path, the stage that writes it)


def _corpus_and(*keys: Tuple[str, str]) -> Callable[..., Inputs]:
    """Inputs: the canonical corpus, then each (config path key, stage
    that writes it)."""
    def inputs(cfg, out_dir, args) -> Inputs:
        return [(path, "ingest") for path in _corpus_paths(cfg, out_dir)] + [
            (_resolve(cfg, out_dir, key), stage) for key, stage in keys
        ]
    return inputs


def _ingest_inputs(cfg, out_dir, args) -> Inputs:
    items_path, events_path = _raw_corpus_paths(cfg, out_dir, args)
    return [(items_path, "datagen (or pass --items pointing at an existing file)"),
            (events_path, "datagen (or pass --events pointing at an existing file)")]


_RANKER_INPUTS = {
    "vaps": _corpus_and(("checkpoint", "train"), ("values", "assess")),
    "semantic": _corpus_and(("checkpoint", "train")),
    "bm25": _corpus_and(),
}


def _eval_inputs(cfg, out_dir, args) -> Inputs:
    return _RANKER_INPUTS[args.ranker](cfg, out_dir, args)


def _report_inputs(cfg, out_dir, args) -> Inputs:
    return [(_metrics_path(cfg, out_dir, ranker),
             "eval" if ranker == "vaps" else f"eval --ranker {ranker}")
            for ranker in RANKERS]


@dataclasses.dataclass(frozen=True)
class Stage:
    """One subcommand.  `flags` are the config keys it takes as flags,
    `options` its other arguments, and `inputs` lists the artifacts it
    reads: each must exist before `run` starts and is hashed into the
    manifest."""

    run: Callable[..., Outputs]
    help: str
    flags: Tuple[str, ...] = ()
    options: Tuple[Tuple[str, dict], ...] = ()
    inputs: Callable[..., Inputs] = lambda cfg, out_dir, args: []


STAGES: Dict[str, Stage] = {
    "datagen": Stage(
        cmd_datagen, "generate a synthetic dataset with planted patterns",
        flags=("gen_users", "gen_items", "gen_horizon_hours"),
    ),
    "ingest": Stage(
        cmd_ingest, "validate raw items/events and write the canonical corpus",
        options=(("--items", {"help": "raw items.jsonl to ingest"}),
                 ("--events", {"help": "raw events.jsonl to ingest"})),
        inputs=_ingest_inputs,
    ),
    "index": Stage(
        cmd_index, "build the scenario-term inverted index",
        inputs=_corpus_and(),
    ),
    "link": Stage(
        cmd_link, "link consultations to their subsequent related actions",
        flags=("window_days",),
        inputs=_corpus_and(),
    ),
    "assess": Stage(
        cmd_assess, "score every consultation against every search",
        flags=("alpha", "lambda1", "lambda2", "n_buckets", "lambda_thresh"),
        inputs=_corpus_and(("index", "index"), ("linkage", "link")),
    ),
    "train": Stage(
        cmd_train, "train the ranking model",
        flags=("d", "l_seq", "lambda3_skip", "lambda_va", "tau1", "tau2",
               "lambda_l2", "n_neg_search", "va_batch", "batch_size",
               "max_epochs", "patience", "lr", "value_filter",
               "max_text_tokens", "n_time_buckets"),
        inputs=_corpus_and(("linkage", "link"), ("values", "assess")),
    ),
    "eval": Stage(
        cmd_eval, "rank held-out sessions and write metrics",
        flags=("l_seq", "n_neg_eval"),
        options=(("--ranker", {"choices": RANKERS, "default": "vaps",
                               "help": "which system to evaluate"}),),
        inputs=_eval_inputs,
    ),
    "report": Stage(
        cmd_report, "collate vaps/bm25/semantic metrics into one table",
        inputs=_report_inputs,
    ),
}


def _flag_type(default):
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, int):
        return int
    if isinstance(default, float):
        return float
    return str


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consultrank",
        description="consultation value assessment and value-aware search",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="stage", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--out", default=".", help="directory artifacts live under")
        p.add_argument("--seed", type=int, help="override the config seed")
        for key in stage.flags:
            p.add_argument(
                f"--{key.replace('_', '-')}", dest=key,
                type=_flag_type(CONFIG_DEFAULTS[key]),
                help=f"override config key {key} (default {CONFIG_DEFAULTS[key]})",
            )
        for flag, kwargs in stage.options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    stage = STAGES[args.stage]
    try:
        overrides: Dict[str, object] = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        for key in stage.flags:
            value = getattr(args, key)
            if value is not None:
                overrides[key] = value
        cfg = load_config(args.config, overrides)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        started = time.time()
        inputs = stage.inputs(cfg, out_dir, args)
        for path, writer in inputs:
            if not os.path.isfile(path):
                problem = "not a file" if os.path.exists(path) else "missing"
                raise MissingArtifact(f"{problem} {path}: run {writer} first")
        input_hashes = {path: _sha256(path) for path, _ in inputs}
        outputs = stage.run(cfg, out_dir, args)
        write_manifest(out_dir, args.stage, cfg, input_hashes, outputs, started,
                       _ranker_name(args.stage, getattr(args, "ranker", "vaps")))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
