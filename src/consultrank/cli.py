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

Each entry of ``STAGES`` names the artifact files its stage reads and
writes, and `artifact_paths` gives every such file its path.  `main` does
the artifact checks once for every stage: a read that is missing or not a
file is refused naming the stage to run first, a written path that names
a directory is refused before the stage runs, and each write's directory
is made.  The stage itself only loads, computes and dumps.  Every stage
also writes ``manifests/<stage>.json`` (config hash, the SHA-256 of each
file read and written, timing), and ``eval --ranker <ranker>`` writes
``manifests/eval_<ranker>.json`` for the bm25 and semantic rankers, named
like their metrics files.  The `train` and `eval` manifests also record
the numpy version, the BLAS library and the BLAS thread variables, which
the checkpoint's bits depend on.  Manifests carry timestamps and sit
outside the byte-stable artifact contract, which covers the artifacts
themselves; the digests a manifest lists are byte-stable with them.

Config: a single flat JSON object.  Every setting is declared once, as a
field of the dataclass that owns it (``GenSpec``, ``LinkageParams``,
``ScopeParams``, ``ValueParams``, ``ModelConfig``, ``TrainConfig``), and
its default and type come from there; ``CONFIG_DEFAULTS`` is built from
those fields.  Unknown keys are rejected with every offending key listed;
flags override config keys; ``--seed``, ``--config``, and ``--out`` exist
on every subcommand.  ``STAGES`` declares each subcommand once: what it
runs, the config keys it takes as flags, and the artifacts it reads and
writes.

Exit codes: 0 success, 2 config error (among them an output directory
whose path a file takes, or a written path naming a directory), 3
missing upstream artifact, 4 data validation error.

`main` runs with Python's cyclic garbage collector off and turns it back on
afterwards only if it was on before.  The collector finds nothing to free
in a stage: the only cycles a stage leaves are the few hundred objects of
its argparse parser, the same number on every corpus and after every
epoch count (a test holds this).  With the collector on, the allocations
of loading and building trigger dozens of collections per stage, which
walk the corpus, index or model objects the stage builds, the older ones
again in each pass over an older generation.  The
simpler-looking ways out do not remove that work: ``gc.freeze()`` only
hides what exists before the stage and still runs the young collections
over what the stage builds, a raised threshold is one more knob to set,
and a cache of loaded inputs shared across stages helps nothing, because a
CLI user runs one stage per process.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

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
from .tensor import checkpoint_data_path
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
    n_neg = supplied.get("n_neg_eval")
    if type(n_neg) is int and n_neg < 1:
        problems.append(f"n_neg_eval must be >= 1, got {n_neg}")
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


def _makedirs(path: str) -> None:
    """Make directory `path` and its parents, if missing.  A path that a
    file takes is a config error naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make directory {path}: a file is in the way") from exc


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


Outputs = Dict[str, str]  # path -> SHA-256 of what a stage wrote there

#: The environment variables that set the BLAS thread count.  BLAS sums in
#: another order at another count, so a trained checkpoint's bits depend on
#: them.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def numeric_environment() -> Dict[str, object]:
    """The numpy version, the name and version of the BLAS library numpy was
    built with, and each BLAS thread variable's value, None where it is
    unset."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}}


def write_manifest(out_dir: str, stage: str, cfg: Dict[str, object],
                   input_hashes: Dict[str, str], outputs: Dict[str, Optional[str]],
                   started: float, name: str, numerics: bool = False) -> str:
    """Write the manifest of a run of `stage` to ``manifests/<name>.json``;
    an output whose digest the stage did not give is hashed here.  With
    `numerics` it also records `numeric_environment`."""
    _makedirs(os.path.join(out_dir, "manifests"))
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
    if numerics:
        payload["environment"] = numeric_environment()
    path = os.path.join(out_dir, "manifests", f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _read(what: str, load: Callable, *args):
    """`load(*args)`, with an artifact it refuses (a ValueError, which
    CorpusError is) reported as a data error naming `what`."""
    try:
        return load(*args)
    except ValueError as exc:
        raise DataError(f"{what} failed validation: {exc}") from exc


def build_settings(cls, cfg: Dict[str, object]):
    """`cls` built from the settings it owns, read from the validated
    config `cfg`.  A value the class rejects is a config error."""
    kwargs = {f.name: cfg[key] for key, f in _settings(cls).items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {cls.__name__} setting: {exc}") from exc


class Artifact(NamedTuple):
    key: str     # the config key that places it
    path: str
    writer: str  # what to run to write it


def _ranker_name(stem: str, ranker: str) -> str:
    """`stem` for the vaps ranker, `stem`_`ranker` for the others: the
    names of a ranker's metrics file and eval manifest."""
    return stem if ranker == "vaps" else f"{stem}_{ranker}"


def artifact_paths(cfg: Dict[str, object], out_dir: str, args) -> Dict[str, Artifact]:
    """Every artifact file of a run, by the name a `Stage` declares it by.
    Paths are config keys resolved under `out_dir` unless absolute;
    ``metrics`` is the file of the ranker ``--ranker`` picks, and
    ``raw_items``/``raw_events``, what `ingest` reads, follow --items and
    --events."""
    def under(key: str, *names: str) -> str:
        return os.path.join(out_dir, str(cfg[key]), *names)

    checkpoint = under("checkpoint")
    paths = {
        "items": Artifact("corpus", under("corpus", "items.jsonl"), "ingest"),
        "events": Artifact("corpus", under("corpus", "events.jsonl"), "ingest"),
        "oracle": Artifact("corpus", under("corpus", "oracle.jsonl"), "datagen"),
        "index": Artifact("index", under("index"), "index"),
        "linkage": Artifact("linkage", under("linkage"), "link"),
        "values": Artifact("values", under("values"), "assess"),
        "checkpoint": Artifact("checkpoint", checkpoint, "train"),
        "checkpoint_data": Artifact("checkpoint", checkpoint_data_path(checkpoint), "train"),
        "train_log": Artifact("reports", under("reports", "train_log.csv"), "train"),
        "comparison": Artifact("reports", under("reports", "comparison.txt"), "report"),
    }
    for name in ("items", "events"):
        paths[f"raw_{name}"] = Artifact(
            "corpus", getattr(args, name, None) or paths[name].path,
            f"datagen (or pass --{name} pointing at an existing file)")
    for ranker in RANKERS:
        paths[f"{ranker}_metrics"] = Artifact(
            "reports", under("reports", _ranker_name("metrics", ranker) + ".json"),
            "eval" if ranker == "vaps" else f"eval --ranker {ranker}")
    paths["metrics"] = paths[f"{getattr(args, 'ranker', 'vaps')}_metrics"]
    return paths


def _load_corpus(paths: Dict[str, str]):
    return _read("corpus", load_corpus, paths["items"], paths["events"])


def cmd_datagen(cfg, paths, args) -> None:
    corpus_dir = os.path.dirname(paths["items"])
    write_dataset(build_settings(GenSpec, cfg), corpus_dir)
    print(f"wrote synthetic dataset under {corpus_dir}")


def cmd_ingest(cfg, paths, args) -> None:
    corpus = _read("corpus", load_corpus, paths["raw_items"], paths["raw_events"])
    dump_corpus(corpus, paths["items"], paths["events"])
    n_events = sum(
        len(h.interactions) + len(h.consultations) for h in corpus.users.values()
    )
    print(f"ingested {len(corpus.users)} users, {len(corpus.items)} items, "
          f"{n_events} events")


def cmd_index(cfg, paths, args) -> None:
    corpus = _load_corpus(paths)
    index = build_index(corpus)
    dump_index(index, paths["index"])
    print(f"indexed {len(index.postings)} terms over {len(corpus.items)} items")


def cmd_link(cfg, paths, args) -> None:
    corpus = _load_corpus(paths)
    table = build_linkage(corpus, build_settings(LinkageParams, cfg))
    dump_linkage(table, paths["linkage"])
    n_links = sum(len(v) for user in table.links.values() for v in user.values())
    print(f"linked {n_links} consultation-action pairs")


def cmd_assess(cfg, paths, args) -> None:
    corpus = _load_corpus(paths)
    index = _read("index", load_index, paths["index"])
    linkage = _read("linkage", load_linkage, paths["linkage"], corpus)
    params = build_settings(ValueParams, cfg)
    scope = build_settings(ScopeParams, cfg)
    buckets = fit_buckets(linkage, n_buckets=params.n_buckets)
    assessments = assess_corpus(corpus, linkage, buckets, params, scope, index)
    dump_values(assessments, paths["values"])
    print(score_histogram(assessments))


def cmd_train(cfg, paths, args) -> Outputs:
    corpus = _load_corpus(paths)
    params = build_settings(ValueParams, cfg)
    linkage = _read("linkage", load_linkage, paths["linkage"], corpus)
    assessments = _read("values", load_assessments, paths["values"], corpus, params)
    mcfg = build_settings(ModelConfig, cfg)
    tcfg = build_settings(TrainConfig, cfg)
    if not split_sessions(corpus).train:
        raise DataError("corpus has no training sessions: no user has more than two searches")
    model = init_model(corpus, mcfg)

    def progress(row: EpochRow) -> None:
        print(f"epoch {row.epoch}/{tcfg.max_epochs}: l_search {row.l_search:.4f} "
              f"l_va {row.l_va:.4f} valid ndcg@10 {row.valid_ndcg10:.4f} "
              f"({row.elapsed_seconds:.1f} s)", flush=True)

    result = train(corpus, linkage, assessments, model, tcfg,
                   l_seq=params.l_seq, value_filter=cfg["value_filter"],
                   log_path=paths["train_log"], on_epoch=progress)
    written = save_model(result.model, paths["checkpoint"])
    print(f"best epoch {result.best_epoch}: "
          f"valid ndcg@10 {result.best_valid_ndcg10:.4f}")
    return written


def cmd_eval(cfg, paths, args) -> None:
    corpus = _load_corpus(paths)
    params = build_settings(ValueParams, cfg)
    ranker = args.ranker
    if ranker == "bm25":
        score_fn = bm25_score_fn(corpus)
    else:
        model = _read("checkpoint", load_model, paths["checkpoint"], corpus)
        kept_map = None  # semantic: the same checkpoint, most recent consultations
        if ranker == "vaps":
            kept_map = kept_consultations(_read("values", load_assessments,
                                                paths["values"], corpus, params))
        score_fn = model_score_fn(model, corpus, kept_map, l_seq=params.l_seq,
                                  value_filter=ranker == "vaps")
    split = split_sessions(corpus)
    if not split.test:
        raise DataError("corpus has no search sessions to evaluate")
    n_neg = min(cfg["n_neg_eval"], len(corpus.items) - 1)
    report = evaluate_sessions(score_fn, corpus, split.test,
                               n_neg=n_neg, seed=cfg["seed"])
    dump_metrics(report, paths["metrics"])
    print(format_metric_table({ranker: report}))


def cmd_report(cfg, paths, args) -> None:
    reports: Dict[str, MetricReport] = {
        ranker: _read("metrics", load_metrics, paths[f"{ranker}_metrics"])
        for ranker in RANKERS}
    table = format_metric_table(reports)
    with open(paths["comparison"], "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)


Names = Tuple[str, ...]
_CORPUS: Names = ("items", "events")


@dataclasses.dataclass(frozen=True)
class Stage:
    """One subcommand.  `flags` are the config keys it takes as flags,
    `options` its other arguments, and `reads` and `writes` name the
    artifacts (keys of `artifact_paths`) it reads and writes; an `eval`
    ranker reads its own.  `main` refuses a missing read, hashes the
    reads, makes each write's directory and lists the writes in the
    manifest; `run` gets the paths of those artifacts alone, by name, and
    returns the digests of the writes it knows (None: it knows none).
    A stage that trains or scores the model records `numeric_environment`
    in its manifest (`numerics`)."""

    run: Callable[..., Optional[Outputs]]
    help: str
    flags: Tuple[str, ...] = ()
    options: Tuple[Tuple[str, dict], ...] = ()
    reads: Union[Names, Dict[str, Names]] = ()
    writes: Names = ()
    numerics: bool = False


STAGES: Dict[str, Stage] = {
    "datagen": Stage(
        cmd_datagen, "generate a synthetic dataset with planted patterns",
        flags=("gen_users", "gen_items", "gen_horizon_hours"),
        writes=_CORPUS + ("oracle",),
    ),
    "ingest": Stage(
        cmd_ingest, "validate raw items/events and write the canonical corpus",
        options=(("--items", {"help": "raw items.jsonl to ingest"}),
                 ("--events", {"help": "raw events.jsonl to ingest"})),
        reads=("raw_items", "raw_events"), writes=_CORPUS,
    ),
    "index": Stage(
        cmd_index, "build the scenario-term inverted index",
        reads=_CORPUS, writes=("index",),
    ),
    "link": Stage(
        cmd_link, "link consultations to their subsequent related actions",
        flags=("window_days",),
        reads=_CORPUS, writes=("linkage",),
    ),
    "assess": Stage(
        cmd_assess, "score every consultation against every search",
        flags=("alpha", "lambda1", "lambda2", "n_buckets", "lambda_thresh"),
        reads=_CORPUS + ("index", "linkage"), writes=("values",),
    ),
    "train": Stage(
        cmd_train, "train the ranking model",
        flags=("d", "l_seq", "lambda3_skip", "lambda_va", "tau1", "tau2",
               "lambda_l2", "n_neg_search", "va_batch", "batch_size",
               "max_epochs", "patience", "lr", "value_filter",
               "max_text_tokens", "n_time_buckets"),
        reads=_CORPUS + ("linkage", "values"),
        writes=("checkpoint", "checkpoint_data", "train_log"), numerics=True,
    ),
    "eval": Stage(
        cmd_eval, "rank held-out sessions and write metrics",
        flags=("l_seq", "n_neg_eval"),
        options=(("--ranker", {"choices": RANKERS, "default": "vaps",
                               "help": "which system to evaluate"}),),
        reads={"vaps": _CORPUS + ("checkpoint", "values"),
               "semantic": _CORPUS + ("checkpoint",), "bm25": _CORPUS},
        writes=("metrics",), numerics=True,
    ),
    "report": Stage(
        cmd_report, "collate vaps/bm25/semantic metrics into one table",
        reads=tuple(f"{ranker}_metrics" for ranker in RANKERS), writes=("comparison",),
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


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of a command line `argv`.  Every subcommand is registered
    with its help, but only the one `argv` names gets its arguments: the
    first argument not starting with ``-`` is the one the top-level parser
    reads as the subcommand, as it has no options that take a value."""
    parser = argparse.ArgumentParser(
        prog="consultrank",
        description="consultation value assessment and value-aware search",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="stage", required=True)
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        if name != invoked:
            continue
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
    """Run one stage with the cyclic collector off (see the module
    docstring); return its exit code."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv).parse_args(argv)
        stage = STAGES[args.stage]
        overrides: Dict[str, object] = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        for key in stage.flags:
            value = getattr(args, key)
            if value is not None:
                overrides[key] = value
        cfg = load_config(args.config, overrides)
        out_dir = args.out
        _makedirs(out_dir)
        started = time.time()
        artifacts = artifact_paths(cfg, out_dir, args)
        reads = stage.reads[args.ranker] if isinstance(stage.reads, dict) else stage.reads
        paths = {name: artifacts[name].path for name in reads + stage.writes}
        for name in reads:
            _, path, writer = artifacts[name]
            if not os.path.isfile(path):
                problem = "not a file" if os.path.exists(path) else "missing"
                raise MissingArtifact(f"{problem} {path}: run {writer} first")
        for name in stage.writes:
            key, path, _ = artifacts[name]
            _makedirs(os.path.dirname(path))
            if os.path.isdir(path):
                raise ConfigError(f"cannot write {key} to {path}: it is a directory")
        input_hashes = {paths[name]: _sha256(paths[name]) for name in reads}
        digests = stage.run(cfg, paths, args) or {}
        outputs = {paths[name]: digests.get(paths[name]) for name in stage.writes}
        write_manifest(out_dir, args.stage, cfg, input_hashes, outputs, started,
                       _ranker_name(args.stage, getattr(args, "ranker", "vaps")),
                       stage.numerics)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
