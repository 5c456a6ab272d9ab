"""Pipeline CLI: stage wiring, config validation, exit codes, determinism."""

import base64
import builtins
import dataclasses
import hashlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from consultrank import cli
from consultrank import corpus as corpus_module
from consultrank import index as index_module
from consultrank import linkage as linkage_module
from consultrank import model as model_module
from consultrank import tensor as tensor_module
from consultrank import value as value_module
from consultrank.evaluate import load_metrics
from consultrank.index import load_index
from consultrank.linkage import RULES, build_linkage, load_linkage
from consultrank.corpus import load_corpus
from consultrank.model import CORPUS_KEY, ModelConfig
from consultrank.value import ValueParams, load_assessments

from helpers import click, consult, item, search, write_jsonl

SMALL_CONFIG = {
    "gen_users": 8, "gen_items": 16, "seed": 5, "d": 16, "l_seq": 1,
    "max_epochs": 2, "patience": 2, "batch_size": 16, "va_batch": 8,
    "tau1": 1.0, "lambda_va": 0.3, "lr": 0.003,
}


def run(stage, out, config_path, *extra):
    return cli.main([stage, "--config", str(config_path), "--out", str(out), *extra])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    config = out / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    for stage in ("datagen", "ingest", "index", "link", "assess", "train", "eval"):
        assert run(stage, out, config) == 0, f"stage {stage} failed"
    return out, config


@pytest.fixture(scope="module")
def reported_dir(pipeline_dir, tmp_path_factory):
    """A copy of the pipeline run that every ranker has evaluated, so
    `report` can run on it."""
    src, _ = pipeline_dir
    out = tmp_path_factory.mktemp("reported") / "run"
    shutil.copytree(src, out)
    for ranker in ("bm25", "semantic"):
        assert run("eval", out, out / "config.json", "--ranker", ranker) == 0
    return out


def test_full_pipeline_artifacts(pipeline_dir):
    out, _ = pipeline_dir
    for name in ("corpus/items.jsonl", "corpus/events.jsonl", "corpus/oracle.jsonl",
                 "index.jsonl", "linkage.jsonl", "values.jsonl", "checkpoint.json",
                 "checkpoint.json.f64", "reports/train_log.csv", "reports/metrics.json"):
        assert (out / name).exists(), name
    for stage in ("datagen", "ingest", "index", "link", "assess", "train", "eval"):
        manifest = json.loads((out / "manifests" / f"{stage}.json").read_text())
        assert manifest["stage"] == stage
        assert manifest["outputs"], stage
        assert "config_sha256" in manifest
    train_outputs = json.loads((out / "manifests" / "train.json").read_text())["outputs"]
    assert sorted(train_outputs) == ["checkpoint.json", "checkpoint.json.f64",
                                     os.path.join("reports", "train_log.csv")]
    for name, digest in train_outputs.items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name


def test_train_prints_a_line_per_epoch(pipeline_dir, tmp_path, capsys):
    src, _ = pipeline_dir
    out = tmp_path / "run"
    shutil.copytree(src, out)
    capsys.readouterr()
    assert run("train", out, out / "config.json") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["epoch 1/2", "epoch 2/2"]
    assert lines[-1].startswith("best epoch ")
    log = (out / "reports" / "train_log.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in log] == ["epoch", "1", "2"]


def test_each_ranker_writes_its_own_eval_manifest(reported_dir):
    metrics = {"eval": "metrics.json", "eval_semantic": "metrics_semantic.json",
               "eval_bm25": "metrics_bm25.json"}
    for name, metrics_file in metrics.items():
        manifest = json.loads((reported_dir / "manifests" / f"{name}.json").read_text())
        assert manifest["stage"] == "eval"
        assert list(manifest["outputs"]) == [f"reports/{metrics_file}"], name
        assert ("values.jsonl" in manifest["inputs"]) == (name == "eval"), name


def test_report_collates_all_rankers(pipeline_dir, capsys):
    out, config = pipeline_dir
    assert run("report", out, config) == 3  # bm25/semantic not evaluated yet
    assert run("eval", out, config, "--ranker", "bm25") == 0
    assert run("eval", out, config, "--ranker", "semantic") == 0
    assert run("report", out, config) == 0
    table = (out / "reports" / "comparison.txt").read_text()
    for name in ("vaps", "bm25", "semantic"):
        assert name in table
    assert "ndcg@10" in table


def test_loaders_round_trip(pipeline_dir):
    out, _ = pipeline_dir
    corpus = load_corpus(out / "corpus/items.jsonl", out / "corpus/events.jsonl")
    index = load_index(out / "index.jsonl")
    assert index.postings
    loaded = load_linkage(out / "linkage.jsonl", corpus)
    rebuilt = build_linkage(corpus)
    assert {u: set(v) for u, v in loaded.links.items()} == \
        {u: set(v) for u, v in rebuilt.links.items()}
    for user in rebuilt.links:
        for cid in rebuilt.links[user]:
            assert [(a.timestamp, rule) for a, rule in loaded.links[user][cid]] == \
                [(a.timestamp, rule) for a, rule in rebuilt.links[user][cid]]
    assessments = load_assessments(
        out / "values.jsonl", corpus, ValueParams(l_seq=1)
    )
    assert all(len(a.kept) <= 1 for a in assessments)
    n_searches = sum(len(h.searches) for h in corpus.users.values())
    assert len(assessments) == n_searches


def test_metrics_round_trip(pipeline_dir):
    out, _ = pipeline_dir
    report = load_metrics(out / "reports" / "metrics.json")
    assert report.n_sessions == len(report.per_user) > 0
    assert 0.0 <= report.macro["ndcg@10"] <= 1.0


def test_unknown_config_keys_listed(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"gen_userz": 5, "bogus": 1, "lr": "fast"}))
    assert run("datagen", tmp_path, config) == 2
    err = capsys.readouterr().err
    assert "gen_userz" in err and "bogus" in err and "lr" in err


@pytest.mark.parametrize("argv, config, says", [
    (["datagen"], '{"lr": NaN, "lambda_l2": Infinity, "bogus": 1}',
     "unknown config keys: bogus; non-finite config values: lambda_l2=inf, lr=nan"),
    (["datagen"], '{"tau1": -Infinity, "d": "x"}',
     "wrong-typed config values: d='x'; non-finite config values: tau1=-inf"),
    (["datagen"], '{"lr": 1e400}', "non-finite config values: lr=inf"),
    (["datagen"], '{"lr": 1%s}' % ("0" * 400,), "non-finite config values: lr=1" + "0" * 400),
    (["train", "--lr", "nan"], "{}", "non-finite config values: lr=nan"),
    (["train", "--tau1", "inf"], "{}", "non-finite config values: tau1=inf"),
], ids=["config-nan-and-infinity", "config-with-wrong-type", "config-overflowing-float",
        "config-int-beyond-float", "flag-nan", "flag-infinity"])
def test_non_finite_config_values_refused(tmp_path, capsys, argv, config, says):
    """Refused before any stage runs, with exit 2 and every bad key named."""
    path = tmp_path / "config.json"
    path.write_text(config)
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {says}\n"


@pytest.mark.parametrize("argv, config, name", [
    (["datagen"], {"time_bucket_count": 13}, "time_bucket_count"),
    (["datagen"], {"encoder_layers": 1}, "encoder_layers"),
    (["assess", "--l-seq", "7"], {}, "--l-seq"),
    (["assess", "--time-bucket-count", "2"], {}, "--time-bucket-count"),
    (["eval", "--d", "999"], {}, "--d"),
], ids=["config-time_bucket_count", "config-encoder_layers", "assess-l-seq",
        "assess-time-bucket-count", "eval-d"])
def test_removed_knobs_refused(tmp_path, capsys, argv, config, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    try:
        code = cli.main([*argv, "--config", str(path), "--out", str(tmp_path)])
    except SystemExit as exc:  # argparse refuses an unknown flag this way
        code = exc.code
    assert code == 2
    assert name in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("datagen", tmp_path, missing) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("datagen", tmp_path, broken) == 2
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    assert run("eval", tmp_path, not_utf8) == 2
    assert "config file is not UTF-8" in capsys.readouterr().err


def test_assess_without_link_names_stage(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert run("datagen", tmp_path, config) == 0
    assert run("ingest", tmp_path, config) == 0
    assert run("index", tmp_path, config) == 0
    assert run("assess", tmp_path, config) == 3
    assert "run link first" in capsys.readouterr().err


def test_ingest_without_data_names_stage(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert run("ingest", tmp_path, config) == 3
    assert "run datagen" in capsys.readouterr().err


def test_corrupt_events_exit_4(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert run("datagen", tmp_path, config) == 0
    events = tmp_path / "corpus" / "events.jsonl"
    rows = events.read_text().splitlines()
    first = json.loads(rows[0])
    first["ts_hours"] = -5
    rows[0] = json.dumps(first)
    events.write_text("\n".join(rows) + "\n")
    assert run("ingest", tmp_path, config) == 4


@pytest.mark.parametrize("hours", ["1e300", "9223372036854775808"])
def test_hours_beyond_int64_exit_4(tmp_path, capsys, hours):
    """A finite ts_hours past int64 is refused in ingest, naming its line:
    the model packs hours into int64 arrays."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert run("datagen", tmp_path, config) == 0
    events = tmp_path / "corpus" / "events.jsonl"
    rows = events.read_text().splitlines()
    user, iid = json.loads(rows[0])["user"], load_corpus(
        tmp_path / "corpus/items.jsonl", events).item_ids[0]
    events.write_text("\n".join(rows) + "\n"
                      + '{"user": "%s", "type": "click", "ts_hours": %s, "item": "%s"}\n'
                      % (user, hours, iid))
    capsys.readouterr()
    assert run("ingest", tmp_path, config) == 4
    assert (f"events.jsonl:{len(rows) + 1}: ts_hours must be at most 9223372036854775807"
            in capsys.readouterr().err)


def test_flags_override_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert run("datagen", tmp_path, config, "--gen-users", "4") == 0
    corpus = load_corpus(tmp_path / "corpus/items.jsonl",
                         tmp_path / "corpus/events.jsonl")
    assert len(corpus.users) == 4


def test_seed_flag_changes_dataset(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((out_a, "5"), (out_b, "6"), (out_c, "5")):
        out.mkdir()
        assert run("datagen", out, config, "--seed", seed) == 0
    events = lambda o: (o / "corpus" / "events.jsonl").read_bytes()
    assert events(out_a) != events(out_b)
    assert events(out_a) == events(out_c)


def test_rerun_byte_identical(tmp_path):
    """Same config and seed twice: values.jsonl and metrics.json match."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    outputs = {}
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        out.mkdir()
        for stage in ("datagen", "ingest", "index", "link", "assess",
                      "train", "eval"):
            assert run(stage, out, config) == 0
        outputs[run_dir] = (
            (out / "values.jsonl").read_bytes(),
            (out / "reports" / "metrics.json").read_bytes(),
        )
    assert outputs["one"] == outputs["two"]


def test_stage_idempotent_rerun(pipeline_dir):
    out, config = pipeline_dir
    before = (out / "values.jsonl").read_bytes()
    assert run("assess", out, config) == 0
    assert (out / "values.jsonl").read_bytes() == before


def test_eval_bm25_needs_no_checkpoint(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    for stage in ("datagen", "ingest"):
        assert run(stage, tmp_path, config) == 0
    assert run("eval", tmp_path, config, "--ranker", "bm25") == 0
    assert (tmp_path / "reports" / "metrics_bm25.json").exists()


@pytest.mark.parametrize("stage, name, writer", [
    ("eval", "checkpoint.json", "train"),
    ("assess", "linkage.jsonl", "link"),
])
def test_input_that_is_not_a_file_exits_3(pipeline_dir, tmp_path, capsys, stage, name, writer):
    """An input path that names a directory is reported, with its path, as
    an artifact still to be written."""
    src, _ = pipeline_dir
    out = tmp_path / "run"
    shutil.copytree(src, out)
    (out / name).unlink()
    (out / name).mkdir()
    assert run(stage, out, out / "config.json") == 3
    err = capsys.readouterr().err
    assert f"not a file {out / name}: run {writer} first" in err


def test_eval_without_train_names_stage(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    for stage in ("datagen", "ingest"):
        assert run(stage, tmp_path, config) == 0
    assert run("eval", tmp_path, config) == 3
    assert "run train first" in capsys.readouterr().err


@pytest.mark.parametrize("n_neg", ["0", "-3"])
def test_eval_rejects_n_neg_eval_below_one(pipeline_dir, capsys, n_neg):
    out, config = pipeline_dir
    assert run("eval", out, config, "--ranker", "bm25", "--n-neg-eval", n_neg) == 2
    assert capsys.readouterr().err.startswith("error: n_neg_eval")


def test_train_rejects_one_time_bucket(pipeline_dir, capsys):
    out, config = pipeline_dir
    assert run("train", out, config, "--n-time-buckets", "1") == 2
    assert "bad ModelConfig setting" in capsys.readouterr().err


def test_train_without_training_sessions_exits_4(tmp_path, capsys):
    """One user with two searches: one validates, one tests, none trains."""
    (tmp_path / "corpus").mkdir()
    write_jsonl(tmp_path / "corpus/items.jsonl",
                [item("i1", "alpha gadget"), item("i2", "beta widget")])
    write_jsonl(tmp_path / "corpus/events.jsonl", [
        consult("u1", 5, "c1", "which alpha gadget"), search("u1", 10, "alpha gadget", "i1"),
        search("u1", 20, "beta widget", "i2")])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    for stage in ("ingest", "index", "link", "assess"):
        assert run(stage, tmp_path, config) == 0
    assert run("train", tmp_path, config) == 4
    assert capsys.readouterr().err.startswith("error: corpus has no training sessions")


def test_search_before_first_consultation_trains_and_evaluates(tmp_path):
    """`assess` writes no value rows for a search with no earlier
    consultation; `train` and `eval` read that as an empty kept set."""
    (tmp_path / "corpus").mkdir()
    write_jsonl(tmp_path / "corpus/items.jsonl",
                [item("i1", "alpha gadget"), item("i2", "beta widget")])
    write_jsonl(tmp_path / "corpus/events.jsonl", [
        search("u1", 5, "alpha gadget", "i1"), consult("u1", 6, "c1", "which alpha gadget"),
        click("u1", 7, "i1"),
        search("u1", 8, "beta widget", "i2"), search("u1", 9, "alpha gadget", "i1"),
        search("u1", 10, "beta widget", "i2")])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    for stage in ("ingest", "index", "link", "assess", "train", "eval"):
        assert run(stage, tmp_path, config) == 0, stage
    assert load_metrics(tmp_path / "reports" / "metrics.json").n_sessions == 1


def test_searches_in_one_hour_share_one_row_set(tmp_path, capsys):
    """Two searches in the same hour: `assess` writes and counts that hour's
    rows once, and both searches read the same kept set, each consultation
    once."""
    (tmp_path / "corpus").mkdir()
    write_jsonl(tmp_path / "corpus/items.jsonl",
                [item("i1", "alpha gadget"), item("i2", "beta widget")])
    write_jsonl(tmp_path / "corpus/events.jsonl", [
        consult("u1", 1, "c1", "which alpha gadget"), consult("u1", 2, "c2", "a beta widget"),
        search("u1", 10, "alpha gadget", "i1"), search("u1", 10, "beta widget", "i2"),
        click("u1", 11, "i1"), search("u1", 20, "beta widget", "i2"),
        search("u1", 30, "alpha gadget", "i1")])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "l_seq": 5}))
    for stage in ("ingest", "index", "link", "assess", "train", "eval"):
        assert run(stage, tmp_path, config) == 0, stage
    rows = [json.loads(line) for line in (tmp_path / "values.jsonl").read_text().splitlines()]
    keys = [(row["search_ts"], row["cid"]) for row in rows]
    assert len(keys) == len(set(keys))
    assert f"distribution over {len(rows)} consultations" in capsys.readouterr().out
    corpus = load_corpus(tmp_path / "corpus/items.jsonl", tmp_path / "corpus/events.jsonl")
    first, second = [a for a in load_assessments(tmp_path / "values.jsonl", corpus,
                                                 ValueParams(l_seq=5))
                     if a.session.timestamp == 10]
    assert first.session != second.session
    assert first.kept == second.kept
    assert sorted(c.id for c in first.kept) == ["c1", "c2"]


def _spy(log, entry, fn):
    """`fn`, appending `entry(first argument)` to `log` on each call."""
    def spy(first, *args, **kwargs):
        log.append(entry(first))
        return fn(first, *args, **kwargs)
    return spy


#: The files each stage parses, by the stage's arguments.
STAGE_READS = {
    ("train",): ["events.jsonl", "items.jsonl", "linkage.jsonl", "values.jsonl"],
    ("eval", "--ranker", "vaps"): ["checkpoint.json", "events.jsonl", "items.jsonl",
                                   "values.jsonl"],
}


@pytest.mark.parametrize("argv", list(STAGE_READS), ids=" ".join)
def test_stage_loads_each_input_once(pipeline_dir, tmp_path, monkeypatch, argv):
    """A count, not a timing: the stage parses each of its input files once
    and takes the corpus digest once, and no manifest re-reads the
    checkpoint's data file to hash it: `train` takes both checkpoint
    digests from the write.  `eval` opens the data file once, to load it;
    its manifest hashes the checkpoint header, whose recorded SHA-256 pins
    the data file."""
    src, _ = pipeline_dir
    out = tmp_path / "run"
    shutil.copytree(src, out)
    reads, digests, opened, hashed = [], [], [], []
    named = lambda path: Path(path).name
    for module in (corpus_module, index_module, linkage_module, value_module):
        monkeypatch.setattr(module, "read_jsonl", _spy(reads, named, module.read_jsonl))
    monkeypatch.setattr(tensor_module, "load_checkpoint",
                        _spy(reads, named, tensor_module.load_checkpoint))
    monkeypatch.setattr(model_module, "corpus_digest",
                        _spy(digests, id, model_module.corpus_digest))
    monkeypatch.setattr(builtins, "open", _spy(opened, named, builtins.open))
    monkeypatch.setattr(cli, "_sha256", _spy(hashed, named, cli._sha256))
    assert run(argv[0], out, out / "config.json", *argv[1:]) == 0
    assert sorted(reads) == STAGE_READS[argv]
    assert len(digests) == 1
    assert "checkpoint.json.f64" not in hashed
    if argv[0] == "eval":
        assert opened.count("checkpoint.json.f64") == 1
        assert hashed.count("checkpoint.json") == 1


def test_dumps_build_one_encoder_per_file(pipeline_dir, tmp_path, monkeypatch):
    """A count, not a timing: each dump builds one JSON encoder for its file
    and calls `json.dumps` for none of its rows, and rewrites the bytes the
    pipeline wrote."""
    out, _ = pipeline_dir
    corpus = load_corpus(out / "corpus/items.jsonl", out / "corpus/events.jsonl")
    index = load_index(out / "index.jsonl")
    linkage = load_linkage(out / "linkage.jsonl", corpus)
    assessments = load_assessments(out / "values.jsonl", corpus, ValueParams(l_seq=1))
    (tmp_path / "corpus").mkdir()
    encoders, dumps = [], []
    monkeypatch.setattr(json.encoder, "c_make_encoder",
                        _spy(encoders, type, json.encoder.c_make_encoder))
    monkeypatch.setattr(json, "dumps", _spy(dumps, type, json.dumps))
    for files, dump in [
        (2, lambda: corpus_module.dump_corpus(
            corpus, tmp_path / "corpus/items.jsonl", tmp_path / "corpus/events.jsonl")),
        (1, lambda: index_module.dump_index(index, tmp_path / "index.jsonl")),
        (1, lambda: linkage_module.dump_linkage(linkage, tmp_path / "linkage.jsonl")),
        (1, lambda: value_module.dump_values(assessments, tmp_path / "values.jsonl")),
    ]:
        encoders.clear()
        dump()
        assert len(encoders) == files
    assert dumps == []
    for name in ("corpus/items.jsonl", "corpus/events.jsonl", "index.jsonl", "linkage.jsonl",
                 "values.jsonl"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


def test_eval_refuses_checkpoint_of_another_corpus(pipeline_dir, tmp_path, capsys):
    """Same item, user and vocabulary counts, one click fewer: the corpus
    hash stored in the checkpoint no longer matches."""
    src, _ = pipeline_dir
    out = tmp_path / "run"
    shutil.copytree(src, out)
    events = out / "corpus" / "events.jsonl"
    rows = events.read_text().splitlines()
    rows.remove(next(r for r in rows if json.loads(r)["type"] == "click"))
    events.write_text("\n".join(rows) + "\n")
    for stage in ("ingest", "index", "link", "assess"):
        assert run(stage, out, out / "config.json") == 0
    assert run("eval", out, out / "config.json") == 4
    assert "trained on another corpus" in capsys.readouterr().err


def _edit_first_row(name, edit):
    """Edit the first row of `name`; return the `name:1:` the error names."""
    def corrupt(out):
        path = out / name
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0] = edit(rows[0])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return f"{path.name}:1:"
    return corrupt


def _append_row(name, make):
    """Append the row `make` builds from the first row of `name`; return the
    `name:line:` the error names."""
    def corrupt(out):
        path = out / name
        lines = path.read_text().splitlines()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(make(json.loads(lines[0]))) + "\n")
        return f"{path.name}:{len(lines) + 1}:"
    return corrupt


def _repeat_first_value_row(out):
    """Append the first values.jsonl row again, ranked after the last row
    of its search hour, so that only the repeat is wrong."""
    lines = (out / "values.jsonl").read_text().splitlines()
    hour = lambda row: (row["user"], row["search_ts"])
    first = json.loads(lines[0])
    n = sum(hour(json.loads(line)) == hour(first) for line in lines)
    return _append_row("values.jsonl", lambda row: {**row, "rank": n + 1})(out)


def _value_row_of_later_consultation(out):
    """Point the first values.jsonl row at a consultation of its user made
    at or after its search."""
    events = [json.loads(line) for line in
              (out / "corpus" / "events.jsonl").read_text().splitlines()]
    def edit(row):
        later = next(ev["cid"] for ev in events if ev["type"] == "consult"
                     and ev["user"] == row["user"] and ev["ts_hours"] >= row["search_ts"])
        return {**row, "cid": later}
    return _edit_first_row("values.jsonl", edit)(out)


def _with_older_corpus_key(payload):
    payload["extra"]["corpus_sha256"] = payload["extra"].pop(CORPUS_KEY)


def _edit_json(name, edit):
    def corrupt(out):
        path = out / name
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return corrupt


def _append_bytes(name, raw):
    """Append a line of `raw` bytes; return the `name:line:` the error names."""
    def corrupt(out):
        path = out / name
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(raw)
        return f"{path.name}:{line}:"
    return corrupt


def _edit_checkpoint(edit):
    """Edit the checkpoint header; return the `checkpoint.json:` the error
    names."""
    corrupt = _edit_json("checkpoint.json", edit)
    def edited(out):
        corrupt(out)
        return "checkpoint.json:"
    return edited


def _edit_bm25_macro(edit):
    return _edit_json("reports/metrics_bm25.json", lambda payload: edit(payload["macro"]))


def _first_param(payload):
    return next(iter(payload["params"].values()))


def _edit_data(edit, rehash=False):
    """Edit the bytes of the checkpoint's data file; with `rehash`, record
    their new SHA-256 in the header, so that only the edit is wrong.
    Return the `checkpoint.json.f64:` the error names."""
    def corrupt(out):
        path = out / "checkpoint.json.f64"
        raw = bytearray(path.read_bytes())
        edit(raw)
        path.write_bytes(raw)
        if rehash:
            _edit_checkpoint(lambda payload: payload.update(
                data_sha256=hashlib.sha256(raw).hexdigest()))(out)
        return "checkpoint.json.f64:"
    return corrupt


def _bad_digest(out):
    """Record a SHA-256 in the header that no data file has."""
    _edit_checkpoint(lambda payload: payload.update(data_sha256="not a digest"))(out)
    return "checkpoint.json.f64: SHA-256 does not match"


def _drop_last_value(raw):
    del raw[-8:]


def _flip_a_byte(raw):
    raw[len(raw) // 2] ^= 0x01


def _grow_first_dim(out):
    """Claim one row more of the first parameter than the data file holds."""
    def edit(payload):
        _first_param(payload)["shape"][0] += 1
    _edit_checkpoint(edit)(out)
    return "checkpoint.json.f64:"


def _non_finite_values(out):
    """Set the first value of the first checkpoint parameter to NaN and its
    last to -inf, with the data file's SHA-256 updated to match; return the
    data file and the parameter it names."""
    payload = json.loads((out / "checkpoint.json").read_text())
    name, param = next(iter(payload["params"].items()))
    size = math.prod(param["shape"])
    def edit(raw):
        values = memoryview(raw).cast("d")
        values[0], values[size - 1] = float("nan"), float("-inf")
    _edit_data(edit, rehash=True)(out)
    return f"checkpoint.json.f64: parameter {name} "


def _remove_data_file(out):
    (out / "checkpoint.json.f64").unlink()
    return "checkpoint.json.f64:"


def _as_older_format(version):
    """Rewrite the checkpoint as one file in an older layout: v1 holds JSON
    float lists, v2 base64 float64 bytes."""
    def corrupt(out):
        path = out / "checkpoint.json"
        payload = json.loads(path.read_text())
        data_path = out / "checkpoint.json.f64"
        raw = data_path.read_bytes()
        data_path.unlink()
        offset = 0
        for _, param in sorted(payload["params"].items()):
            chunk = raw[offset:offset + 8 * math.prod(param["shape"])]
            offset += len(chunk)
            if version == 1:
                param["values"] = memoryview(chunk).cast("d").tolist()
            else:
                param["data"] = base64.b64encode(chunk).decode("ascii")
        del payload["data_sha256"]
        payload["format"] = f"tensor-checkpoint-v{version}"
        path.write_text(json.dumps(payload))
        return "checkpoint.json:"
    return corrupt


@pytest.mark.parametrize("stage, corrupt", [
    ("index", _append_bytes("corpus/items.jsonl", b"\xff\n")),
    ("assess", _edit_first_row("linkage.jsonl",
        lambda row: {k: v for k, v in row.items() if k != "actions"})),
    ("assess", _edit_first_row("linkage.jsonl", lambda row: list(row))),
    ("assess", _edit_first_row("index.jsonl", lambda row: {**row, "items": "abc"})),
    ("assess", _edit_first_row("index.jsonl", lambda row: {**row, "term": 5})),
    ("eval", _edit_first_row("values.jsonl", lambda row: {**row, "rank": "1"})),
    ("eval", _edit_first_row("values.jsonl",
        lambda row: {**row, "search_ts": str(row["search_ts"])})),
    ("eval", _repeat_first_value_row),
    ("eval", _value_row_of_later_consultation),
    ("eval", _edit_first_row("values.jsonl", lambda row: {**row, "rank": row["rank"] + 1})),
    ("assess", _append_row("linkage.jsonl", lambda row: {**row, "actions": []})),
    ("assess", _append_row("index.jsonl", lambda row: {**row, "items": []})),
    ("eval", _edit_checkpoint(_with_older_corpus_key)),
    ("eval", _edit_checkpoint(lambda payload: payload.pop("params"))),
    ("eval", _edit_checkpoint(
        lambda payload: next(iter(payload["params"].values())).pop("shape"))),
    ("eval", _edit_checkpoint(
        lambda payload: payload["extra"]["model_config"].update(encoder_layers=1))),
    ("eval", _edit_checkpoint(
        lambda payload: payload["extra"]["model_config"].pop("d"))),
    ("eval", _edit_checkpoint(
        lambda payload: payload["extra"]["model_config"].pop("lambda3_skip"))),
    ("eval", _bad_digest),
    ("eval", _grow_first_dim),
    ("eval", _remove_data_file),
    ("eval", _edit_data(_drop_last_value)),
    ("eval", _edit_data(lambda raw: raw.append(0))),
    ("eval", _edit_data(_flip_a_byte)),
    ("eval", _as_older_format(1)),
    ("eval", _as_older_format(2)),
    ("eval", _non_finite_values),
    ("report", _edit_bm25_macro(lambda macro: macro.pop("hr@5"))),
    ("report", _edit_bm25_macro(lambda macro: macro.update({"ndcg@10": "x"}))),
    ("report", _edit_bm25_macro(lambda macro: macro.update({"mrr@50": 1.5}))),
], ids=["corpus-not-utf8", "linkage-row-without-actions", "linkage-row-not-an-object",
        "index-row-string-items", "index-row-number-term",
        "values-row-string-rank", "values-row-string-search-ts",
        "values-row-repeated", "values-row-of-later-consultation", "values-ranks-not-1-to-n",
        "linkage-row-repeated", "index-row-repeated", "checkpoint-older-corpus-key",
        "checkpoint-without-params", "checkpoint-param-without-shape",
        "model-config-unknown-key", "model-config-missing-key",
        "model-config-missing-defaulted-key",
        "checkpoint-sha256-not-a-digest", "checkpoint-data-short-of-shape",
        "checkpoint-data-file-missing", "checkpoint-data-one-value-short",
        "checkpoint-data-one-byte-extra", "checkpoint-data-byte-flipped",
        "checkpoint-v1-format", "checkpoint-v2-format", "checkpoint-non-finite-value",
        "metrics-macro-missing-key",
        "metrics-macro-string-value", "metrics-macro-value-above-one"])
def test_corrupt_artifact_exits_4(reported_dir, tmp_path, capsys, stage, corrupt):
    out = tmp_path / "run"
    shutil.copytree(reported_dir, out)
    named = corrupt(out)
    assert run(stage, out, out / "config.json") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named is None or named in err, err


#: Each artifact and the stage that reads it.
ARTIFACT_READERS = {"corpus/items.jsonl": "index", "corpus/events.jsonl": "index",
                    "index.jsonl": "assess", "linkage.jsonl": "assess",
                    "values.jsonl": "eval", "checkpoint.json": "eval",
                    "reports/metrics.json": "report", "reports/metrics_bm25.json": "report"}

def _kept_by_sweep(name, path):
    """Whether the sweep leaves the key at `path` of a row of `name` in
    place: a field a reader takes as empty when absent, or a user row of a
    metrics file, which is a row as a whole, like a line of a JSONL file."""
    if name == "corpus/items.jsonl":
        return path == ("attributes",)
    if name == "corpus/events.jsonl":
        return path in (("user_turn",), ("assistant_turn",))
    return name.startswith("reports/") and len(path) == 2 and path[0] == "per_user"


def _key_paths(obj, prefix=()):
    """The path to every key of every object nested in `obj`."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, prefix + (i,))


def _sweep_rows(path):
    """The rows of a JSONL file; a JSON file is one row, written compactly,
    so that cutting it anywhere leaves no valid JSON."""
    text = path.read_text()
    return [json.dumps(json.loads(text))] if path.suffix == ".json" else text.splitlines()


@pytest.mark.parametrize("name", sorted(ARTIFACT_READERS))
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_or_keyless_artifact_exits_4(reported_dir, capsys, name, data):
    """Cut one row short, or delete one key at any depth of one row: the
    stage that reads the file must refuse it with exit 4.  A cut line of a
    JSONL file is named by its file and line number."""
    rows = _sweep_rows(reported_dir / name)
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    row = json.loads(rows[i])
    paths = [path for path in _key_paths(row) if not _kept_by_sweep(name, path)]
    truncate = data.draw(st.booleans(), label="truncate")
    if truncate:
        rows[i] = rows[i][:data.draw(st.integers(1, len(rows[i]) - 1), label="cut")]
    else:
        *parents, key = data.draw(st.sampled_from(paths), label="key")
        target = row
        for step in parents:
            target = target[step]
        del target[key]
        rows[i] = json.dumps(row)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(reported_dir, out)
        (out / name).write_text("\n".join(rows) + "\n")
        assert run(ARTIFACT_READERS[name], out, out / "config.json") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if truncate and name.endswith(".jsonl"):
        assert f"{name}:{i + 1}:" in err


def test_checkpoint_header_without_any_key_exits_4(reported_dir, tmp_path, capsys):
    """The sweep above draws its keys at random; this deletes every key of
    the checkpoint header in turn (of the parameters, the first one's and
    its shape): `eval` must refuse each with exit 4, naming the header or
    its data file."""
    header = json.loads((reported_dir / "checkpoint.json").read_text())
    first = next(iter(header["params"]))
    paths = [path for path in _key_paths(header)
             if path[0] != "params" or len(path) == 1 or path[1] == first]
    assert ("data_sha256",) in paths and ("params", first, "shape") in paths
    for n, (*parents, key) in enumerate(paths):
        def drop(payload):
            target = payload
            for step in parents:
                target = target[step]
            del target[key]
        out = tmp_path / str(n)
        shutil.copytree(reported_dir, out)
        _edit_checkpoint(drop)(out)
        assert run("eval", out, out / "config.json") == 4, (*parents, key)
        assert f"{out / 'checkpoint.json'}" in capsys.readouterr().err, (*parents, key)


#: ModelConfig field -> the kind of JSON number its checkpoint value must be.
MODEL_CONFIG_KINDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)}

#: The corpus sizes that checkpoints of an earlier ModelConfig carried.  A
#: model takes them from its corpus now, so any value of theirs is refused.
CORPUS_SIZE_KEYS = ("n_items", "n_users", "vocab_size")


@pytest.mark.parametrize("field, value", [
    (field, value)
    for field, kind in {**MODEL_CONFIG_KINDS, **dict.fromkeys(CORPUS_SIZE_KEYS, "int")}.items()
    for value in (None, "x", -1, 2.5)
    if not (kind == "float" and value == 2.5)  # a valid lambda3_skip
])
def test_wrong_model_config_value_exits_4(pipeline_dir, tmp_path, capsys, field, value):
    src, _ = pipeline_dir
    out = tmp_path / "run"
    shutil.copytree(src, out)
    _edit_checkpoint(lambda payload: payload["extra"]["model_config"].update(
        {field: value}))(out)
    assert run("eval", out, out / "config.json") == 4
    assert capsys.readouterr().err.startswith("error: ")


#: A value outside [0, 1] for a values.jsonl score.
_OFF_UNIT = st.floats().filter(lambda v: not 0.0 <= v <= 1.0)


def _out_of_range(name, row):
    """(path, strategy) for each value of one row of `name` whose range the
    reader checks: the strategy draws only values out of that range."""
    if name == "values.jsonl":
        return [((key,), _OFF_UNIT) for key in ("o_time", "o_scope", "o_action",
                                                "o_aggregate")] + \
            [(("rank",), st.integers(max_value=0))]
    not_a_rule = st.one_of(st.none(), st.integers(), st.floats(),
                           st.text().filter(lambda t: t not in RULES))
    return [(("actions", i, "rule"), not_a_rule) for i in range(len(row["actions"]))]


@pytest.mark.parametrize("name", ["linkage.jsonl", "values.jsonl"])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_out_of_range_artifact_value_exits_4(pipeline_dir, capsys, name, data):
    """Set one range-checked value of one row out of its range (a score
    outside [0, 1], a rank below 1, a rule that is none of the three): the
    stage that reads the file must refuse it with exit 4."""
    src, _ = pipeline_dir
    rows = [json.loads(line) for line in (src / name).read_text().splitlines()]
    candidates = [i for i, row in enumerate(rows) if _out_of_range(name, row)]
    i = data.draw(st.sampled_from(candidates), label="row")
    path, values = data.draw(st.sampled_from(_out_of_range(name, rows[i])), label="key")
    target = rows[i]
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = data.draw(values, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(src, out)
        (out / name).write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert run(ARTIFACT_READERS[name], out, out / "config.json") == 4
    assert capsys.readouterr().err.startswith("error: ")
