"""In-memory span recorder and the instrumentation of consultrank's layers.

Spans are recorded around the public functions of each module, patched at
the names their callers look them up by (``consultrank.cli.assess_corpus``,
``consultrank.model.cai_forward``, ...), so nothing under ``src/`` changes.
A span is (id, parent id, name, start ns, end ns); every span of one
benchmark run shares the recorder's trace id.  The layer of a span is the
part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, str, int, int]  # id, parent id (0 = root), name, start, end


class Recorder:
    """Spans and counters of one traced run, kept in memory until `dump`."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._stack: List[int] = [0]
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def total_s(self, name: str) -> float:
        """Summed duration of every span with this name, in seconds."""
        return sum(end - start for _, _, n, start, end in self.spans if n == name) / 1e9

    def self_times(self) -> Dict[int, int]:
        """Span id -> its duration minus the time its child spans cover (ns)."""
        own = {sid: end - start for sid, _, _, start, end in self.spans}
        for _sid, parent, _n, start, end in self.spans:
            if parent in own:
                own[parent] -= end - start
        return own

    def layer_self_s(self, root: str) -> Dict[str, float]:
        """Self time summed per layer over the first span named `root` and
        everything under it, in seconds.  The sums add up to the root's
        duration."""
        own = self.self_times()
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            children.setdefault(span[1], []).append(span)
        todo = [next(s for s in self.spans if s[2] == root)]
        out: Dict[str, float] = {}
        while todo:
            span = todo.pop()
            layer = span[2].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own[span[0]] / 1e9
            todo.extend(children.get(span[0], ()))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "trace_id": self.trace_id, "span_id": sid, "parent_id": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def graph_nodes(loss) -> int:
    """Autodiff nodes reachable from a loss through `_parents` links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _timed(rec: Recorder, name: str, fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, result, *args, **kwargs)
        return result
    return wrapper


def _counted(rec: Recorder, fn: Callable, after: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(rec, result, *args, **kwargs)
        return result
    return wrapper


def _after_load_corpus(rec, corpus, *_a, **_k):
    rec.counts["corpus.events"] = sum(
        len(h.interactions) + len(h.consultations) for h in corpus.users.values()
    )


def _after_build_index(rec, index, *_a, **_k):
    rec.counts["index.terms"] = len(index.postings)


def _after_is_related(rec, result, *_a, **_k):
    rec.count("linkage.pairs_in_window")
    if result[0]:
        rec.count("linkage.links")


def _after_assess(rec, assessments, *_a, **_k):
    rec.count("value.pairs_scored", sum(len(a.reports) for a in assessments))
    rec.count("value.kept", sum(len(a.kept) for a in assessments))
    rec.count("value.sessions", len(assessments))
    rec.count("value.filter_active", sum(len(a.reports) > len(a.kept) for a in assessments))


def _after_cai(rec, _result, _model, _consultations, actions, *_a, **_k):
    rec.sample("model.cai_actions", len(actions))


def _after_encode(rec, *_a, **_k):
    rec.count("model.encode_text_calls")


def _after_evaluate(rec, _report, _score_fn, _corpus, sessions, *_a, **_k):
    rec.count("evaluate.sessions", len(sessions))


def _after_adam(rec, *_a, **_k):
    rec.count("train.steps")


def _bm25_score_fn(rec: Recorder, build: Callable) -> Callable:
    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        with rec.span("evaluate.bm25"):
            score = build(*args, **kwargs)
        return _timed(rec, "evaluate.bm25", score)
    return wrapper


def _backward(rec: Recorder, backward: Callable) -> Callable:
    @functools.wraps(backward)
    def wrapper(loss):
        with rec.span("trace.graph_walk"):
            rec.sample("tensor.graph_nodes", graph_nodes(loss))
        with rec.span("tensor.backward"):
            return backward(loss)
    return wrapper


def _patches(rec: Recorder) -> List[Tuple[str, str, Callable[[Callable], Callable]]]:
    """(module, attribute, wrap) for every instrumented name."""
    def timed(name, after=None):
        return lambda fn: _timed(rec, name, fn, after)

    def counted(after):
        return lambda fn: _counted(rec, fn, after)

    cli = "consultrank.cli"
    return [
        (cli, "load_corpus", timed("corpus.load", _after_load_corpus)),
        (cli, "dump_corpus", timed("corpus.dump")),
        (cli, "build_index", timed("index.build", _after_build_index)),
        (cli, "dump_index", timed("index.dump")),
        (cli, "load_index", timed("index.load")),
        (cli, "build_linkage", timed("linkage.build")),
        (cli, "dump_linkage", timed("linkage.dump")),
        (cli, "load_linkage", timed("linkage.load")),
        ("consultrank.linkage", "is_related", counted(_after_is_related)),
        (cli, "fit_buckets", timed("value.fit_buckets")),
        (cli, "assess_corpus", timed("value.assess", _after_assess)),
        (cli, "dump_values", timed("value.dump")),
        (cli, "load_assessments", timed("value.load")),
        (cli, "init_model", timed("model.init")),
        (cli, "load_model", timed("model.load")),
        (cli, "train", timed("train.loop")),
        (cli, "evaluate_sessions", timed("evaluate.evaluate_sessions", _after_evaluate)),
        ("consultrank.evaluate", "evaluate_sessions",
         timed("evaluate.evaluate_sessions", _after_evaluate)),
        (cli, "bm25_score_fn", lambda fn: _bm25_score_fn(rec, fn)),
        (cli, "dump_metrics", timed("evaluate.dump_metrics")),
        (cli, "load_metrics", timed("evaluate.load_metrics")),
        ("consultrank.evaluate", "make_candidates", timed("evaluate.make_candidates")),
        ("consultrank.train", "build_example", timed("train.build_example")),
        ("consultrank.train", "loss_search", timed("train.loss_search")),
        ("consultrank.train", "loss_va", timed("train.loss_va")),
        ("consultrank.train", "sample_va_batch", timed("train.sample_va")),
        ("consultrank.train", "evaluate_sessions",
         timed("train.validation", _after_evaluate)),
        ("consultrank.model", "session_forward", timed("model.session_forward")),
        ("consultrank.model", "cai_forward", timed("model.cai_forward", _after_cai)),
        ("consultrank.model", "encode_text", counted(_after_encode)),
        ("consultrank.model", "score_candidates", timed("model.score_candidates")),
        ("consultrank.tensor", "backward", lambda fn: _backward(rec, fn)),
        ("consultrank.tensor", "adam_step", timed("tensor.adam_step", _after_adam)),
        ("consultrank.tensor", "save_checkpoint", timed("tensor.checkpoint_save")),
        ("consultrank.tensor", "load_checkpoint", timed("tensor.checkpoint_load")),
    ]


@contextlib.contextmanager
def instrumented(rec: Recorder) -> Iterator[Recorder]:
    """Patch every instrumented name for the duration of the block."""
    saved = []
    try:
        for module_name, attr, wrap in _patches(rec):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by metric name.

    Times are summed span durations and counts are totals over everything
    the recorder saw: the traced pipeline and the scoring sweep after it."""
    c = rec.counts
    nodes = rec.samples.get("tensor.graph_nodes", [0])
    actions = rec.samples.get("model.cai_actions", [0])
    pairs = c.get("linkage.pairs_in_window", 0)
    scored = c.get("value.pairs_scored", 0)
    sessions = c.get("value.sessions", 0)
    out = {
        name + "_s": rec.total_s(name) for name in (
            "corpus.load", "corpus.dump", "index.build", "linkage.build",
            "linkage.load", "linkage.dump", "value.fit_buckets", "value.assess",
            "value.dump", "value.load", "model.session_forward", "model.cai_forward",
            "model.score_candidates", "train.build_example", "train.loss_search",
            "train.loss_va", "train.sample_va", "train.validation",
            "tensor.backward", "tensor.adam_step", "tensor.checkpoint_save",
            "tensor.checkpoint_load", "evaluate.make_candidates", "evaluate.bm25",
        )
    }
    out.update({
        "corpus.events": c.get("corpus.events", 0),
        "index.terms": c.get("index.terms", 0),
        "linkage.pairs_in_window": pairs,
        "linkage.links": c.get("linkage.links", 0),
        "linkage.link_yield": c.get("linkage.links", 0) / pairs if pairs else 0.0,
        "value.pairs_scored": scored,
        "value.kept_share": c.get("value.kept", 0) / scored if scored else 0.0,
        "value.filter_active_share":
            c.get("value.filter_active", 0) / sessions if sessions else 0.0,
        "model.encode_text_calls": c.get("model.encode_text_calls", 0),
        "model.cai_actions_p50": statistics.median(actions),
        "model.cai_actions_max": max(actions),
        "train.steps": c.get("train.steps", 0),
        "tensor.graph_nodes_per_step": statistics.mean(nodes),
        "evaluate.sessions": c.get("evaluate.sessions", 0),
    })
    return out
