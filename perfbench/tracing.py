"""Spans and counters recorded around fusenet's public functions, from outside.

A traced command runs with wrappers installed over module attributes and
class methods of the package; nothing inside ``src/`` changes. Spans are
kept in memory and written once when the command ends. A target that no
longer exists is skipped, and the metrics that depend on it are reported
as absent rather than failing the run.

Span records are ``(id, parent_id, name, start, end)`` with times from
``time.monotonic`` in seconds. A layer's busy time is the sum of its span
durations; its self time is each span's duration minus the part of that
interval its child spans cover (children may overlap when they ran on
worker threads).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

now = time.monotonic


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.installed: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the body; the parent defaults to this thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = now()
        try:
            yield span_id
        finally:
            end = now()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "installed": self.installed}


# ---------------------------------------------------------------------------
# Installing wrappers


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, original) or None when the target is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def replace_everywhere(module_name: str, attr_path: str, make_wrapper) -> list | None:
    """Replace a function or method with ``make_wrapper(original)``.

    A module-level function is also replaced in every ``fusenet`` module
    that imported it by name (``from .numcore import sigmoid``). Returns
    the undo list of ``(owner, attribute, previous)``, or None when the
    target does not exist.
    """
    found = _resolve(module_name, attr_path)
    if found is None:
        return None
    owner, attr, original = found
    wrapper = make_wrapper(original)
    undo = []
    if "." in attr_path:
        owners = [owner]
    else:
        owners = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "fusenet" or name.startswith("fusenet."))
                  and getattr(m, attr, None) is original]
    for target in owners:
        undo.append((target, attr, original))
        setattr(target, attr, wrapper)
    return undo


def restore(undo: list) -> None:
    for owner, attr, previous in reversed(undo):
        setattr(owner, attr, previous)


# The first call into any of these is where set-up ends and model
# computation starts: train, eval and predict each reach one of them
# only after loading and preparing their inputs.
COMPUTE_ENTRY_POINTS = (
    ("fusenet.training", "train"),
    ("fusenet.metrics", "report"),
    ("fusenet.model", "predict_topk"),
    ("fusenet.model", "forward"),
)


def mark_first_compute(marks: dict) -> None:
    """Store ``marks["first_compute"]`` at the first entry-point call.

    The wrappers remove themselves on that call, so the rest of the
    command runs the original functions.
    """
    undo: list = []

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if "first_compute" not in marks:
                marks["first_compute"] = now()
                restore(undo)
            return original(*args, **kwargs)
        return wrapper

    for module_name, attr in COMPUTE_ENTRY_POINTS:
        undo.extend(replace_everywhere(module_name, attr, make) or [])


def _span_wrapper(rec: Recorder, name: str, after=None):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(rec, args, kwargs, result)
            return result
        return wrapper
    return make


def _counter_wrapper(rec: Recorder, name: str):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec.count(name)
            return original(*args, **kwargs)
        return wrapper
    return make


def _ordered_map_wrapper(rec: Recorder):
    # Items run on worker threads: each gets a span whose parent is the
    # map's span, so the forwards inside nest under it. The CPU time each
    # item's thread spends on it sums to the numerator of
    # parallel.speedup; span durations would also count waiting for the
    # interpreter lock.
    def make(original):
        @functools.wraps(original)
        def wrapper(fn, items):
            with rec.span("parallel.ordered_map") as map_id:
                def item(x):
                    cpu = time.thread_time()
                    with rec.span("parallel.item", parent=map_id):
                        result = fn(x)
                    rec.count("parallel.item_cpu_s", time.thread_time() - cpu)
                    return result
                result = original(item, items)
            workers = _workers_for(len(items))
            if workers is not None:
                rec.count("parallel.calls")
                rec.count("parallel.workers", workers)
            return result
        return wrapper
    return make


def _workers_for(n_items: int):
    parallel = sys.modules.get("fusenet.parallel")
    max_workers = getattr(parallel, "max_workers", None)
    if max_workers is None:
        return None
    return min(max_workers(), n_items)


# after-hooks: counters read from arguments and results ------------------


def _after_load_vec(rec, args, kwargs, table):
    rec.count("embeddings.load_vec.rows", len(table))


def _after_prepare(rec, args, kwargs, result):
    rec.count("dataset.prepare.examples", len(result))


def _after_tokenize(rec, args, kwargs, seq):
    rec.count("textprep.tokens", len(seq.tokens))


def _embed_after(used: set):
    # Distinct in-vocabulary words looked up, per table: the numerator of
    # embeddings.rows_used_share. Only the main thread embeds text.
    def after(rec, args, kwargs, seq):
        table = args[0] if args else kwargs["table"]
        tokens = args[1] if len(args) > 1 else kwargs["seq"]
        rec.count("embeddings.oov", seq.oov_count)
        rec.count("embeddings.embedded", int(seq.mask.sum()))
        new = {(id(table), tok) for tok in tokens.tokens[: seq.mask.shape[0]]
               if tok in table.vocab} - used
        used.update(new)
        rec.count("embeddings.rows_used", len(new))
    return after


def _after_forward(rec, args, kwargs, result):
    seq = kwargs.get("seq", args[3] if len(args) > 3 else None)
    mask = getattr(seq, "mask", None)
    if mask is not None:
        rec.count("layers.bilstm.live", int(mask.sum()))
        rec.count("layers.bilstm.timesteps", int(mask.size))


def _after_clip(rec, args, kwargs, norm):
    max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else None)
    rec.count("training.clip.calls")
    if max_norm is not None and norm > max_norm:
        rec.count("training.clipped")


def install(rec: Recorder) -> None:
    """Wrap every traced target that exists; record which ones did."""
    used_rows: set = set()
    targets = [
        ("fusenet.embeddings", "load_vec_file", _span_wrapper(rec, "embeddings.load_vec", _after_load_vec)),
        ("fusenet.model", "load", _span_wrapper(rec, "model.load")),
        ("fusenet.model", "save", _span_wrapper(rec, "model.save")),
        ("fusenet.dataset", "load_jsonl", _span_wrapper(rec, "dataset.load_jsonl")),
        ("fusenet.dataset", "prepare", _span_wrapper(rec, "dataset.prepare", _after_prepare)),
        ("fusenet.textprep", "normalize", _span_wrapper(rec, "textprep.normalize")),
        ("fusenet.textprep", "tokenize", _span_wrapper(rec, "textprep.tokenize", _after_tokenize)),
        ("fusenet.embeddings", "embed_sequence",
         _span_wrapper(rec, "embeddings.embed_sequence", _embed_after(used_rows))),
        ("fusenet.layers", "BiLstmEncoder.forward", _span_wrapper(rec, "layers.bilstm.fwd")),
        ("fusenet.layers", "BiLstmEncoder.backward", _span_wrapper(rec, "layers.bilstm.bwd")),
        ("fusenet.layers", "LstmCell.step", _counter_wrapper(rec, "layers.lstm_step.calls")),
        ("fusenet.numcore", "sigmoid", _counter_wrapper(rec, "numcore.sigmoid.calls")),
        ("fusenet.layers", "FeedforwardAttention.forward", _span_wrapper(rec, "layers.attention.fwd")),
        ("fusenet.layers", "FeedforwardAttention.backward", _span_wrapper(rec, "layers.attention.bwd")),
        ("fusenet.layers", "DenseLayer.forward", _span_wrapper(rec, "layers.dense.fwd")),
        ("fusenet.layers", "DenseLayer.backward", _span_wrapper(rec, "layers.dense.bwd")),
        ("fusenet.model", "forward", _span_wrapper(rec, "model.forward", _after_forward)),
        ("fusenet.model", "backward", _span_wrapper(rec, "model.backward")),
        ("fusenet.training", "train", _span_wrapper(rec, "training.train")),
        ("fusenet.training", "clip_grads_", _span_wrapper(rec, "training.clip", _after_clip)),
        ("fusenet.training", "_validation_topk_accuracy", _span_wrapper(rec, "training.validation")),
        ("fusenet.metrics", "report", _span_wrapper(rec, "metrics.report")),
        ("fusenet.metrics", "compute_report", _span_wrapper(rec, "metrics.compute_report")),
        ("fusenet.parallel", "ordered_map", _ordered_map_wrapper(rec)),
    ]
    for module_name, attr, make in targets:
        if replace_everywhere(module_name, attr, make) is not None:
            rec.installed.append(f"{module_name}.{attr}")


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo  # everything before this is counted already
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy`` (sum of durations) and ``self``."""
    children: dict[int, list] = {}
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, dict[str, float]] = {}
    for span_id, _parent, name, start, end in spans:
        entry = totals.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["busy"] += end - start
        entry["self"] += (end - start) - covered(children.get(span_id, ()), start, end)
    return totals


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run


def per_layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traces of one run's traced commands.

    Times (``.s``, ``.self_s``) and counts are per command, averaged over
    the commands; shares are ratios of the run's totals. A metric whose
    wrapped target was not installed in any command is left out.
    """
    n = len(dumps)
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    installed: set[str] = set()
    for dump in dumps:
        for name, entry in span_totals(dump["spans"]).items():
            merged = totals.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
            for key, value in entry.items():
                merged[key] += value
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        installed.update(dump["installed"])

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / n

    def count(name: str) -> float:
        return counts.get(name, 0) / n

    def share(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    busy_maps = totals.get("parallel.ordered_map", {}).get("busy", 0.0)
    rows = {
        # metric: (wrapped target it needs, value)
        "embeddings.load_vec.s": ("embeddings.load_vec_file", span("embeddings.load_vec", "busy")),
        "embeddings.load_vec.rows": ("embeddings.load_vec_file", count("embeddings.load_vec.rows")),
        "embeddings.rows_used_share": ("embeddings.embed_sequence",
                                       share("embeddings.rows_used", "embeddings.load_vec.rows")),
        "model.load.s": ("model.load", span("model.load", "busy")),
        "dataset.load_jsonl.s": ("dataset.load_jsonl", span("dataset.load_jsonl", "busy")),
        "dataset.prepare.s": ("dataset.prepare", span("dataset.prepare", "busy")),
        "dataset.prepare.examples": ("dataset.prepare", count("dataset.prepare.examples")),
        "textprep.normalize.s": ("textprep.normalize", span("textprep.normalize", "busy")),
        "textprep.tokenize.s": ("textprep.tokenize", span("textprep.tokenize", "busy")),
        "textprep.tokens": ("textprep.tokenize", count("textprep.tokens")),
        "embeddings.embed_sequence.s": ("embeddings.embed_sequence",
                                        span("embeddings.embed_sequence", "busy")),
        "embeddings.oov_share": ("embeddings.embed_sequence",
                                 share("embeddings.oov", "embeddings.embedded")),
        "layers.bilstm.fwd.s": ("layers.BiLstmEncoder.forward", span("layers.bilstm.fwd", "busy")),
        "layers.bilstm.bwd.s": ("layers.BiLstmEncoder.backward", span("layers.bilstm.bwd", "busy")),
        "layers.bilstm.examples": ("layers.BiLstmEncoder.forward", span("layers.bilstm.fwd", "calls")),
        "layers.bilstm.live_share": ("model.forward",
                                     share("layers.bilstm.live", "layers.bilstm.timesteps")),
        "layers.lstm_step.calls": ("layers.LstmCell.step", count("layers.lstm_step.calls")),
        "numcore.sigmoid.calls": ("numcore.sigmoid", count("numcore.sigmoid.calls")),
        "layers.attention.fwd.s": ("layers.FeedforwardAttention.forward",
                                   span("layers.attention.fwd", "busy")),
        "layers.attention.bwd.s": ("layers.FeedforwardAttention.backward",
                                   span("layers.attention.bwd", "busy")),
        "layers.dense.fwd.s": ("layers.DenseLayer.forward", span("layers.dense.fwd", "busy")),
        "layers.dense.bwd.s": ("layers.DenseLayer.backward", span("layers.dense.bwd", "busy")),
        "layers.dense.calls": ("layers.DenseLayer.forward", span("layers.dense.fwd", "calls")),
        "model.forward.s": ("model.forward", span("model.forward", "busy")),
        "model.forward.self_s": ("model.forward", span("model.forward", "self")),
        "model.forward.examples": ("model.forward", span("model.forward", "calls")),
        "model.backward.s": ("model.backward", span("model.backward", "busy")),
        "model.backward.self_s": ("model.backward", span("model.backward", "self")),
        "training.train.s": ("training.train", span("training.train", "busy")),
        "training.step.self_s": ("training.train", span("training.train", "self")),
        "training.clip.s": ("training.clip_grads_", span("training.clip", "busy")),
        "training.clipped_share": ("training.clip_grads_",
                                   share("training.clipped", "training.clip.calls")),
        "training.batches": ("training.clip_grads_", count("training.clip.calls")),
        "training.validation.s": ("training._validation_topk_accuracy",
                                  span("training.validation", "busy")),
        "model.save.s": ("model.save", span("model.save", "busy")),
        "metrics.report.s": ("metrics.report", span("metrics.report", "busy")),
        "metrics.compute_report.s": ("metrics.compute_report", span("metrics.compute_report", "busy")),
        "parallel.ordered_map.s": ("parallel.ordered_map", span("parallel.ordered_map", "busy")),
        "parallel.workers": ("parallel.ordered_map", share("parallel.workers", "parallel.calls")),
        "parallel.speedup": ("parallel.ordered_map",
                             counts.get("parallel.item_cpu_s", 0) / busy_maps if busy_maps else 0.0),
    }
    return {name: value for name, (target, value) in rows.items()
            if f"fusenet.{target}" in installed}
