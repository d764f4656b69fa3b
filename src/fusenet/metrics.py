"""Top-k metrics and per-class reporting.

Top-k recall for a class is the fraction of that class's cases whose
true label appears in the k predicted classes; top-k accuracy is the
same fraction over all cases. Both reduce to the same indicator sum, so
every report asserts the identity accuracy == sum_k (n_k/n) * recall_k.

A class absent from the evaluation set has UNDEFINED recall, surfaced as
None (JSON null) rather than silently zeroed: a fake zero would corrupt
the weighted identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_NAMES, PreparedDataset, is_finite_number
from .layers import AllMaskedError, live_lengths
from .model import NON_FINITE_PROBS, FusionModel, encode_text, forward, topk_indices
from .parallel import ordered_map

REPORT_VERSION = 1
SCORE_CHUNK = 64  # rows per cache-free forward when scoring a dataset


class ReportError(ValueError):
    """An inconsistent report, or report JSON with a missing or mistyped field."""


def _hits(preds, labels) -> np.ndarray:
    """Whether each case's label is among its predicted classes, one bool per case.

    ``preds`` is (n, k) class indices, as ``model.topk_indices`` ranks them,
    or n lists of k; a row that repeats a class is a ValueError naming it.
    """
    preds, labels = np.asarray(preds), np.asarray(labels)
    # A flat list would broadcast against the labels into a wrong count.
    if len(preds) != len(labels) or (preds.ndim != 2 and preds.size):
        raise ValueError(f"predictions {preds.shape} vs {len(labels)} labels: "
                         "expected one list of k classes per label")
    ranked = np.sort(preds, axis=-1)
    repeats = np.flatnonzero((ranked[..., 1:] == ranked[..., :-1]).any(axis=-1))
    if len(repeats):
        raise ValueError(f"prediction {repeats[0]} repeats a class: {preds[repeats[0]].tolist()}")
    return (preds == labels[:, None]).any(axis=-1)


def topk_accuracy(preds, labels) -> float:
    if len(labels) == 0:
        raise ValueError("top-k accuracy of an empty set is undefined")
    return int(np.count_nonzero(_hits(preds, labels))) / len(labels)


@dataclass
class EvalReport:
    k: int
    n: int
    class_names: tuple
    n_k: list[int]
    per_class_recall: list  # float, or None where n_k == 0
    accuracy: float

    def __post_init__(self):
        weighted = sum(
            (nk / self.n) * recall
            for nk, recall in zip(self.n_k, self.per_class_recall)
            if recall is not None
        )
        if abs(weighted - self.accuracy) > 1e-12:
            raise ReportError(
                f"report identity violated: weighted recall {weighted!r} "
                f"vs accuracy {self.accuracy!r}"
            )
        for recall in self.per_class_recall:
            if recall is not None and not 0.0 <= recall <= 1.0:
                raise ReportError(f"recall out of range: {recall}")


def compute_report(preds, labels, k: int, class_names=CLASS_NAMES) -> EvalReport:
    """Aggregate predictions into an EvalReport (identity-checked).

    ``preds`` is (n, k) class indices (see ``_hits``). Two counts per
    class, its cases and its top-k hits, give its recall (None when it
    has no cases) and the accuracy, the fraction topk_accuracy gives. A
    label outside [0, len(class_names)) is a ValueError naming its row.
    """
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("cannot build a report from an empty set")
    classes = len(class_names)
    bad = np.flatnonzero((labels < 0) | (labels >= classes))
    if len(bad):
        raise ValueError(f"label {labels[bad[0]]} of row {bad[0]} is not in [0, {classes})")
    hits = _hits(preds, labels)
    n_k = np.bincount(labels, minlength=classes).tolist()
    hit_k = np.bincount(labels[hits], minlength=classes).tolist()
    return EvalReport(
        k=k,
        n=len(labels),
        class_names=tuple(class_names),
        n_k=n_k,
        per_class_recall=[h / nk if nk else None for h, nk in zip(hit_k, n_k)],
        accuracy=sum(hit_k) / len(labels),
    )


def chunk_bounds(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each scoring chunk of ``n`` rows, SCORE_CHUNK rows each.

    When the last chunk would hold one row, the last SCORE_CHUNK + 1 rows
    split into two chunks instead: numpy sends a one-row product to gemv,
    whose sums can differ in the last bit from the gemm of a larger chunk.
    So a row is scored alone only when ``n`` is 1.
    """
    bounds = [*range(0, n, SCORE_CHUNK), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= SCORE_CHUNK // 2
    return list(zip(bounds, bounds[1:]))


def check_inputs(model: FusionModel, data: PreparedDataset, name: str) -> None:
    """Check ``data`` against what ``model``'s branches take, once, before any forward.

    A ValueError starting ``name: `` names labels that are not one
    integer class index in [0, num_classes) per row (the first bad
    example when one is out of range), a tabular width, or texts and
    groups that do not give each row an entry, ``max_seq_len`` by
    ``embed_dim``. A row whose entry is all padding raises AllMaskedError
    naming the first such example in row order.
    """
    cfg = model.config
    labels = data.labels
    if labels.shape != (len(data),) or labels.dtype.kind not in "iu":
        raise ValueError(f"{name}: labels {labels.dtype} {labels.shape} vs integer "
                         f"({len(data)},)")
    bad = np.flatnonzero((labels < 0) | (labels >= cfg.num_classes))
    if len(bad):
        raise ValueError(f"{name}: example {data.ids[bad[0]]}: label {labels[bad[0]]} "
                         f"is not in [0, {cfg.num_classes})")
    if model.uses_tabular:
        for what, x, dim in (("numerical", data.num, cfg.num_feature_dim),
                             ("categorical", data.cat, cfg.cat_feature_dim)):
            if x.shape[1] != dim:
                raise ValueError(f"{name}: {what} width {x.shape[1]} vs model {dim}")
    if not model.uses_text:
        return
    texts, groups = data.texts, data.groups
    if texts is None:
        raise ValueError(f"{name}: missing embedded sequences")
    if groups is None:
        raise ValueError(f"{name}: embedded sequences without groups")
    size = len(texts.vectors)
    expected = (size, cfg.max_seq_len, cfg.embed_dim)
    if texts.vectors.shape != expected or texts.mask.shape != expected[:2]:
        raise ValueError(f"{name}: sequences {texts.vectors.shape} with mask "
                         f"{texts.mask.shape} vs {expected}")
    if groups.shape != (len(data),):
        raise ValueError(f"{name}: groups {groups.shape} vs {len(data)} rows")
    if groups.size and (groups.min() < 0 or groups.max() >= size):
        raise ValueError(f"{name}: groups must lie in [0, {size})")
    dead = np.flatnonzero(~texts.mask.any(axis=-1)[groups])
    if len(dead):
        raise AllMaskedError(f"example {data.ids[dead[0]]}: attention: "
                             "no unmasked positions to attend to")


# Overflow is refused at the end, by name, so numpy need not warn of it first.
@np.errstate(over="ignore", invalid="ignore")
def predict_all(model: FusionModel, data: PreparedDataset) -> np.ndarray:
    """The (n, num_classes) probabilities of every example in ``data``, in
    row order, after ``check_inputs`` of ``data``.

    The text branch runs once per entry of ``data.texts`` that a row's
    ``groups`` value names (``check_inputs`` checks no other), by
    ``encode_text``, which keeps no backward cache, in ``chunk_bounds``
    chunks in a stable sort by live length (``layers.live_lengths``: 1 +
    an entry's last position whose mask entry is true or whose vector is
    non-zero). Each chunk's encoder then runs only to its longest entry
    L, its backward direction starting from the state T-L trailing
    zero-input steps reach (``BiLstmEncoder.padding_states``, run once
    per call for the T-m steps the chunks read, m being the shortest
    chunk's longest entry). A lone entry among several rows is encoded
    twice, as no chunk may hold one row. Then the rows are scored in
    ``chunk_bounds`` chunks in row order, by ``forward`` with each row's
    entry's text features, into one preallocated array. So each row's
    probabilities are bit-identical to its row of ``forward`` of its
    chunk's sequences, which runs every timestep. A row whose
    probabilities are not all finite is a ValueError naming its example.
    """
    check_inputs(model, data, "data")
    encoded = None
    if model.uses_text:
        texts = data.texts
        lengths = live_lengths(texts.vectors, texts.mask)
        used = np.zeros(len(lengths), dtype=bool)
        used[data.groups] = True
        used = np.flatnonzero(used)
        order = used[np.argsort(lengths[used], kind="stable")]
        if len(order) == 1 < len(data):
            order = np.repeat(order, 2)
        chunks = chunk_bounds(len(order))
        T = texts.mask.shape[-1]
        # Sorted by length, the first chunk's longest entry is the shortest chunk's.
        m = lengths[order[chunks[0][1] - 1]] if chunks else T
        padding = model.encoder.padding_states(T - m + 1, len(order))
        encoded = np.empty((len(texts.mask), model.encoder.out_dim))
        for bounds in chunks:
            entries = order[slice(*bounds)]
            encoded[entries] = encode_text(model, texts[entries], padding)
    probs = np.empty((len(data), model.config.num_classes))

    def score(bounds: tuple[int, int]) -> None:
        # A variant without the tabular branches ignores num and cat.
        rows = slice(*bounds)
        probs[rows] = forward(model, data.num[rows], data.cat[rows],
                              text=None if encoded is None else encoded[data.groups[rows]])[0]

    ordered_map(score, chunk_bounds(len(data)))
    if not np.isfinite(probs).all():
        bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))[0]
        raise ValueError(f"example {data.ids[bad]}: {NON_FINITE_PROBS}")
    return probs


def report(model: FusionModel, prepared: PreparedDataset, k: int = 3,
           class_names=CLASS_NAMES) -> EvalReport:
    """Predict every example (see predict_all), rank each row's top ``k``
    (``model.topk_indices``) and aggregate."""
    return compute_report(topk_indices(predict_all(model, prepared), k), prepared.labels, k,
                          class_names)


def to_json(rep: EvalReport) -> dict:
    return {
        "version": REPORT_VERSION,
        "k": rep.k,
        "n": rep.n,
        "per_class": [
            {"name": name, "n_k": nk, "recall": recall}
            for name, nk, recall in zip(rep.class_names, rep.n_k, rep.per_class_recall)
        ],
        "accuracy": rep.accuracy,
    }


def _is_count(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, int) and v >= 0


def _is_class_entry(e) -> bool:
    return (isinstance(e, dict) and isinstance(e.get("name"), str) and _is_count(e.get("n_k"))
            and "recall" in e and (e["recall"] is None or is_finite_number(e["recall"])))


def from_json(doc) -> EvalReport:
    """Inverse of to_json; a ReportError names a missing or mistyped field."""
    if not isinstance(doc, dict):
        raise ReportError("expected a JSON object")
    if doc.get("version") != REPORT_VERSION:
        raise ReportError(f"unsupported report version {doc.get('version')!r}")
    positive = (lambda v: _is_count(v) and v >= 1, "a positive integer")
    fields = {
        "k": positive,
        "n": positive,
        "accuracy": (is_finite_number, "a finite number"),
        "per_class": (lambda v: isinstance(v, list) and all(map(_is_class_entry, v)),
                      'a list of {"name": string, "n_k": count, '
                      '"recall": finite number or null} objects'),
    }
    for key, (ok, what) in fields.items():
        if key not in doc:
            raise ReportError(f"missing field {key!r}")
        if not ok(doc[key]):
            raise ReportError(f"field {key!r} must be {what}")
    per_class = doc["per_class"]
    return EvalReport(
        k=doc["k"],
        n=doc["n"],
        class_names=tuple(entry["name"] for entry in per_class),
        n_k=[entry["n_k"] for entry in per_class],
        per_class_recall=[entry["recall"] for entry in per_class],
        accuracy=doc["accuracy"],
    )
