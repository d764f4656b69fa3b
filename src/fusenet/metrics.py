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
from .model import FusionModel, encode_text, forward
from .parallel import ordered_map

REPORT_VERSION = 1
SCORE_CHUNK = 64  # rows per cache-free forward when scoring a dataset


class ReportError(ValueError):
    """An inconsistent report, or report JSON with a missing or mistyped field."""


def _check_predictions(preds, labels) -> None:
    if len(preds) != len(labels):
        raise ValueError(f"{len(preds)} prediction lists vs {len(labels)} labels")
    for i, p in enumerate(preds):
        if len(set(p)) != len(p):
            raise ValueError(f"prediction {i} repeats a class: {p}")


def topk_recall(preds, labels, class_idx: int):
    """Recall restricted to cases labeled class_idx; None when there are none."""
    _check_predictions(preds, labels)
    n_k = 0
    hits = 0
    for p, label in zip(preds, labels):
        if label != class_idx:
            continue
        n_k += 1
        if label in p:
            hits += 1
    if n_k == 0:
        return None
    return hits / n_k


def topk_accuracy(preds, labels) -> float:
    _check_predictions(preds, labels)
    if len(labels) == 0:
        raise ValueError("top-k accuracy of an empty set is undefined")
    return sum(1 for p, label in zip(preds, labels) if label in p) / len(labels)


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

    def recall_of(self, class_name: str):
        return self.per_class_recall[self.class_names.index(class_name)]


def compute_report(preds, labels, k: int, class_names=CLASS_NAMES) -> EvalReport:
    """Aggregate predictions into an EvalReport (identity-checked).

    One pass counts each class's cases and top-k hits; recall and
    accuracy are the same fractions topk_recall and topk_accuracy give.
    """
    _check_predictions(preds, labels)
    if len(labels) == 0:
        raise ValueError("cannot build a report from an empty set")
    n_k = [0] * len(class_names)
    hits = [0] * len(class_names)
    for p, label in zip(preds, labels):
        label = int(label)
        n_k[label] += 1
        hits[label] += label in p
    return EvalReport(
        k=k,
        n=len(labels),
        class_names=tuple(class_names),
        n_k=n_k,
        per_class_recall=[h / nk if nk else None for h, nk in zip(hits, n_k)],
        accuracy=sum(hits) / len(labels),
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

    A ValueError starting ``name: `` names a tabular width, or texts and
    groups that do not give each row an entry, ``max_seq_len`` by
    ``embed_dim``. A row whose entry is all padding raises AllMaskedError
    naming the first such example in row order.
    """
    cfg = model.config
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


def predict_all(model: FusionModel, data: PreparedDataset, k: int) -> list[list[int]]:
    """Top-k class indices of every example in ``data``, in row order,
    after ``check_inputs`` of ``data``.

    The text branch runs once per entry of ``data.texts``, keeping no
    backward cache, in ``chunk_bounds`` chunks in a stable sort by live
    length (``layers.live_lengths``: 1 + an entry's last position whose
    mask entry is true or whose vector is non-zero). Each chunk's encoder
    then runs only to its longest entry, its backward direction starting
    from the state the trailing zero-input steps reach
    (``BiLstmEncoder.padding_states``, computed once per call). A lone
    entry among several rows is encoded twice, as no chunk may hold one
    row. Then the rows are scored in ``chunk_bounds`` chunks in row order,
    each with its entry's text features, so its probabilities are
    bit-identical to those of the untrimmed forward of the row itself.
    """
    check_inputs(model, data, "data")
    encoded = None
    if model.uses_text:
        texts = data.texts
        order = np.argsort(live_lengths(texts.vectors, texts.mask), kind="stable")
        if len(order) == 1 < len(data):
            order = np.repeat(order, 2)
        padding = model.encoder.padding_states(texts.mask.shape[-1], len(order))
        encoded = np.empty((len(texts.mask), model.encoder.out_dim))
        for bounds in chunk_bounds(len(order)):
            entries = order[slice(*bounds)]
            encoded[entries] = encode_text(model, texts[entries], keep=False,
                                           padding=padding)[0]

    def score(bounds: tuple[int, int]) -> list[list[int]]:
        # A variant without the tabular branches ignores num and cat.
        rows = slice(*bounds)
        return forward(model, data.num[rows], data.cat[rows], None, k=k, keep=False,
                       text=None if encoded is None else encoded[data.groups[rows]])[0].top_k

    return [top for chunk in ordered_map(score, chunk_bounds(len(data))) for top in chunk]


def report(model: FusionModel, prepared: PreparedDataset, k: int = 3,
           class_names=CLASS_NAMES) -> EvalReport:
    """Predict every example (see predict_all) and aggregate."""
    return compute_report(predict_all(model, prepared, k), prepared.labels, k, class_names)


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
