"""Top-k metrics and per-class reporting.

Top-k recall for a class is the fraction of that class's cases whose
true label appears in the k predicted classes; top-k accuracy is the
same fraction over all cases. Both reduce to the same indicator sum, so
every report asserts the identity accuracy == sum_k (n_k/n) * recall_k.

A class absent from the evaluation set has UNDEFINED recall, surfaced as
None (JSON null) rather than silently zeroed: a fake zero would corrupt
the weighted identity.

``predict_all`` checks a dataset and scores it by ``model.score_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_NAMES, PreparedDataset, is_finite_number
from .layers import AllMaskedError
from .model import NON_FINITE_PROBS, FusionModel, score_rows

REPORT_VERSION = 1


class ReportError(ValueError):
    """An inconsistent report, or report JSON with a missing or mistyped field."""


def true_class_ranks(probs: np.ndarray, labels) -> np.ndarray:
    """Each row's true-class position in ``model.topk_indices``' ranking of
    finite (n, C) ``probs``: the classes with a higher probability plus the
    equal ones with a lower index. A label is in the top k iff its rank < k."""
    labels = np.asarray(labels)
    true = np.take_along_axis(probs, labels[:, None], axis=1)
    before = np.arange(probs.shape[1]) < labels[:, None]
    return np.count_nonzero((probs > true) | (before & (probs == true)), axis=1)


def topk_accuracy(ranks, k: int) -> float:
    """The fraction of cases whose true-class rank is below ``k``."""
    if len(ranks) == 0:
        raise ValueError("top-k accuracy of an empty set is undefined")
    return int(np.count_nonzero(np.asarray(ranks) < k)) / len(ranks)


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


def compute_report(ranks, labels, k: int, class_names=CLASS_NAMES) -> EvalReport:
    """Aggregate true-class ranks (``true_class_ranks``) into an EvalReport
    (identity-checked). A rank below ``k`` is a hit. Two counts per class,
    its cases and its hits, give its recall (None when it has no cases) and
    the accuracy, the fraction topk_accuracy gives. A ``k`` outside [1, C],
    or a label or rank outside [0, C), is a ValueError naming its row; C is
    ``len(class_names)``."""
    ranks, labels = np.asarray(ranks), np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("cannot build a report from an empty set")
    classes = len(class_names)
    if not 1 <= k <= classes:
        raise ValueError(f"k must be in [1, {classes}], got {k}")
    if ranks.shape != labels.shape:  # a (n, 1) column would broadcast into a wrong count
        raise ValueError(f"ranks {ranks.shape} vs labels {labels.shape}: "
                         "expected one rank per label")
    for what, values in (("label", labels), ("rank", ranks)):
        bad = np.flatnonzero((values < 0) | (values >= classes))
        if len(bad):
            raise ValueError(f"{what} {values[bad[0]]} of row {bad[0]} is not in [0, {classes})")
    n_k = np.bincount(labels, minlength=classes).tolist()
    hit_k = np.bincount(labels[ranks < k], minlength=classes).tolist()
    return EvalReport(
        k=k,
        n=len(labels),
        class_names=tuple(class_names),
        n_k=n_k,
        per_class_recall=[h / nk if nk else None for h, nk in zip(hit_k, n_k)],
        accuracy=sum(hit_k) / len(labels),
    )


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


def predict_all(model: FusionModel, data: PreparedDataset) -> np.ndarray:
    """The (n, num_classes) probabilities of every example in ``data``, in
    row order: ``model.score_rows`` of its rows, after ``check_inputs`` of
    ``data``. A row whose probabilities are not all finite is a ValueError
    naming its example.
    """
    check_inputs(model, data, "data")
    probs = score_rows(model, data.num, data.cat, data.texts, data.groups)
    if not np.isfinite(probs).all():
        bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))[0]
        raise ValueError(f"example {data.ids[bad]}: {NON_FINITE_PROBS}")
    return probs


def report(model: FusionModel, prepared: PreparedDataset, k: int = 3,
           class_names=CLASS_NAMES) -> EvalReport:
    """Predict every example (see predict_all), rank each row's true class
    (``true_class_ranks``) and count its top-``k`` hits (``compute_report``)."""
    ranks = true_class_ranks(predict_all(model, prepared), prepared.labels)
    return compute_report(ranks, prepared.labels, k, class_names)


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
