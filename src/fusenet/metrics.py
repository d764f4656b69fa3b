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

from .dataset import CLASS_NAMES, PreparedDataset, is_finite_number
from .model import FusionModel, forward
from .parallel import ordered_map

REPORT_VERSION = 1
SCORE_CHUNK = 32  # rows per batched forward when scoring a dataset


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
    """Aggregate predictions into an EvalReport (identity-checked)."""
    _check_predictions(preds, labels)
    if len(labels) == 0:
        raise ValueError("cannot build a report from an empty set")
    labels = [int(label) for label in labels]
    n_k = [0] * len(class_names)
    for label in labels:
        n_k[label] += 1
    per_class = [
        topk_recall(preds, labels, idx) if n_k[idx] else None
        for idx in range(len(class_names))
    ]
    return EvalReport(
        k=k,
        n=len(labels),
        class_names=tuple(class_names),
        n_k=n_k,
        per_class_recall=per_class,
        accuracy=topk_accuracy(preds, labels),
    )


def predict_all(model: FusionModel, data: PreparedDataset, k: int) -> list[list[int]]:
    """Top-k class indices of every example in ``data``, in order.

    Scores SCORE_CHUNK rows per forward. A row whose text is all padding
    raises AllMaskedError naming that example.
    """

    def score(start: int) -> list[list[int]]:
        rows = slice(start, start + SCORE_CHUNK)
        num, cat, seq = data.inputs(model, rows)
        return forward(model, num, cat, seq, k=k, example_id=data.ids[rows])[0].top_k

    chunks = ordered_map(score, range(0, len(data), SCORE_CHUNK))
    return [top for chunk in chunks for top in chunk]


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
