"""Dataset schema, JSONL IO, feature pipeline, and stratified splitting.

An example couples four things: free-text inquiry content, a fixed-width
vector of numerical activity signals, named categorical features, and a
label from the 13-topic vocabulary. The wire format is JSON-lines with
exactly the fields id/text/numerical/categorical/label.

The feature pipeline (standardization + one-hot encoding) is fitted on
the training split only; the API takes nothing else, so leakage is
impossible by construction. Unseen categories at transform time encode
as an all-zero block rather than an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddedSequence, EmbeddingTable, embed_batch
from .numcore import Rng
from .textprep import normalize, tokenize

# The 13 inquiry topics, in the fixed order that defines class indices
# ("Other" last). Synthetic data reuses these names so reports read like
# the production ones.
CLASS_NAMES = (
    "Cost Explanation",
    "Decline Follow Up",
    "Early Payoff",
    "Edit Offer if Already Accepted",
    "Funds ETA",
    "How to Enroll",
    "Increase Options",
    "Minimum Repayment Requirement",
    "Not Eligible for Renewal",
    "Renewal Eligibility",
    "No Credit Check",
    "Plan Completed",
    "Other",
)
CLASS_INDEX = {name: i for i, name in enumerate(CLASS_NAMES)}
NUM_CLASSES = len(CLASS_NAMES)


class DatasetError(ValueError):
    pass


@dataclass
class Example:
    id: str
    text: str
    numerical: list[float]
    categorical: list[tuple[str, str]]
    label: str

    @property
    def label_index(self) -> int:
        return CLASS_INDEX[self.label]


# The least integer that float() overflows on; every finite float is smaller.
_FLOAT_OVERFLOW = 2**1024 - 2**970
# The largest magnitude a numerical feature may have. Below it the sum of
# squares that FeatureScaler.fit computes stays finite for up to 1e8 rows:
# it is at most rows * MAX_FEATURE_MAGNITUDE**2 = rows * 1e300.
MAX_FEATURE_MAGNITUDE = 1e150
# What a pipeline's statistics must keep, and every fitted one does: the
# mean and std of values within MAX_FEATURE_MAGNITUDE lie within twice it
# (rounding included), and a std below MIN_STD counts as constant. A
# standardized value then stays below 3 * MAX_FEATURE_MAGNITUDE**2 = 3e300.
MAX_STATISTIC = 2 * MAX_FEATURE_MAGNITUDE
MIN_STD = 1 / MAX_FEATURE_MAGNITUDE


def is_finite_number(v) -> bool:
    """True for an int or float, not a bool, that converts to a finite float."""
    return (not isinstance(v, bool) and isinstance(v, (int, float))
            and -_FLOAT_OVERFLOW < v < _FLOAT_OVERFLOW)


def parse_features(record) -> tuple[list[float], list[tuple[str, str]]]:
    """The validated ``numerical`` and ``categorical`` fields of a record.

    ``numerical`` must be a list of finite numbers of magnitude at most
    MAX_FEATURE_MAGNITUDE and ``categorical`` a list of [name, value]
    string pairs; a DatasetError names the field.
    """
    if not isinstance(record, dict):
        raise DatasetError("expected a JSON object")
    for key in ("numerical", "categorical"):
        if key not in record:
            raise DatasetError(f"missing field {key!r}")
    numerical = record["numerical"]
    if not isinstance(numerical, list):
        raise DatasetError("numerical must be a list")
    low, high = -MAX_FEATURE_MAGNITUDE, MAX_FEATURE_MAGNITUDE
    for v in numerical:
        # A JSON number is exactly an int or a float; NaN fails every comparison.
        if not ((type(v) is float or type(v) is int) and low <= v <= high):
            if is_finite_number(v):
                raise DatasetError(f"numerical entry {v!r} exceeds {high:g} in magnitude")
            raise DatasetError(f"numerical entry {v!r} is not a finite number")
    categorical = record["categorical"]
    if not isinstance(categorical, list):
        raise DatasetError("categorical must be a list of [name, value] pairs")
    for item in categorical:
        if not (isinstance(item, (list, tuple)) and len(item) == 2
                and isinstance(item[0], str) and isinstance(item[1], str)):
            raise DatasetError(f"categorical entry {item!r} is not a [name, value] string pair")
    return [float(v) for v in numerical], [(name, value) for name, value in categorical]


def _validate_record(record, lineno: int) -> Example:
    def fail(msg):
        raise DatasetError(f"line {lineno}: {msg}")

    try:
        numerical, categorical = parse_features(record)
    except DatasetError as err:
        fail(str(err))
    for key in ("id", "text", "label"):
        if key not in record:
            fail(f"missing field {key!r}")
    if not isinstance(record["id"], str) or not isinstance(record["text"], str):
        fail("id and text must be strings")
    if not isinstance(record["label"], str):
        fail("label must be a string")
    if record["label"] not in CLASS_INDEX:
        fail(f"unknown label {record['label']!r}")
    return Example(id=record["id"], text=record["text"], numerical=numerical,
                   categorical=categorical, label=record["label"])


def load_jsonl(path) -> list[Example]:
    """Load and validate a dataset; errors name the offending line."""
    examples: list[Example] = []
    width = None
    # Undecodable bytes become lone surrogates, which re-encoding finds line by line.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DatasetError(f"line {lineno}: not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetError(f"line {lineno}: invalid JSON ({err.msg})")
            except ValueError as err:  # an integer with more digits than int() converts
                raise DatasetError(f"line {lineno}: {err}") from None
            ex = _validate_record(record, lineno)
            if width is None:
                width = len(ex.numerical)
            elif len(ex.numerical) != width:
                raise DatasetError(
                    f"line {lineno}: numerical length {len(ex.numerical)} != {width}"
                )
            examples.append(ex)
    return examples


def save_jsonl(examples: list[Example], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            record = {
                "id": ex.id,
                "text": ex.text,
                "numerical": ex.numerical,
                "categorical": [list(pair) for pair in ex.categorical],
                "label": ex.label,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


class FeatureScaler:
    """Per-feature standardization; constant features scale to zero.

    A feature counts as constant when its std is below MIN_STD: dividing
    by less would scale values within MAX_FEATURE_MAGNITUDE past 1e300.
    """

    def __init__(self, mean: np.ndarray, std: np.ndarray, constant: np.ndarray):
        self.mean = mean
        self.std = std
        self.constant = constant

    @classmethod
    def fit(cls, train_matrix: np.ndarray) -> "FeatureScaler":
        if train_matrix.shape[0] == 0:
            raise DatasetError("cannot fit a scaler on zero rows")
        mean = train_matrix.mean(axis=0)
        std = train_matrix.std(axis=0)
        constant = std < MIN_STD
        safe_std = np.where(constant, 1.0, std)
        return cls(mean, safe_std, constant)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        out = (matrix - self.mean) / self.std
        out[:, self.constant] = 0.0
        return out


class OneHotEncoder:
    """Per-feature category -> column maps, in first-seen train order."""

    def __init__(self, features: list[tuple[str, list[str]]]):
        self.features = features
        # (name, {category: column}) per feature; columns count across blocks.
        self._columns = []
        offset = 0
        for name, cats in features:
            self._columns.append((name, {cat: offset + i for i, cat in enumerate(cats)}))
            offset += len(cats)
        self.dim = offset

    @classmethod
    def fit(cls, train_examples: list[Example]) -> "OneHotEncoder":
        names: list[str] = []
        cats: dict[str, list[str]] = {}
        for ex in train_examples:
            for name, value in ex.categorical:
                if name not in cats:
                    names.append(name)
                    cats[name] = []
                if value not in cats[name]:
                    cats[name].append(value)
        return cls([(name, cats[name]) for name in names])

    def transform(self, rows: list[list[tuple[str, str]]]) -> np.ndarray:
        """One one-hot row per list of (name, value) pairs, set in one scatter."""
        hot_rows, hot_cols = [], []
        for i, pairs in enumerate(rows):
            values = dict(pairs)
            for name, columns in self._columns:
                col = columns.get(values.get(name))
                if col is not None:  # an unseen category leaves the block zero
                    hot_rows.append(i)
                    hot_cols.append(col)
        out = np.zeros((len(rows), self.dim))
        out[hot_rows, hot_cols] = 1.0
        return out


@dataclass
class FeaturePipeline:
    """Fitted scaler + encoder; serializable so inference can reuse them."""

    scaler: FeatureScaler
    encoder: OneHotEncoder

    @classmethod
    def fit(cls, train_examples: list[Example]) -> "FeaturePipeline":
        if not train_examples:
            raise DatasetError("cannot fit the feature pipeline on an empty train split")
        matrix = np.array([ex.numerical for ex in train_examples], dtype=np.float64)
        return cls(scaler=FeatureScaler.fit(matrix), encoder=OneHotEncoder.fit(train_examples))

    @property
    def num_dim(self) -> int:
        return self.scaler.mean.shape[0]

    @property
    def cat_dim(self) -> int:
        return self.encoder.dim

    def transform(self, examples: list[Example]) -> tuple[np.ndarray, np.ndarray]:
        """(standardized numerical, one-hot categorical) rows; a DatasetError names
        the first example whose numerical width is not the pipeline's."""
        for ex in examples:
            if len(ex.numerical) != self.num_dim:
                raise DatasetError(f"example {ex.id!r}: {len(ex.numerical)} numerical values, "
                                   f"the feature pipeline takes {self.num_dim}")
        num = np.array([ex.numerical for ex in examples], dtype=np.float64)
        num = num.reshape(len(examples), self.num_dim)
        return (self.scaler.transform(num),
                self.encoder.transform([ex.categorical for ex in examples]))

    def to_json(self) -> dict:
        return {
            "version": 1,
            "numerical_mean": self.scaler.mean.tolist(),
            "numerical_std": self.scaler.std.tolist(),
            "numerical_constant": self.scaler.constant.tolist(),
            "categorical": [
                {"name": name, "categories": cats} for name, cats in self.encoder.features
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "FeaturePipeline":
        """Inverse of to_json; a DatasetError names a missing or mistyped field."""
        if not isinstance(doc, dict):
            raise DatasetError("expected a JSON object")
        if doc.get("version") != 1:
            raise DatasetError(f"unsupported pipeline version {doc.get('version')!r}")

        def list_field(key, ok, what):
            if key not in doc:
                raise DatasetError(f"missing field {key!r}")
            if not isinstance(doc[key], list) or not all(ok(v) for v in doc[key]):
                raise DatasetError(f"field {key!r} must be a list of {what}")
            return doc[key]

        mean = list_field("numerical_mean",
                          lambda v: is_finite_number(v) and abs(v) <= MAX_STATISTIC,
                          f"numbers of magnitude at most {MAX_STATISTIC:g}")
        std = list_field("numerical_std",
                         lambda v: is_finite_number(v) and MIN_STD <= v <= MAX_STATISTIC,
                         f"numbers in [{MIN_STD:g}, {MAX_STATISTIC:g}]")
        constant = list_field("numerical_constant", lambda v: isinstance(v, bool), "booleans")
        if not len(mean) == len(std) == len(constant):
            raise DatasetError("fields 'numerical_mean', 'numerical_std' and "
                               "'numerical_constant' differ in length")
        features = list_field(
            "categorical",
            lambda f: isinstance(f, dict) and isinstance(f.get("name"), str)
            and isinstance(f.get("categories"), list)
            and all(isinstance(c, str) for c in f["categories"]),
            '{"name": string, "categories": [string, ...]} objects')
        scaler = FeatureScaler(np.array(mean, dtype=np.float64), np.array(std, dtype=np.float64),
                               np.array(constant, dtype=bool))
        encoder = OneHotEncoder([(f["name"], list(f["categories"])) for f in features])
        return cls(scaler=scaler, encoder=encoder)


def split(examples: list[Example], fractions=(0.6, 0.2, 0.2), seed: int = 0):
    """Stratified split; deterministic, disjoint, exhaustive."""
    if any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise DatasetError(f"fractions must be positive and sum to 1, got {fractions}")
    by_label: dict[str, list[Example]] = {}
    for ex in examples:
        by_label.setdefault(ex.label, []).append(ex)
    rng = Rng(seed)
    parts: list[list[Example]] = [[] for _ in fractions]
    for label in sorted(by_label):
        group = by_label[label]
        if len(group) < len(fractions):
            raise DatasetError(
                f"class {label!r} has {len(group)} examples, fewer than {len(fractions)} splits"
            )
        order = rng.permutation(len(group))
        cuts = [int(np.floor(len(group) * sum(fractions[: i + 1]))) for i in range(len(fractions))]
        cuts[-1] = len(group)
        start = 0
        for part, stop in zip(parts, cuts):
            part.extend(group[i] for i in order[start:stop])
            start = stop
    return tuple(parts)


@dataclass
class PreparedDataset:
    """Model-ready view of a split: feature matrices plus embedded text.

    ``texts`` holds G sequences as one (G, max_seq_len, d) array with a
    (G, max_seq_len) mask, or is None when no embedding table was given;
    ``prepare`` stores each distinct sequence once. ``groups`` gives each
    row's entry of ``texts``, and is set exactly when ``texts`` is.
    ``texts.oov_count`` counts the OOV positions of every row, each entry's
    as often as rows use it.
    """

    ids: list[str]
    labels: np.ndarray  # (n,) int class indices
    num: np.ndarray  # (n, num_dim) standardized
    cat: np.ndarray  # (n, cat_dim) one-hot blocks
    texts: EmbeddedSequence | None = None
    groups: np.ndarray | None = None  # (n,) int, each row's entry of texts

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def oov_total(self) -> int:
        return self.texts.oov_count if self.texts is not None else 0

    @property
    def seqs(self) -> EmbeddedSequence | None:
        """Every row's sequence, (n, max_seq_len, d), gathered from ``texts`` on each read."""
        return None if self.texts is None else self.texts[self.groups]

    def inputs(self, model, rows) -> tuple:
        """``(num, cat, seq)`` of the examples ``rows`` selects.

        A slice or an index array gives the batch ``model.forward`` takes
        (its sequences are the batch ``model.encode_text`` takes), one index
        the single example ``model.predict_topk`` takes. A branch ``model``
        does not use gets None.
        """
        tabular = model.uses_tabular
        return (self.num[rows] if tabular else None, self.cat[rows] if tabular else None,
                self.texts[self.groups[rows]] if model.uses_text else None)


def prepare(examples: list[Example], pipeline: FeaturePipeline,
            table: EmbeddingTable | None, max_seq_len: int) -> PreparedDataset:
    """Normalize/tokenize/embed text and transform features for one split.

    ``table`` may be None for tabular-only experiments; texts and groups
    are then None. Each distinct text is normalized and tokenized once.
    Rows whose (truncated) token lists are equal share one entry of
    ``texts``, numbered in first-seen order, and ``embed_batch`` embeds
    each entry once.
    """
    num, cat = pipeline.transform(examples)
    labels = np.array([ex.label_index for ex in examples], dtype=np.int64)
    texts = groups = None
    if table is not None:
        entry_of: dict[str, int] = {}  # raw text -> its entry
        token_lists: dict[tuple[str, ...], int] = {}  # token list -> its entry
        for ex in examples:
            if ex.text not in entry_of:
                tokens = tuple(tokenize(normalize(ex.text), max_seq_len).tokens)
                entry_of[ex.text] = token_lists.setdefault(tokens, len(token_lists))
        groups = np.array([entry_of[ex.text] for ex in examples], dtype=np.intp)
        texts = embed_batch(table, list(token_lists), max_seq_len,
                            repeats=np.bincount(groups, minlength=len(token_lists)))
    return PreparedDataset(ids=[ex.id for ex in examples], labels=labels, num=num, cat=cat,
                           texts=texts, groups=groups)
