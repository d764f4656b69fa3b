import json

import numpy as np
import pytest

from fusenet.dataset import (CLASS_NAMES, MAX_FEATURE_MAGNITUDE, DatasetError, Example,
                             FeaturePipeline, FeatureScaler, OneHotEncoder, load_jsonl, prepare,
                             save_jsonl, split)
from fusenet.embeddings import random_table
from fusenet.numcore import Rng


def make_example(i, label="Other", numerical=None, cats=None, text="hello loan"):
    salt = float(sum(ord(ch) for ch in str(i)) % 97)
    return Example(
        id=f"ex-{i}",
        text=text,
        numerical=numerical if numerical is not None else [salt, -1.0],
        categorical=cats if cats is not None else [("state", "a" if salt % 2 else "b")],
        label=label,
    )


class TestJsonl:
    def test_valid_three_line_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_jsonl([make_example(i) for i in range(3)], path)
        loaded = load_jsonl(path)
        assert len(loaded) == 3

    def test_round_trip_preserves_every_field(self, tmp_path):
        originals = [
            make_example(0, label="Funds ETA", text="café $5 a@b.co"),
            make_example(1, label="Other", numerical=[0.25, 1e-9],
                         cats=[("x", "y"), ("k", "v")]),
        ]
        path = tmp_path / "rt.jsonl"
        save_jsonl(originals, path)
        assert load_jsonl(path) == originals

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        records = [make_example(0), make_example(1)]
        save_jsonl(records, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["label"] = "Bogus"
        lines[1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize("label", [["Other"], {"name": "Other"}, 3, None],
                             ids=["list", "object", "number", "null"])
    def test_label_that_is_not_a_string_names_line(self, tmp_path, label):
        path = tmp_path / "bad.jsonl"
        save_jsonl([make_example(0), make_example(1)], path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["label"] = label
        lines[1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="^line 2: label must be a string$"):
            load_jsonl(path)

    @pytest.mark.parametrize("value", [True, False, None, "1.5", [1.0], float("nan"),
                                       float("inf"), -float("inf"), 10**400, -(2**1024 - 2**970)],
                             ids=["true", "false", "null", "string", "list", "nan", "inf",
                                  "-inf", "huge-int", "least-overflowing-int"])
    def test_numerical_entry_that_is_not_a_finite_number_names_line(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        save_jsonl([make_example(0), make_example(1)], path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["numerical"][1] = value
        lines[1] = json.dumps(doc)  # writes NaN and Infinity as bare tokens
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="^line 2: numerical entry .* not a finite number$"):
            load_jsonl(path)

    def test_largest_accepted_magnitude_loads(self, tmp_path):
        path = tmp_path / "big.jsonl"
        bound = MAX_FEATURE_MAGNITUDE
        save_jsonl([make_example(0, numerical=[bound, -int(bound)])], path)
        assert load_jsonl(path)[0].numerical == [bound, -bound]

    @pytest.mark.parametrize("value", [int(MAX_FEATURE_MAGNITUDE) + 1, -1e151, 10**300,
                                       2**1024 - 2**970 - 1],
                             ids=["least-int-above", "float", "10**300", "largest-finite-int"])
    def test_numerical_entry_above_the_bound_names_line(self, tmp_path, value):
        path = tmp_path / "big.jsonl"
        save_jsonl([make_example(0), make_example(1, numerical=[0.5, value])], path)
        with pytest.raises(DatasetError, match=r"^line 2: numerical entry .* exceeds 1e\+150 "
                                               r"in magnitude$"):
            load_jsonl(path)

    def test_line_that_is_not_an_object_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_jsonl([make_example(0)], path)
        path.write_text(path.read_text() + "5\n")
        with pytest.raises(DatasetError, match="line 2: expected a JSON object"):
            load_jsonl(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "t", "numerical": [], "label": "Other"}\n')
        with pytest.raises(DatasetError, match="categorical"):
            load_jsonl(path)

    def test_non_numeric_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "text": "t", "numerical": [1, "x"], "categorical": [], "label": "Other"}\n'
        )
        with pytest.raises(DatasetError, match="line 1"):
            load_jsonl(path)

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_jsonl([make_example(0, numerical=[1.0]), make_example(1, numerical=[1.0, 2.0])], path)
        with pytest.raises(DatasetError, match="line 2"):
            load_jsonl(path)


class TestScaler:
    def test_two_point_standardization(self):
        scaler = FeatureScaler.fit(np.array([[1.0], [3.0]]))
        out = scaler.transform(np.array([[1.0], [3.0]]))
        assert np.array_equal(out, [[-1.0], [1.0]])

    def test_train_columns_standardized(self):
        rng = Rng(2)
        train = rng.normal((200, 6)) * 3 + 1
        scaler = FeatureScaler.fit(train)
        scaled = scaler.transform(train)
        assert np.max(np.abs(scaled.mean(axis=0))) < 1e-10
        assert np.max(np.abs(scaled.std(axis=0) - 1.0)) < 1e-10

    def test_constant_feature_scales_to_zero(self):
        train = np.array([[2.0, 1.0], [2.0, 3.0]])
        scaler = FeatureScaler.fit(train)
        out = scaler.transform(np.array([[2.0, 2.0], [99.0, 2.0]]))
        assert out[0, 0] == 0.0 and out[1, 0] == 0.0

    def test_a_spread_below_min_std_counts_as_constant(self):
        # Dividing by a smaller std would scale MAX_FEATURE_MAGNITUDE past 1e300.
        train = np.array([[1e-160, 1e-140], [3e-160, 3e-140]])
        scaler = FeatureScaler.fit(train)
        assert scaler.constant.tolist() == [True, False] and scaler.std[0] == 1.0
        out = scaler.transform(np.array([[MAX_FEATURE_MAGNITUDE, 2e-140]]))
        assert out.tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize("values", [[-1.0, 1.0], [1.0, 1.0]], ids=["mixed", "positive"])
    def test_statistics_at_the_value_bound_load(self, values):
        train = [make_example(i, numerical=[v * MAX_FEATURE_MAGNITUDE, 0.0])
                 for i, v in enumerate(values * 3)]
        doc = json.loads(json.dumps(FeaturePipeline.fit(train).to_json()))
        assert FeaturePipeline.from_json(doc).scaler.mean.tolist() == doc["numerical_mean"]


class TestOneHot:
    def test_unseen_category_is_zero_block(self):
        enc = OneHotEncoder.fit([make_example(0, cats=[("state", "a")]),
                                 make_example(1, cats=[("state", "b")])])
        assert enc.dim == 2
        assert np.array_equal(enc.transform([[("state", "zzz")]])[0], [0.0, 0.0])

    def test_known_categories_one_hot(self):
        enc = OneHotEncoder.fit([
            make_example(0, cats=[("state", "a"), ("size", "s")]),
            make_example(1, cats=[("state", "b"), ("size", "m")]),
        ])
        vec = enc.transform([[("state", "b"), ("size", "s")]])[0]
        assert vec.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_pipeline_fit_on_train_transforms_another_split(self):
        train = [make_example(i) for i in range(4)]
        test = [make_example(10, cats=[("state", "never-seen")])]
        pipeline = FeaturePipeline.fit(train)
        num_tr, cat_tr = pipeline.transform(train)
        num_te, cat_te = pipeline.transform(test)
        assert num_tr.shape == (4, 2) and cat_tr.shape == (4, 2)
        assert num_te.shape == (1, 2) and cat_te.shape == (1, 2)
        assert not cat_te.any()

    def test_pipeline_transform_names_an_example_of_another_width(self):
        pipeline = FeaturePipeline.fit([make_example(i) for i in range(4)])
        rows = [make_example(5), make_example(6, numerical=[1.0, 2.0, 3.0])]
        with pytest.raises(DatasetError, match="^example 'ex-6': 3 numerical values, "
                                               "the feature pipeline takes 2$"):
            pipeline.transform(rows)

    def test_pipeline_without_numerical_features_keeps_every_row(self):
        train = [make_example(i, numerical=[]) for i in range(4)]
        num, cat = FeaturePipeline.fit(train).transform(train)
        assert num.shape == (4, 0) and cat.shape == (4, 2)

    def test_pipeline_json_round_trip(self):
        train = [make_example(i) for i in range(4)]
        pipeline = FeaturePipeline.fit(train)
        clone = FeaturePipeline.from_json(json.loads(json.dumps(pipeline.to_json())))
        num_a, cat_a = pipeline.transform(train)
        num_b, cat_b = clone.transform(train)
        assert np.array_equal(num_a, num_b) and np.array_equal(cat_a, cat_b)

    @pytest.mark.parametrize("field, value", [
        ("numerical_std", None), ("numerical_mean", None), ("numerical_constant", None),
        ("categorical", None), ("numerical_std", [1.0, 0.0]), ("numerical_mean", "0"),
        ("numerical_constant", [0, 1]), ("categorical", [{"name": "state"}]),
        ("numerical_mean", [0.0, 2.1e150]), ("numerical_std", [1.0, 9e-151]),
        ("numerical_std", [2.1e150, 1.0]),
    ], ids=["no-std", "no-mean", "no-constant", "no-categorical", "zero-std", "string-mean",
            "int-constant", "entry-without-categories", "mean-above-bound",
            "std-below-bound", "std-above-bound"])
    def test_pipeline_json_missing_or_mistyped_field_named(self, field, value):
        doc = FeaturePipeline.fit([make_example(i) for i in range(4)]).to_json()
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(DatasetError, match=f"'{field}'"):
            FeaturePipeline.from_json(doc)

    def test_pipeline_json_field_lengths_must_agree(self):
        doc = FeaturePipeline.fit([make_example(i) for i in range(4)]).to_json()
        doc["numerical_std"] = doc["numerical_std"][:1]
        with pytest.raises(DatasetError, match="differ in length"):
            FeaturePipeline.from_json(doc)

    def test_empty_train_rejected(self):
        with pytest.raises(DatasetError):
            FeaturePipeline.fit([])


def dataset_10_per_class():
    out = []
    for label in CLASS_NAMES:
        for i in range(10):
            out.append(make_example(f"{label}-{i}", label=label))
    return out


class TestSplit:
    def test_130_examples_split_arithmetic(self):
        train, val, test = split(dataset_10_per_class(), (0.6, 0.2, 0.2), seed=0)
        assert (len(train), len(val), len(test)) == (78, 26, 26)
        for part, expect in ((train, 6), (val, 2), (test, 2)):
            for label in CLASS_NAMES:
                assert sum(1 for ex in part if ex.label == label) == expect

    def test_deterministic(self):
        a = split(dataset_10_per_class(), seed=5)
        b = split(dataset_10_per_class(), seed=5)
        assert [[e.id for e in part] for part in a] == [[e.id for e in part] for part in b]

    def test_partition(self):
        data = dataset_10_per_class()
        train, val, test = split(data, seed=1)
        ids = [ex.id for part in (train, val, test) for ex in part]
        assert sorted(ids) == sorted(ex.id for ex in data)
        assert len(set(ids)) == len(ids)

    def test_too_small_class_rejected(self):
        data = dataset_10_per_class()[:-9]  # leaves one "Other" example
        with pytest.raises(DatasetError, match="Other"):
            split(data, seed=0)

    def test_bad_fractions(self):
        with pytest.raises(DatasetError):
            split(dataset_10_per_class(), (0.5, 0.2, 0.2), seed=0)


class TestPrepare:
    def test_prepared_shapes_and_oov(self):
        examples = [make_example(i, text="hello loan fee") for i in range(6)]
        pipeline = FeaturePipeline.fit(examples)
        table = random_table(["hello", "loan"], 4, seed=0)
        prep = prepare(examples, pipeline, table, max_seq_len=5)
        assert prep.num.shape == (6, 2)
        assert prep.seqs.vectors.shape == (6, 5, 4)
        assert prep.seqs.mask.shape == (6, 5)
        assert prep.seqs.mask[:, :3].all() and not prep.seqs.mask[:, 3:].any()
        # One row, in one-example shapes.
        row = prep.seqs[2]
        assert row.vectors.shape == (5, 4) and row.mask.shape == (5,)
        assert np.array_equal(row.vectors[0], table.matrix[table.vocab["hello"]])
        assert not row.vectors[2].any()  # "fee" is OOV: a zero row under a true mask
        assert prep.oov_total == 6  # "fee" is OOV once per example

    def test_no_table_skips_text(self):
        examples = [make_example(i) for i in range(3)]
        pipeline = FeaturePipeline.fit(examples)
        prep = prepare(examples, pipeline, None, max_seq_len=5)
        assert prep.seqs is None
        assert prep.oov_total == 0
