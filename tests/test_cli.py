import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fusenet import cli, metrics
from fusenet import dataset as ds
from fusenet.dataset import CLASS_NAMES, MAX_FEATURE_MAGNITUDE
from fusenet.model import build_variant, load, save
from fusenet.training import small_check_config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data + embeddings + one trained checkpoint per variant."""
    root = tmp_path_factory.mktemp("cliws")
    data = str(root / "data.jsonl")
    vec = str(root / "emb.vec")
    assert cli.main([
        "synth", "--out", data, "--n", "260", "--noise", "0.0", "--seed", "3",
        "--vec-out", vec, "--vec-dim", "8",
    ]) == 0
    checkpoints = {}
    for variant in ("mlp", "text"):
        out = str(root / f"{variant}.afn")
        assert cli.main([
            "train", "--data", data, "--variant", variant, "--embeddings", vec,
            "--out", out, "--epochs", "2", "--batch-size", "32", "--lr", "3e-3",
            "--seed", "0", "--lstm-hidden", "4", "--mlp-hidden", "8",
            "--max-seq-len", "12",
        ]) == 0
        checkpoints[variant] = out
    return {"root": root, "data": data, "vec": vec, "checkpoints": checkpoints}


class TestSynth:
    def test_writes_dataset_manifest_and_prints_ceilings(self, tmp_path, capsys):
        out = str(tmp_path / "d.jsonl")
        assert cli.main(["synth", "--out", out, "--n", "130", "--noise", "0.1",
                         "--seed", "1"]) == 0
        captured = capsys.readouterr().out
        assert "ceilings" in captured
        assert (tmp_path / "d.jsonl").exists()
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["n"] == 130
        assert "fusion_top1" in manifest["ceilings"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        args = ["--n", "130", "--noise", "0.05", "--seed", "5"]
        assert cli.main(["synth", "--out", a] + args) == 0
        assert cli.main(["synth", "--out", b] + args) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert ((tmp_path / "a.jsonl.manifest.json").read_bytes()
                == (tmp_path / "b.jsonl.manifest.json").read_bytes())

    def test_noise_out_of_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--out", str(tmp_path / "x"), "--noise", "1.5"])
        assert exc.value.code == 2

    def test_n_too_small_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--out", str(tmp_path / "x"), "--n", "100"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--out", str(tmp_path / "x"), "--bogus", "1"])
        assert exc.value.code == 2

    def test_vec_out_loadable(self, workspace):
        from fusenet.embeddings import load_vec_file
        table = load_vec_file(workspace["vec"])
        assert table.dim == 8
        assert len(table) > 100


class TestTrain:
    def test_writes_checkpoint_report_and_pipeline(self, workspace):
        out = workspace["checkpoints"]["mlp"]
        assert load(out).variant == "mlp"
        report_lines = open(out + ".trainreport.txt").read().splitlines()
        assert report_lines[0].startswith("# epoch")
        pipeline = json.loads(open(out + ".pipeline.json").read())
        assert pipeline["version"] == 1

    def test_prints_best_validation_accuracy(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "m.afn")
        assert cli.main([
            "train", "--data", workspace["data"], "--variant", "mlp",
            "--out", out, "--epochs", "1", "--mlp-hidden", "4",
        ]) == 0
        assert "best validation top-3 accuracy" in capsys.readouterr().out

    def test_bogus_variant_is_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", workspace["data"], "--variant", "bogus",
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_text_variant_requires_embeddings(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", workspace["data"], "--variant", "text",
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_zero_lr_warns_and_leaves_parameters_at_init(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "zero.afn")
        assert cli.main([
            "train", "--data", workspace["data"], "--variant", "mlp",
            "--out", out, "--epochs", "1", "--lr", "0", "--mlp-hidden", "4", "--seed", "9",
        ]) == 0
        assert "warning" in capsys.readouterr().err.lower()

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "nope.jsonl"),
                         "--variant", "mlp", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_label_that_is_a_list_is_one_named_error(self, workspace, tmp_path, capsys):
        lines = open(workspace["data"], encoding="utf-8").read().splitlines()
        doc = json.loads(lines[4])
        doc["label"] = [doc["label"]]
        lines[4] = json.dumps(doc)
        data = tmp_path / "bad.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["train", "--data", str(data), "--variant", "mlp",
                         "--out", str(tmp_path / "x.afn"), "--epochs", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: --data {data}: line 5: label must be a string"]

    def test_text_without_tokens_trains_and_evaluates(self, workspace, tmp_path, capsys):
        # Text that normalizes to no tokens embeds as one OOV position, so
        # attention has somewhere to attend and the run goes on.
        train_ex, val_ex, _ = ds.split(ds.load_jsonl(workspace["data"]), cli.SPLIT_FRACTIONS,
                                       seed=0)
        empty = {train_ex[0].id, val_ex[0].id}
        lines = open(workspace["data"], encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines):
            doc = json.loads(line)
            if doc["id"] in empty:
                doc["text"] = "?! ..."
                lines[i] = json.dumps(doc)
        data = tmp_path / "empty-text.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = str(tmp_path / "t.afn")
        assert cli.main(["train", "--data", str(data), "--variant", "text",
                         "--embeddings", workspace["vec"], "--out", out, "--epochs", "1",
                         "--lstm-hidden", "4", "--max-seq-len", "12"]) == 0
        assert "1 OOV tokens in train, 1 in validation" in capsys.readouterr().out
        report = tmp_path / "t.report.json"
        assert cli.main(["eval", "--model", out, "--data", str(data), "--embeddings",
                         workspace["vec"], "--out", str(report)]) == 0
        assert json.loads(report.read_text())["n"] == len(lines)

    def test_config_file_merged_under_flags(self, workspace, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("epochs=1\nmlp_hidden=4\n")
        out = str(tmp_path / "cfg.afn")
        assert cli.main([
            "train", "--data", workspace["data"], "--variant", "mlp",
            "--out", out, "--config", str(config),
        ]) == 0
        assert load(out).config.mlp_hidden == 4
        out2 = str(tmp_path / "cfg2.afn")
        assert cli.main([
            "train", "--data", workspace["data"], "--variant", "mlp",
            "--out", out2, "--config", str(config), "--mlp-hidden", "6",
        ]) == 0
        assert load(out2).config.mlp_hidden == 6  # explicit flag wins

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_speed=9\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", workspace["data"], "--variant", "mlp",
                      "--out", str(tmp_path / "x"), "--config", str(config)])
        assert exc.value.code == 2

    def assert_config_usage_error(self, workspace, tmp_path, capsys, content, message):
        config = tmp_path / "bad.cfg"
        config.write_bytes(content)
        out = tmp_path / "x.afn"
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", workspace["data"], "--variant", "mlp",
                      "--out", str(out), "--config", str(config)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fusenet train ")
        assert err.splitlines()[-1].endswith(f"error: {config}:{message}")
        assert not out.exists()

    def test_config_key_set_twice_is_usage_error(self, workspace, tmp_path, capsys):
        self.assert_config_usage_error(workspace, tmp_path, capsys,
                                       b"epochs=1\n# comment\nmlp_hidden=4\n epochs = 2\n",
                                       "4: key 'epochs' already set on line 1")

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfee\x00p\x00o\x00c\x00h\x00s\x00=\x001\x00\n\x00", "1: not valid UTF-8"),
        (b"epochs=1\nmlp_hidden=4\xed\xa0\x80\n", "2: not valid UTF-8"),
        (b"epochs=1\n=5\n", "2: empty key"),
        (b"# only a comment\n\n = \n", "3: empty key"),
    ], ids=["utf16-bom", "encoded-surrogate", "empty-key", "blank-key"])
    def test_malformed_config_line_is_usage_error(self, workspace, tmp_path, capsys, content,
                                                  message):
        self.assert_config_usage_error(workspace, tmp_path, capsys, content, message)

    @pytest.mark.parametrize("lr", ["nan", "inf", "1e999"])
    def test_non_finite_lr_is_usage_error_both_ways(self, workspace, tmp_path, capsys, lr):
        config = tmp_path / "lr.cfg"
        config.write_text(f"lr={lr}\n")
        out = tmp_path / "x.afn"
        for argv, names in ((["--lr", lr], "argument --lr: "),
                            (["--config", str(config)], "config key lr: ")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["train", "--data", workspace["data"], "--variant", "mlp",
                          "--out", str(out), *argv])
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"fusenet train: error: {names}must be a finite number >= 0, got {lr}")
            assert not out.exists()

    @pytest.mark.parametrize("variant", ["mlp", "fusion"])
    @pytest.mark.parametrize("field", ["numerical", "categorical"])
    def test_records_without_tabular_features_name_data_and_variant(self, workspace, tmp_path,
                                                                    capsys, variant, field):
        data = tmp_path / "no-features.jsonl"
        data.write_text(rewrite_records(workspace["data"], lambda doc: doc.update({field: []})),
                        encoding="utf-8")
        code = cli.main(["train", "--data", str(data), "--variant", variant, "--embeddings",
                         workspace["vec"], "--out", str(tmp_path / "x.afn"), "--epochs", "1"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --data {data}: the train split has no {field} features, "
            f"which variant {variant!r} needs"]
        assert not (tmp_path / "x.afn").exists()


# A value other than the default, and a bad value, for every knob in the
# three spec tables. A knob added to a table must be added here too.
KNOB_VALUES = {
    ("synth", "n"): ("200", "0"),
    ("synth", "noise"): ("0.1", "1.5"),
    ("synth", "seed"): ("9", "x"),
    ("synth", "num_dim"): ("24", "0"),
    ("synth", "vec_dim"): ("8", "-3"),
    ("synth", "vec_seed"): ("3", "1.5"),
    ("train", "epochs"): ("3", "0"),
    ("train", "batch_size"): ("8", "eight"),
    ("train", "lr"): ("0.01", "-1"),
    ("train", "optimizer"): ("sgd", "adagrad"),
    ("train", "dropout"): ("0.25", "1"),
    ("train", "patience"): ("2", "-1"),
    ("train", "seed"): ("4", "4.5"),
    ("train", "split_seed"): ("6", "abc"),
    ("train", "lstm_hidden"): ("4", "0"),
    ("train", "mlp_hidden"): ("8", "-8"),
    ("train", "max_seq_len"): ("12", "1e3"),
    ("eval", "k"): ("5", "0"),
    ("eval", "split"): ("test", "holdout"),
    ("eval", "split_seed"): ("2", "two"),
}
SPECS = {"synth": cli._SYNTH_SPECS, "train": cli._TRAIN_SPECS, "eval": cli._EVAL_SPECS}
REQUIRED = {
    "synth": ["--out", "x.jsonl"],
    "train": ["--data", "x.jsonl", "--variant", "mlp", "--out", "x.afn"],
    "eval": ["--model", "x.afn", "--data", "x.jsonl"],
}


def parse_knobs(command, argv):
    parser = cli.build_parser()
    args = parser.parse_args([command, *REQUIRED[command], *argv])
    cli._merge_config(parser, args, SPECS[command])
    return args


class TestKnobs:
    def test_every_knob_has_test_values(self):
        assert set(KNOB_VALUES) == {(cmd, dest) for cmd, specs in SPECS.items() for dest in specs}

    @pytest.mark.parametrize("command, dest", sorted(KNOB_VALUES))
    def test_flag_and_config_key_parse_alike(self, tmp_path, command, dest):
        good, _ = KNOB_VALUES[command, dest]
        config = tmp_path / "knob.cfg"
        config.write_text(f"{dest} = {good}\n")
        from_flag = getattr(parse_knobs(command, ["--" + dest.replace("_", "-"), good]), dest)
        from_file = getattr(parse_knobs(command, ["--config", str(config)]), dest)
        assert from_flag == from_file != SPECS[command][dest][1]

    @pytest.mark.parametrize("command, dest", sorted(KNOB_VALUES))
    def test_bad_value_is_usage_error_both_ways(self, tmp_path, capsys, command, dest):
        _, bad = KNOB_VALUES[command, dest]
        config = tmp_path / "knob.cfg"
        config.write_text(f"{dest}={bad}\n")
        for argv in (["--" + dest.replace("_", "-"), bad], ["--config", str(config)]):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, *REQUIRED[command], *argv])
            assert exc.value.code == 2
            assert bad in capsys.readouterr().err


def rewrite_records(path, change) -> str:
    """The JSONL file at ``path`` with ``change`` applied to every record."""
    docs = [json.loads(line) for line in open(path, encoding="utf-8")]
    for doc in docs:
        change(doc)
    return "".join(json.dumps(doc) + "\n" for doc in docs)


def narrower_pipeline(workspace, tmp_path, width=16):
    """The mlp checkpoint's pipeline cut to its first ``width`` numerical features,
    as a corpus of that width would have fitted it."""
    doc = json.loads(open(workspace["checkpoints"]["mlp"] + ".pipeline.json").read())
    for key in ("numerical_mean", "numerical_std", "numerical_constant"):
        doc[key] = doc[key][:width]
    path = tmp_path / "narrow.pipeline.json"
    path.write_text(json.dumps(doc))
    return path


def one_error_line(capsys, argv) -> str:
    code = cli.main(argv)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 1 and captured.out == "" and len(err) == 1, captured.err
    return err[0]


def numeric_text(line: bytes) -> bytes:
    return json.dumps({**json.loads(line), "text": 7}).encode()


class TestEval:
    @pytest.mark.parametrize("split, damage, message", [
        ("all", numeric_text, "id and text must be strings"),
        ("test", numeric_text, "id and text must be strings"),
        ("test", lambda line: line.replace(b'"text": "', b'"text": "caf\xe9 ', 1),
         "not valid UTF-8"),
    ], ids=["all", "test", "latin-1-text"])
    def test_bad_record_names_data_and_line(self, workspace, tmp_path, capsys, split, damage,
                                            message):
        lines = open(workspace["data"], "rb").read().splitlines()
        lines[2] = damage(lines[2])
        data = tmp_path / "bad.jsonl"
        data.write_bytes(b"\n".join(lines) + b"\n")
        err = one_error_line(capsys, ["eval", "--model", workspace["checkpoints"]["mlp"],
                                      "--data", str(data), "--split", split])
        assert err == f"error: --data {data}: line 3: {message}"

    def test_class_too_small_to_split_names_data(self, workspace, tmp_path, capsys):
        data = tmp_path / "small.jsonl"
        data.write_text("".join(open(workspace["data"], encoding="utf-8").readlines()[:2]),
                        encoding="utf-8")
        err = one_error_line(capsys, ["eval", "--model", workspace["checkpoints"]["mlp"],
                                      "--data", str(data), "--split", "val"])
        assert err.startswith(f"error: --data {data}: class ")
        assert err.endswith(" examples, fewer than 3 splits")

    @pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("split", ["all", "test"])
    def test_data_without_records_is_named(self, workspace, tmp_path, capsys, content, split):
        data = tmp_path / "none.jsonl"
        data.write_text(content, encoding="utf-8")
        err = one_error_line(capsys, ["eval", "--model", workspace["checkpoints"]["mlp"],
                                      "--data", str(data), "--split", split])
        assert err == f"error: --data {data}: no records to evaluate (--split {split})"

    def test_pipeline_of_another_width_is_named(self, workspace, tmp_path, capsys):
        pipeline = narrower_pipeline(workspace, tmp_path)
        cat_dim = load(workspace["checkpoints"]["mlp"]).config.cat_feature_dim
        err = one_error_line(capsys, ["eval", "--model", workspace["checkpoints"]["mlp"],
                                      "--data", workspace["data"], "--pipeline", str(pipeline)])
        assert err == (f"error: --pipeline {pipeline}: 16 numerical and {cat_dim} "
                       f"categorical features, the model takes 20 and {cat_dim}")

    @pytest.mark.parametrize("variant", ["mlp", "text"])
    def test_records_of_another_width_name_data(self, workspace, tmp_path, capsys, variant):
        data = tmp_path / "narrow.jsonl"
        data.write_text(rewrite_records(
            workspace["data"], lambda doc: doc.update(numerical=doc["numerical"][:16])),
            encoding="utf-8")
        err = one_error_line(capsys, ["eval", "--model", workspace["checkpoints"][variant],
                                      "--data", str(data), "--embeddings", workspace["vec"]])
        assert err.startswith(f"error: --data {data}: example ")
        assert err.endswith(": 16 numerical values, the feature pipeline takes 20")

    def test_writes_schema_valid_report(self, workspace, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        assert cli.main([
            "eval", "--model", workspace["checkpoints"]["mlp"],
            "--data", workspace["data"], "--split", "test", "--k", "3",
            "--out", report_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "top-3 accuracy" in out
        assert "identity: ok" in out
        doc = json.loads(open(report_path).read())
        assert set(doc) == {"version", "k", "n", "per_class", "accuracy"}
        assert len(doc["per_class"]) == 13
        assert set(doc["per_class"][0]) == {"name", "n_k", "recall"}

    def test_text_model_requires_embeddings(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--model", workspace["checkpoints"]["text"],
                      "--data", workspace["data"]])
        assert exc.value.code == 2

    def test_text_model_eval_runs(self, workspace, tmp_path):
        assert cli.main([
            "eval", "--model", workspace["checkpoints"]["text"],
            "--data", workspace["data"], "--embeddings", workspace["vec"],
            "--split", "val",
        ]) == 0

    @pytest.mark.parametrize("content", ["2 3\nloan 1 0 0\nhelp 0 1 0\n", "0 8\n"],
                             ids=["narrower", "empty"])
    def test_embeddings_that_do_not_fit_the_model_are_named(self, workspace, tmp_path, capsys,
                                                            content):
        vec = tmp_path / "other.vec"
        vec.write_text(content)
        code = cli.main(["eval", "--model", workspace["checkpoints"]["text"],
                         "--data", workspace["data"], "--embeddings", str(vec)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --embeddings {vec}: ")
        assert f"width {content.split()[1]}," in err[0] and err[0].endswith("width 8")

    def test_compare_prints_ordering(self, workspace, tmp_path, capsys):
        paths = []
        for i, split in enumerate(("train", "val", "test")):
            p = str(tmp_path / f"r{i}.json")
            assert cli.main([
                "eval", "--model", workspace["checkpoints"]["mlp"],
                "--data", workspace["data"], "--split", split, "--out", p,
            ]) == 0
            paths.append(p)
        capsys.readouterr()
        assert cli.main(["eval", "--compare"] + paths) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("report")
        accs = [float(line.split()[1]) for line in lines[1:4]]
        assert accs == sorted(accs)

    def test_compare_names_a_report_missing_a_field(self, workspace, tmp_path, capsys):
        good = str(tmp_path / "good.json")
        assert cli.main(["eval", "--model", workspace["checkpoints"]["mlp"],
                         "--data", workspace["data"], "--split", "val", "--out", good]) == 0
        doc = json.loads(open(good).read())
        del doc["per_class"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["eval", "--compare", good, str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(bad) in err[0] and "'per_class'" in err[0]

    def test_k_above_class_count_is_usage_error_before_reading_data(self, workspace, tmp_path,
                                                                   capsys):
        missing = str(tmp_path / "never-written.jsonl")
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--model", workspace["checkpoints"]["mlp"],
                      "--data", missing, "--k", "20"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--k must be in [1, 13], got 20" in err and missing not in err

    def test_requires_model_and_data_without_compare(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--k", "3"])
        assert exc.value.code == 2


class TestPredict:
    def test_uniform_model_prints_first_three_classes_in_order(self, tmp_path, capsys):
        config = small_check_config(0)
        model = build_variant(config, "text")
        for _, arr in model.param_blocks():
            arr[...] = 0.0
        # A 13-class uniform head: rebuild with the real class count.
        from fusenet.model import ModelConfig
        config13 = ModelConfig(num_feature_dim=6, cat_feature_dim=5, embed_dim=8,
                               lstm_hidden=4, mlp_hidden=6, num_classes=13,
                               max_seq_len=12, seed=0)
        model = build_variant(config13, "text")
        for _, arr in model.param_blocks():
            arr[...] = 0.0
        path = str(tmp_path / "uniform.afn")
        save(model, path)
        vec = tmp_path / "v.vec"
        vec.write_text("2 8\nloan 1 0 0 0 0 0 0 0\nhelp 0 1 0 0 0 0 0 0\n")
        assert cli.main([
            "predict", "--model", path, "--embeddings", str(vec),
            "--text", "help with loan", "--k", "3",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split("\t")[0] for line in lines]
        probs = [float(line.split("\t")[1]) for line in lines]
        assert names == list(CLASS_NAMES[:3])
        assert np.allclose(probs, 1 / 13, atol=1e-9)

    def test_empty_text_is_all_masked_runtime_error(self, workspace, capsys):
        code = cli.main([
            "predict", "--model", workspace["checkpoints"]["text"],
            "--embeddings", workspace["vec"], "--text", "",
        ])
        assert code == 1
        assert "unmasked" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "?! ..."])
    def test_text_without_tokens_fails_before_reading_embeddings(self, workspace, tmp_path,
                                                                 capsys, text):
        missing = str(tmp_path / "never-written.vec")
        code = cli.main(["predict", "--model", workspace["checkpoints"]["text"],
                         "--embeddings", missing, "--text", text])
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1
        assert "--text" in err[0] and "unmasked" in err[0] and missing not in err[0]

    def expected_lines(self, workspace, text, k=3):
        """The top ``k`` lines ``predict`` prints, from the whole table parsed in process."""
        from fusenet.embeddings import embed_sequence, load_vec_file
        from fusenet.model import predict_topk
        from fusenet.textprep import normalize, tokenize
        model = load(workspace["checkpoints"]["text"])
        max_len = model.config.max_seq_len
        seq = embed_sequence(load_vec_file(workspace["vec"]),
                             tokenize(normalize(text), max_len), max_len)
        pred = predict_topk(model, None, None, seq, k=k)
        return [f"{CLASS_NAMES[c]}\t{pred.probs[c]:.6f}" for c in pred.top_k]

    @pytest.mark.parametrize("text", ["please help with my loan loan", "zzqx qqzx",
                                      "xyzzy plugh"], ids=["in-vocab", "all-oov", "all-oov-2"])
    def test_query_rows_predict_as_the_whole_table_does(self, workspace, capsys, text):
        # An all-OOV query selects no rows: its zero vectors under true
        # mask entries are what the whole table gives it.
        assert cli.main(["predict", "--model", workspace["checkpoints"]["text"],
                         "--embeddings", workspace["vec"], "--text", text]) == 0
        assert capsys.readouterr().out.splitlines() == self.expected_lines(workspace, text)

    def test_vec_without_vectors_is_named_for_an_all_oov_query(self, workspace, tmp_path,
                                                               capsys):
        vec = tmp_path / "empty.vec"
        vec.write_text("0 8\n")
        code = cli.main(["predict", "--model", workspace["checkpoints"]["text"],
                         "--embeddings", str(vec), "--text", "zzqx qqzx"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --embeddings {vec}: 0 vectors of width 8, the model needs vectors of width 8"
        ]

    def test_bad_value_only_in_a_row_the_query_does_not_use_is_not_reported(
            self, workspace, tmp_path, capsys):
        vec = tmp_path / "v.vec"
        # Line 4 repeats "loan", so only line 2 is loan's row.
        vec.write_text("3 8\nloan 1 0 0 0 0 0 0 0\nhelp nan 1 0 0 0 0 0 0\n"
                       "loan x 1 0 0 0 0 0 0\n")
        argv = ["predict", "--model", workspace["checkpoints"]["text"], "--embeddings", str(vec)]
        assert cli.main([*argv, "--text", "my loan"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert cli.main([*argv, "--text", "help"]) == 1
        assert capsys.readouterr().err == (
            f"error: --embeddings {vec}: line 3: non-finite vector component\n")

    def test_embeddings_narrower_than_the_model_are_named(self, workspace, tmp_path, capsys):
        vec = tmp_path / "narrow.vec"
        vec.write_text("2 3\nloan 1 0 0\nhelp 0 1 0\n")
        code = cli.main(["predict", "--model", workspace["checkpoints"]["text"],
                         "--embeddings", str(vec), "--text", "help with my loan"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --embeddings {vec}: 2 vectors of width 3, the model needs vectors of width 8"
        ]

    def test_class_names_come_from_fixed_vocabulary(self, workspace, tmp_path, capsys):
        features = tmp_path / "features.json"
        features.write_text(json.dumps({
            "numerical": [0.0] * 20,
            "categorical": [["account_state", "servicing_active"]],
        }))
        assert cli.main([
            "predict", "--model", workspace["checkpoints"]["mlp"],
            "--features", str(features), "--k", "13",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(line.split("\t")[0] for line in lines) == sorted(CLASS_NAMES)

    def test_missing_feature_field_named(self, workspace, tmp_path, capsys):
        features = tmp_path / "bad.json"
        features.write_text(json.dumps({"numerical": [0.0] * 20}))
        code = cli.main([
            "predict", "--model", workspace["checkpoints"]["mlp"],
            "--features", str(features),
        ])
        assert code == 1
        assert "categorical" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"numerical": [float("nan")] + [0.0] * 19, "categorical": []}, "numerical"),
        ({"numerical": [float("inf")] + [0.0] * 19, "categorical": []}, "numerical"),
        ({"numerical": "0.0", "categorical": []}, "numerical"),
        ({"numerical": [0.0] * 20, "categorical": [["account_state", 3]]}, "categorical"),
        ({"numerical": [0.0] * 20, "categorical": ["account_state"]}, "categorical"),
    ], ids=["nan", "infinity", "not-a-list", "non-string-value", "not-a-pair"])
    def test_bad_feature_values_name_file_and_field(self, workspace, tmp_path, capsys, doc,
                                                    field):
        features = tmp_path / "bad.json"
        features.write_text(json.dumps(doc))  # writes NaN and Infinity as bare tokens
        code = cli.main([
            "predict", "--model", workspace["checkpoints"]["mlp"],
            "--features", str(features),
        ])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(features) in err[0] and field in err[0]

    def test_pipeline_missing_a_field_is_named(self, workspace, tmp_path, capsys):
        mlp = workspace["checkpoints"]["mlp"]
        doc = json.loads(open(mlp + ".pipeline.json", encoding="utf-8").read())
        del doc["numerical_std"]
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps(doc))
        features = tmp_path / "features.json"
        features.write_text(json.dumps({"numerical": [0.0] * 20, "categorical": []}))
        code = cli.main(["predict", "--model", mlp, "--pipeline", str(pipeline),
                         "--features", str(features)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1
        assert str(pipeline) in err[0] and "'numerical_std'" in err[0]


    def test_pipeline_of_another_width_is_named(self, workspace, tmp_path, capsys):
        pipeline = narrower_pipeline(workspace, tmp_path)
        features = tmp_path / "features.json"
        features.write_text(json.dumps({"numerical": [0.0] * 16, "categorical": []}))
        err = one_error_line(capsys, ["predict", "--model", workspace["checkpoints"]["mlp"],
                                      "--pipeline", str(pipeline), "--features", str(features)])
        assert err.startswith(f"error: --pipeline {pipeline}: 16 numerical and ")
        assert ", the model takes 20 and " in err


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert cli.main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        # One line per parameter block, plus the layer lines.
        assert sum("head.W" in line for line in out.splitlines()) == 3

    def test_impossible_tolerance_fails_listing_blocks(self, capsys):
        assert cli.main(["gradcheck", "--seeds", "1", "--tolerance", "1e-12"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "FAIL" in captured.out

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf", "1e999", "tight"])
    def test_tolerance_not_finite_and_positive_is_usage_error(self, capsys, tolerance):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--seeds", "1", "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""  # no check ran
        assert "--tolerance" in captured.err


class TestInputFilesAreNamed:
    """A bad --embeddings or --model file is one error line naming the file, exit 1."""

    BAD_VECS = {
        "non-finite": (b"2 8\nloan 1 0 0 0 0 0 0 0\nhelp nan 1 0 0 0 0 0 0\n",
                       "line 3: non-finite vector component"),
        "invalid-utf8": (b"2 8\nloan 1 0 0 0 0 0 0 0\nhe\xffp 0 1 0 0 0 0 0 0\n",
                         "line 3: not valid UTF-8 (invalid start byte at byte 3)"),
    }

    def run(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 1 and len(err) == 1, captured.err
        return err[0]

    def commands(self, workspace, vec, tmp_path):
        return {
            "train": ["train", "--data", workspace["data"], "--variant", "text",
                      "--embeddings", vec, "--out", str(tmp_path / "m.afn"), "--epochs", "1"],
            "eval": ["eval", "--model", workspace["checkpoints"]["text"],
                     "--data", workspace["data"], "--embeddings", vec],
            "predict": ["predict", "--model", workspace["checkpoints"]["text"],
                        "--embeddings", vec, "--text", "help with my loan"],
        }

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    @pytest.mark.parametrize("kind", sorted(BAD_VECS))
    def test_malformed_vec_is_named(self, workspace, tmp_path, capsys, command, kind):
        content, message = self.BAD_VECS[kind]
        vec = tmp_path / "bad.vec"
        vec.write_bytes(content)
        argv = self.commands(workspace, str(vec), tmp_path)[command]
        assert self.run(capsys, argv) == f"error: --embeddings {vec}: {message}"

    def test_train_rejects_an_empty_vec_by_name(self, workspace, tmp_path, capsys):
        vec = tmp_path / "empty.vec"
        vec.write_text("0 16\n")
        argv = self.commands(workspace, str(vec), tmp_path)["train"]
        assert self.run(capsys, argv) == (
            f"error: --embeddings {vec}: 0 vectors of width 16, "
            "the model needs vectors of width 16")
        assert not (tmp_path / "m.afn").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("damage, message", [
        (lambda d: d.replace(b"variant text", b"variant t\xffxt", 1),
         "non-ASCII bytes in the line read for end of header"),
        (lambda d: d.replace(b"afn-checkpoint 1", b"afn-checkpoint 2", 1),
         "checkpoint format version 2 unsupported (expected 1)"),
        (lambda d: d[:-5], "head.b: truncated payload (99 of 104 bytes)"),
    ], ids=["non-ascii", "version", "truncated"])
    def test_damaged_checkpoint_is_named(self, workspace, tmp_path, capsys, command, damage,
                                         message):
        model = tmp_path / "damaged.afn"
        model.write_bytes(damage(open(workspace["checkpoints"]["text"], "rb").read()))
        argv = self.commands(workspace, workspace["vec"], tmp_path)[command]
        argv[argv.index("--model") + 1] = str(model)
        assert self.run(capsys, argv) == f"error: --model {model}: {message}"


NOT_JSON = b"{not json\n"

# Each case damages one input: id -> (flag, file name, what it holds, argv given the
# workspace ws, the damaged file and the directory d that holds it). d also holds a
# good features.json and report.json, and m.afn, the mlp checkpoint without a pipeline.
DAMAGED_INPUTS = {
    "data-eval": ("data", "bad.jsonl", NOT_JSON, lambda ws, bad, d: [
        "eval", "--model", ws["checkpoints"]["mlp"], "--data", bad]),
    "data-train": ("data", "bad.jsonl", NOT_JSON, lambda ws, bad, d: [
        "train", "--data", bad, "--variant", "mlp", "--out", f"{d}/out.afn"]),
    "embeddings": ("embeddings", "bad.vec", b"2 8\nloan 1 0\n", lambda ws, bad, d: [
        "eval", "--model", ws["checkpoints"]["text"], "--data", ws["data"], "--embeddings", bad]),
    "model": ("model", "bad.afn", b"not a checkpoint\n", lambda ws, bad, d: [
        "predict", "--model", bad, "--features", f"{d}/features.json"]),
    "pipeline-given": ("pipeline", "bad.json", NOT_JSON, lambda ws, bad, d: [
        "eval", "--model", ws["checkpoints"]["mlp"], "--data", ws["data"], "--pipeline", bad]),
    "pipeline-default": ("pipeline", "m.afn.pipeline.json", NOT_JSON, lambda ws, bad, d: [
        "predict", "--model", f"{d}/m.afn", "--features", f"{d}/features.json"]),
    "features-not-json": ("features", "bad.json", NOT_JSON, lambda ws, bad, d: [
        "predict", "--model", ws["checkpoints"]["mlp"], "--features", bad]),
    "features-count": ("features", "bad.json",
                       json.dumps({"numerical": [0.0] * 19, "categorical": []}).encode(),
                       lambda ws, bad, d: [
                           "predict", "--model", ws["checkpoints"]["mlp"], "--features", bad]),
    "compare": ("compare", "bad.json", NOT_JSON, lambda ws, bad, d: [
        "eval", "--compare", f"{d}/report.json", bad]),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_INPUTS))
def test_a_damaged_input_is_one_error_naming_its_flag_and_path(workspace, tmp_path, capsys,
                                                                case):
    flag, name, content, argv = DAMAGED_INPUTS[case]
    (tmp_path / "features.json").write_text(
        json.dumps({"numerical": [0.0] * 20, "categorical": []}))
    report = metrics.compute_report(np.array([0]), np.array([0]), 3)
    (tmp_path / "report.json").write_text(json.dumps(metrics.to_json(report)))
    (tmp_path / "m.afn").write_bytes(open(workspace["checkpoints"]["mlp"], "rb").read())
    bad = tmp_path / name
    bad.write_bytes(content)
    err = one_error_line(capsys, argv(workspace, str(bad), str(tmp_path)))
    assert err.startswith(f"error: --{flag} {bad}: ")


class TestIntegersBeyondFloat:
    """An integer that float() overflows on is not a finite number in any JSON input."""

    HUGE = 10**400

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_names_data_and_line(self, workspace, tmp_path, capsys, command):
        lines = open(workspace["data"], encoding="utf-8").read().splitlines()
        doc = json.loads(lines[2])
        doc["numerical"][4] = self.HUGE
        lines[2] = json.dumps(doc)
        data = tmp_path / "huge.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = {"train": ["train", "--data", str(data), "--variant", "mlp",
                          "--out", str(tmp_path / "m.afn"), "--epochs", "1"],
                "eval": ["eval", "--model", workspace["checkpoints"]["mlp"],
                         "--data", str(data)]}[command]
        err = one_error_line(capsys, argv)
        assert err == (f"error: --data {data}: line 3: "
                       f"numerical entry {self.HUGE!r} is not a finite number")

    def test_integer_too_long_to_read_names_data_and_line(self, workspace, tmp_path, capsys):
        lines = open(workspace["data"], encoding="utf-8").read().splitlines()
        lines[1] = lines[1].replace('"numerical": [', '"numerical": [' + "9" * 5000 + ", ", 1)
        data = tmp_path / "long.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = one_error_line(capsys, ["eval", "--model", workspace["checkpoints"]["mlp"],
                                      "--data", str(data)])
        assert err.startswith(f"error: --data {data}: line 2: ")

    def test_feature_file_is_named(self, workspace, tmp_path, capsys):
        features = tmp_path / "features.json"
        features.write_text(json.dumps({"numerical": [self.HUGE] + [0.0] * 19,
                                        "categorical": []}))
        err = one_error_line(capsys, ["predict", "--model", workspace["checkpoints"]["mlp"],
                                      "--features", str(features)])
        assert err == (f"error: --features {features}: "
                       f"numerical entry {self.HUGE!r} is not a finite number")

    @pytest.mark.parametrize("field", ["numerical_mean", "numerical_std"])
    def test_pipeline_is_named(self, workspace, tmp_path, capsys, field):
        mlp = workspace["checkpoints"]["mlp"]
        doc = json.loads(open(mlp + ".pipeline.json", encoding="utf-8").read())
        doc[field][0] = self.HUGE
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps(doc))
        features = tmp_path / "features.json"
        features.write_text(json.dumps({"numerical": [0.0] * 20, "categorical": []}))
        err = one_error_line(capsys, ["predict", "--model", mlp, "--pipeline", str(pipeline),
                                      "--features", str(features)])
        assert err.startswith(f"error: --pipeline {pipeline}: field {field!r} must be ")

    @pytest.mark.parametrize("field", ["accuracy", "recall"])
    def test_report_is_named(self, workspace, tmp_path, capsys, field):
        good = tmp_path / "good.json"
        assert cli.main(["eval", "--model", workspace["checkpoints"]["mlp"],
                         "--data", workspace["data"], "--split", "val", "--out", str(good)]) == 0
        doc = json.loads(good.read_text())
        if field == "accuracy":
            doc["accuracy"] = self.HUGE
        else:
            doc["per_class"][0]["recall"] = self.HUGE
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        err = one_error_line(capsys, ["eval", "--compare", str(good), str(bad)])
        field_name = "accuracy" if field == "accuracy" else "per_class"
        assert err.startswith(f"error: --compare {bad}: ") and repr(field_name) in err


class TestHugeFeatureValues:
    """A finite numerical value above MAX_FEATURE_MAGNITUDE is refused before training,
    so no pipeline is written with an overflowed mean or std."""

    def data_with(self, workspace, tmp_path, values: dict[int, float]) -> Path:
        lines = open(workspace["data"], encoding="utf-8").read().splitlines()
        for line_index, value in values.items():
            doc = json.loads(lines[line_index])
            doc["numerical"][4] = value
            lines[line_index] = json.dumps(doc)
        data = tmp_path / "huge.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return data

    def train_argv(self, data, tmp_path):
        return ["train", "--data", str(data), "--variant", "mlp",
                "--out", str(tmp_path / "m.afn"), "--epochs", "1", "--mlp-hidden", "8"]

    @pytest.mark.parametrize("values", [{2: 10**300}, {2: 10**308, 5: 10**308}],
                             ids=["one-10**300", "two-10**308"])
    def test_train_names_data_and_the_first_such_line(self, workspace, tmp_path, capsys,
                                                       values):
        data = self.data_with(workspace, tmp_path, values)
        err = one_error_line(capsys, self.train_argv(data, tmp_path))
        assert err == (f"error: --data {data}: line 3: numerical entry {values[2]!r} "
                       f"exceeds 1e+150 in magnitude")
        assert not (tmp_path / "m.afn.pipeline.json").exists()

    def test_the_bound_itself_trains_a_pipeline_that_eval_accepts(self, workspace, tmp_path,
                                                                  capsys):
        data = self.data_with(workspace, tmp_path, {j: MAX_FEATURE_MAGNITUDE for j in range(20)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings among them
            assert cli.main(self.train_argv(data, tmp_path)) == 0
        doc = json.loads((tmp_path / "m.afn.pipeline.json").read_text())
        assert all(math.isfinite(v) for v in doc["numerical_mean"] + doc["numerical_std"])
        assert doc["numerical_std"][4] > 1e148
        assert cli.main(["eval", "--model", str(tmp_path / "m.afn"), "--data", str(data),
                         "--split", "all"]) == 0


class TestScoresAreFiniteOrRefused:
    """Pipeline statistics beyond what fitting can produce are refused by name,
    probabilities that overflow are an error naming the example, and so is a training
    loss that overflows: no ``nan`` and no numpy warning is printed."""

    def argv(self, workspace, tmp_path, command, model, pipeline):
        if command == "eval":
            argv = ["eval", "--model", model, "--data", workspace["data"], "--split", "all"]
        else:
            features = tmp_path / "features.json"
            record = json.loads(open(workspace["data"], encoding="utf-8").readline())
            features.write_text(json.dumps({key: record[key]
                                            for key in ("numerical", "categorical")}))
            argv = ["predict", "--model", model, "--features", str(features)]
        return argv + ["--pipeline", str(pipeline)]

    @pytest.mark.parametrize("field, value, what", [
        ("numerical_mean", 1e308, "numbers of magnitude at most 2e+150"),
        ("numerical_std", 1e-308, "numbers in [1e-150, 2e+150]"),
        ("numerical_std", 1e300, "numbers in [1e-150, 2e+150]"),
    ], ids=["mean-1e308", "std-1e-308", "std-1e300"])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_extreme_statistics_name_the_pipeline(self, workspace, tmp_path, capsys, command,
                                                  field, value, what):
        mlp = workspace["checkpoints"]["mlp"]
        doc = json.loads(open(mlp + ".pipeline.json", encoding="utf-8").read())
        doc[field] = [value] * len(doc[field])
        pipeline = tmp_path / "extreme.pipeline.json"
        pipeline.write_text(json.dumps(doc))
        err = one_error_line(capsys, self.argv(workspace, tmp_path, command, mlp, pipeline))
        assert err == f"error: --pipeline {pipeline}: field '{field}' must be a list of {what}"

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_probabilities_that_overflow_are_an_error(self, workspace, tmp_path, capsys,
                                                      command):
        # Finite parameters load, but with every one at 1e120 each row's
        # categorical branch (one-hot, non-negative) sends every logit to
        # inf, and softmax to nan.
        model = load(workspace["checkpoints"]["mlp"])
        model.theta[...] = 1e120
        path = str(tmp_path / "huge.afn")
        save(model, path)
        err = one_error_line(capsys, self.argv(workspace, tmp_path, command, path,
                                               workspace["checkpoints"]["mlp"] + ".pipeline.json"))
        if command == "predict":
            assert err == ("error: the example's class probabilities are not finite "
                           "(the model's inputs or parameters overflow)")
        else:
            first = json.loads(open(workspace["data"], encoding="utf-8").readline())["id"]
            assert err == (f"error: example {first}: class probabilities are not finite "
                           "(the model's inputs or parameters overflow)")

    def test_a_loss_that_overflows_is_an_error(self, workspace, tmp_path, capsys):
        # One Adam step of this size sends the parameters, and so the next
        # batch's logits, beyond float64.
        err = one_error_line(capsys, [
            "train", "--data", workspace["data"], "--variant", "mlp",
            "--out", str(tmp_path / "huge.afn"), "--lr", "1e300", "--epochs", "2",
            "--seed", "0", "--mlp-hidden", "8",
        ])
        assert err == "error: non-finite loss in epoch 0 batch 1"


# Each subcommand's required flags, so that only the unknown one is wrong.
SUBCOMMAND_ARGV = {
    "synth": ["synth", "--out", "x.jsonl"],
    "train": ["train", "--data", "d.jsonl", "--variant", "mlp", "--out", "m.afn"],
    "eval": ["eval", "--model", "m.afn", "--data", "d.jsonl"],
    "predict": ["predict", "--model", "m.afn"],
    "gradcheck": ["gradcheck"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_unknown_flag_prints_the_subcommand_usage(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(SUBCOMMAND_ARGV[command] + ["--bogus", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage: fusenet {command} ")
    assert captured.err.splitlines()[-1] == (
        f"fusenet {command}: error: unrecognized arguments: --bogus 1")


# SHA-256 of the README quickstart's fusion report over every row
# (``eval --split all --out``) at each k. The benchmark compares eval's
# report with an in-process metrics.report, and both run the same
# scoring code, so only a pin catches a change to either's bytes.
QUICKSTART_REPORT_SHA256 = {
    1: "fc428967ea898cd66e390955de9e3178202b40f64d4cc05b41ecc57b8a4dfb79",
    3: "882a5ce696528047b1faebf98fad99599952de2399654f33f5b57517087e4503",
    13: "9435e72fffa1430ab3c0daf73b40bfee9309f1a3a6aa75adc9164fe9ffc30ccb",
}


def test_quickstart_reports_are_pinned(tmp_path, capsys):
    data, vec, model = (str(tmp_path / name) for name in ("data.jsonl", "emb.vec", "fusion.afn"))
    assert cli.main(["synth", "--out", data, "--n", "1300", "--noise", "0.05", "--seed", "5",
                     "--vec-out", vec, "--vec-dim", "16"]) == 0
    assert cli.main(["train", "--data", data, "--variant", "fusion", "--embeddings", vec,
                     "--out", model, "--epochs", "10", "--lr", "3e-3", "--seed", "0",
                     "--lstm-hidden", "32", "--mlp-hidden", "32", "--max-seq-len", "20"]) == 0
    digests = {}
    for k in QUICKSTART_REPORT_SHA256:
        out = tmp_path / f"all{k}.report.json"
        assert cli.main(["eval", "--model", model, "--data", data, "--embeddings", vec,
                         "--split", "all", "--k", str(k), "--out", str(out)]) == 0
        digests[k] = hashlib.sha256(out.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == QUICKSTART_REPORT_SHA256
