import json

import numpy as np
import pytest

from fusenet import cli
from fusenet.dataset import CLASS_NAMES
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


class TestEval:
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
