"""The package calls the benchmark under perfbench/ makes, at tiny sizes.

perfbench/workloads.py imports fusenet in-process to write each
workload's inputs and to compute the outputs every command is checked
against, and perfbench/tracing.py wraps package functions by name. A
renamed or reshaped call there stops a benchmark run before it prints
its result, so each one is made here with the argument shapes the
benchmark uses. The benchmark's own files are read, never edited.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fusenet
import fusenet.cli

fn = fusenet  # the benchmark calls the package through this name

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = Path(fusenet.__file__).resolve().parents[1]
EMBED_DIM = 16
MAX_SEQ_LEN = 20
K = 3
SEED = 3


def _train(root: Path, variant: str, vec: str | None) -> None:
    argv = ["train", "--data", str(root / "train.jsonl"), "--variant", variant,
            "--out", str(root / f"{variant}.afn"), "--epochs", "1", "--patience", "1",
            "--seed", str(SEED), "--lstm-hidden", "8", "--mlp-hidden", "8",
            "--max-seq-len", str(MAX_SEQ_LEN), "--batch-size", "32", "--lr", "3e-3"]
    if vec is not None:
        argv += ["--embeddings", vec]
    assert fn.cli.main(argv) == 0


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Inputs as the benchmark writes them, and one checkpoint per train workload."""
    root = tmp_path_factory.mktemp("bench")
    examples, _manifest = fn.synth.generate_synthetic(130, 0.05, SEED)
    fn.dataset.save_jsonl(examples, root / "train.jsonl")
    words = fn.synth.vocabulary()
    table = fn.embeddings.random_table(words, EMBED_DIM, SEED)
    fn.embeddings.write_vec_file(root / "corpus.vec", words, table.matrix)
    _train(root, "fusion", str(root / "corpus.vec"))
    _train(root, "mlp", None)
    with open(root / "fusion.afn.pipeline.json", encoding="utf-8") as fh:
        pipeline = fn.dataset.FeaturePipeline.from_json(json.load(fh))
    return {"root": root, "examples": examples, "table": table, "pipeline": pipeline,
            "model": fn.model.load(root / "fusion.afn")}


def test_checkpoint_and_train_report(bench):
    model = bench["model"]
    assert model.variant == "fusion"
    assert model.config.max_seq_len == MAX_SEQ_LEN
    rows = [line.split("\t") for line in
            (bench["root"] / "fusion.afn.trainreport.txt").read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) == 1 and math.isfinite(float(rows[-1][1]))


@pytest.mark.parametrize("variant", ["fusion", "mlp"])
def test_held_out_top3(bench, variant):
    _train_ex, _val_ex, test_ex = fn.dataset.split(bench["examples"], fn.cli.SPLIT_FRACTIONS,
                                                   seed=0)
    table = bench["table"] if variant == "fusion" else None
    test = fn.dataset.prepare(test_ex, bench["pipeline"], table, MAX_SEQ_LEN)
    accuracy = fn.metrics.report(fn.model.load(bench["root"] / f"{variant}.afn"), test,
                                 k=K).accuracy
    assert 0.0 <= accuracy <= 1.0


def test_eval_command_equals_in_process_report(bench, tmp_path):
    model = bench["model"]
    eval_ex, _ = fn.synth.generate_synthetic(195, 0.05, SEED + 20_000)
    fn.dataset.save_jsonl(eval_ex, tmp_path / "eval.jsonl")
    prepared = fn.dataset.prepare(eval_ex, bench["pipeline"], bench["table"],
                                  model.config.max_seq_len)
    expected = fn.metrics.to_json(fn.metrics.report(model, prepared, k=K))
    out = tmp_path / "report.json"
    assert fn.cli.main(["eval", "--model", str(bench["root"] / "fusion.afn"),
                        "--data", str(tmp_path / "eval.jsonl"),
                        "--embeddings", str(bench["root"] / "corpus.vec"),
                        "--split", "all", "--k", str(K), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == expected


def test_predict_command_equals_in_process_predict_topk(bench, tmp_path, capsys):
    model, table = bench["model"], bench["table"]
    # A .vec file with the corpus vocabulary among filler words.
    rng = np.random.default_rng(SEED)
    filler = ["".join(chr(c) for c in row)
              for row in rng.integers(ord("a"), ord("z") + 1, size=(50, 9))]
    words = list(dict.fromkeys([*table.vocab, *filler]))
    filler_table = fn.embeddings.random_table(words[len(table):], EMBED_DIM, SEED)
    matrix = np.vstack([table.matrix, filler_table.matrix])
    fn.embeddings.write_vec_file(tmp_path / "big.vec", words, matrix)
    big = fn.embeddings.EmbeddingTable(vocab={w: i for i, w in enumerate(words)},
                                       matrix=matrix, dim=EMBED_DIM)

    _train_ex, _val_ex, held_out = fn.dataset.split(bench["examples"], fn.cli.SPLIT_FRACTIONS,
                                                    seed=0)
    # The third query repeats the first one's text before a distinct fourth,
    # so from there on a row's entry of prepared.texts is not its row number.
    # The last query repeats the first one's features with text whose tokens
    # are all out of vocabulary.
    queries = [held_out[0], held_out[2], dataclasses.replace(held_out[3], text=held_out[0].text),
               held_out[4], dataclasses.replace(held_out[0], text="zzqx qqzx")]
    prepared = fn.dataset.prepare(queries, bench["pipeline"], big, model.config.max_seq_len)
    assert prepared.groups.tolist() == [0, 1, 0, 2, 3]
    assert prepared.seqs[4].mask.sum() == 2 and not prepared.seqs[4].vectors.any()
    capsys.readouterr()
    for j, ex in enumerate(queries):
        features = tmp_path / f"features-{j}.json"
        features.write_text(json.dumps({"numerical": ex.numerical,
                                        "categorical": ex.categorical}))
        pred = fn.model.predict_topk(model, prepared.num[j], prepared.cat[j], prepared.seqs[j],
                                     k=K)
        expected = [f"{fn.dataset.CLASS_NAMES[c]}\t{pred.probs[c]:.6f}" for c in pred.top_k]
        assert fn.cli.main(["predict", "--model", str(bench["root"] / "fusion.afn"),
                            "--embeddings", str(tmp_path / "big.vec"),
                            "--pipeline", str(bench["root"] / "fusion.afn.pipeline.json"),
                            "--text", ex.text, "--features", str(features),
                            "--k", str(K)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == expected
        probs = [float(line.partition("\t")[2]) for line in lines]
        assert probs == sorted(probs, reverse=True)


TRACED_TARGETS = [
    "fusenet.embeddings.load_vec_file", "fusenet.model.load", "fusenet.model.save",
    "fusenet.dataset.load_jsonl", "fusenet.dataset.prepare", "fusenet.textprep.normalize",
    "fusenet.textprep.tokenize", "fusenet.embeddings.embed_sequence",
    "fusenet.layers.BiLstmEncoder.forward", "fusenet.layers.BiLstmEncoder.backward",
    "fusenet.layers.LstmCell.step", "fusenet.numcore.sigmoid",
    "fusenet.layers.FeedforwardAttention.forward", "fusenet.layers.FeedforwardAttention.backward",
    "fusenet.layers.DenseLayer.forward", "fusenet.layers.DenseLayer.backward",
    "fusenet.model.forward", "fusenet.model.backward", "fusenet.training.train",
    "fusenet.training.clip_grads_", "fusenet.training._validation_topk_accuracy",
    "fusenet.metrics.report", "fusenet.metrics.compute_report", "fusenet.parallel.ordered_map",
]

# Installs the benchmark's wrappers in a fresh interpreter (they replace
# module attributes for the life of the process), then runs one batched
# forward and one metrics.report over SCORE_CHUNK + 8 rows through them.
_TRACE_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import fusenet.cli
import tracing
rec = tracing.Recorder()
tracing.install(rec)
from fusenet import dataset, embeddings, metrics, model, numcore, training
cfg = training.small_check_config(0)
m = model.build_variant(cfg, "fusion")
rng = numcore.Rng(1)
mask = np.array([[True] * cfg.max_seq_len, [True] + [False] * (cfg.max_seq_len - 1)])
seq = embeddings.EmbeddedSequence(rng.normal((2, cfg.max_seq_len, cfg.embed_dim)), mask)
model.forward(m, rng.normal((2, cfg.num_feature_dim)), rng.normal((2, cfg.cat_feature_dim)), seq)
forward_counts = dict(rec.counts)
n = model.SCORE_CHUNK + 8
data = dataset.PreparedDataset(
    ids=[str(i) for i in range(n)], labels=np.arange(n) % cfg.num_classes,
    num=rng.normal((n, cfg.num_feature_dim)), cat=rng.normal((n, cfg.cat_feature_dim)),
    texts=embeddings.EmbeddedSequence(rng.normal((n, cfg.max_seq_len, cfg.embed_dim)),
                                     np.ones((n, cfg.max_seq_len), dtype=bool)),
    groups=np.arange(n))
metrics.report(m, data, k=3, class_names=[str(c) for c in range(cfg.num_classes)])
print(json.dumps({"installed": rec.installed, "counts": forward_counts,
                  "spans": [s[2] for s in rec.spans]}))
"""


def test_tracer_installs_every_target():
    proc = subprocess.run([sys.executable, "-c", _TRACE_SCRIPT, str(PERFBENCH), str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result["installed"]) == sorted(TRACED_TARGETS)
    assert len(result["installed"]) == 24
    counts = result["counts"]
    assert counts["layers.bilstm.timesteps"] == 2 * 5
    assert counts["layers.bilstm.live"] == 5 + 1
    # The encoder's time loop runs the gate kernel without LstmCell.step:
    # one sigmoid call per step for both directions and the whole batch.
    assert "layers.lstm_step.calls" not in counts
    assert counts["numcore.sigmoid.calls"] == 5
    spans = result["spans"]
    assert {"model.forward", "layers.bilstm.fwd", "layers.attention.fwd",
            "layers.dense.fwd"} <= set(spans)
    # metrics.report maps its one chunk (SCORE_CHUNK + 8 rows, under ROW_CHUNK) through
    # parallel.ordered_map, the span the benchmark's eval-bulk attribution reads.
    assert spans.count("metrics.report") == 1 and spans.count("parallel.ordered_map") == 1
    assert spans.count("model.forward") == 1 + 1
