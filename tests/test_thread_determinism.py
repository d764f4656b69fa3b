"""Same-seed training writes byte-identical checkpoints at any BLAS thread count,
length-trimmed scoring gives the untrimmed forward's bytes at each, and
``predict_topk`` gives each example's row of ``predict_all`` at each.

The benchmark compares checkpoints and reports of ``fusenet`` child
processes with results computed in its own process, and the two need
not run with the same OpenBLAS thread setting.
"""

import os
import subprocess
import sys
from pathlib import Path

import fusenet
from fusenet import cli

SRC = Path(fusenet.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

# Prints, per variant and chunk size, a digest of the cache-free
# probabilities and whether they equal the untrimmed ones byte for byte;
# then, per variant, a digest of predict_all's probabilities and whether
# each example's predict_topk probabilities are its row of them.
SCORE_RAGGED_SET = """
import hashlib
from fusenet.metrics import predict_all
from fusenet.model import predict_topk
from test_trimmed_scoring import ragged_set, scored
for variant in ("fusion", "text"):
    model, data = ragged_set(variant)
    for size in (1, 2, 64):
        free, kept = scored(model, data, size)
        print(variant, size, hashlib.sha256(free.tobytes()).hexdigest(),
              free.tobytes() == kept.tobytes())
for variant in ("fusion", "text", "mlp"):
    model, data = ragged_set(variant)
    probs = predict_all(model, data)
    print(variant, "topk", hashlib.sha256(probs.tobytes()).hexdigest(),
          all(predict_topk(model, *data.inputs(model, j)).probs.tobytes() == row.tobytes()
              for j, row in enumerate(probs)))
"""


def run_at_threads(threads, argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fusion_checkpoint_independent_of_blas_threads(tmp_path):
    data, vec = tmp_path / "data.jsonl", tmp_path / "emb.vec"
    assert cli.main(["synth", "--out", str(data), "--n", "130", "--noise", "0.05",
                     "--seed", "4", "--vec-out", str(vec), "--vec-dim", "16"]) == 0
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.afn"
        run_at_threads(threads, [
            "-m", "fusenet.cli", "train", "--data", str(data),
            "--variant", "fusion", "--embeddings", str(vec), "--out", str(out),
            "--epochs", "2", "--seed", "0", "--lstm-hidden", "32", "--mlp-hidden", "32",
            "--max-seq-len", "20", "--batch-size", "32", "--lr", "3e-3"])
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_trimmed_scoring_equals_the_untrimmed_forward_at_one_and_two_threads():
    outputs = [run_at_threads(threads, ["-c", SCORE_RAGGED_SET]) for threads in ("1", "2")]
    for out in outputs:
        lines = [line.split() for line in out.splitlines()]
        assert [(v, size) for v, size, _, _ in lines] == [
            (v, size) for v in ("fusion", "text") for size in ("1", "2", "64")] + [
            (v, "topk") for v in ("fusion", "text", "mlp")]
        assert all(same == "True" for *_, same in lines), out
    assert outputs[0] == outputs[1]
