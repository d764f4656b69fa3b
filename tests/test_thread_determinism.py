"""Same-seed training writes byte-identical checkpoints at any BLAS thread count.

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


def test_fusion_checkpoint_independent_of_blas_threads(tmp_path):
    data, vec = tmp_path / "data.jsonl", tmp_path / "emb.vec"
    assert cli.main(["synth", "--out", str(data), "--n", "130", "--noise", "0.05",
                     "--seed", "4", "--vec-out", str(vec), "--vec-dim", "16"]) == 0
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.afn"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fusenet.cli", "train", "--data", str(data),
             "--variant", "fusion", "--embeddings", str(vec), "--out", str(out),
             "--epochs", "2", "--seed", "0", "--lstm-hidden", "32", "--mlp-hidden", "32",
             "--max-seq-len", "20", "--batch-size", "32", "--lr", "3e-3"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]
