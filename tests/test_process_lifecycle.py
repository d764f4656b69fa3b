"""The command line as a process.

Each command runs in a fresh interpreter with ``PYTHONPATH=src``, started
the way the ``fusenet`` script starts it, and is compared with the same
command run in this process through ``cli.main``. The import freezes its
heap out of the cyclic collector (``gc.freeze``), which must change no
output, no exit code and nothing a command itself creates.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusenet import cli
from fusenet import dataset as ds

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = "import sys, fusenet.cli; sys.exit(fusenet.cli.main())"  # what `fusenet` runs


def python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthetic corpus, its .vec, one fusion checkpoint and one example's features."""
    root = tmp_path_factory.mktemp("lifecycle")
    data, vec, model = str(root / "data.jsonl"), str(root / "emb.vec"), str(root / "fusion.afn")
    assert cli.main(["synth", "--out", data, "--n", "260", "--seed", "4", "--vec-out", vec,
                     "--vec-dim", "8"]) == 0
    assert cli.main(["train", "--data", data, "--variant", "fusion", "--embeddings", vec,
                     "--out", model, "--epochs", "1", "--lstm-hidden", "4", "--mlp-hidden", "8",
                     "--max-seq-len", "12", "--seed", "0"]) == 0
    example = ds.load_jsonl(data)[0]
    features = root / "features.json"
    features.write_text(json.dumps({"numerical": example.numerical,
                                    "categorical": example.categorical}), encoding="utf-8")
    predict = ["predict", "--model", model, "--embeddings", vec, "--features", str(features),
               "--text", example.text, "--k", "5"]
    evaluate = ["eval", "--model", model, "--data", data, "--embeddings", vec, "--split", "all"]
    return {"root": root, "predict": predict, "eval": evaluate}


def test_the_import_is_frozen_and_later_cycles_are_still_collected():
    proc = python("import gc, weakref, fusenet.cli\n"
                  "class Node: pass\n"
                  "node = Node(); node.self = node\n"
                  "ref = weakref.ref(node); del node\n"
                  "gc.collect()\n"
                  "print(gc.get_freeze_count(), ref() is None)")
    assert proc.returncode == 0, proc.stderr
    frozen, freed = proc.stdout.split()
    assert int(frozen) > 0
    assert freed == "True"


def test_piped_predict_prints_what_main_prints(workspace, capsys):
    assert cli.main(workspace["predict"]) == 0
    expected = capsys.readouterr().out
    proc = python(SCRIPT, *workspace["predict"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected
    assert len(proc.stdout.splitlines()) == 5


def test_eval_report_file_is_the_one_main_writes(workspace, capsys):
    root = workspace["root"]
    assert cli.main(workspace["eval"] + ["--out", str(root / "in-process.json")]) == 0
    expected = capsys.readouterr().out.replace("in-process.json", "piped.json")
    proc = python(SCRIPT, *workspace["eval"], "--out", str(root / "piped.json"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected
    assert (root / "piped.json").read_bytes() == (root / "in-process.json").read_bytes()


@pytest.mark.parametrize("change, code, stderr_start", [
    (["--model", "missing.afn"], 1, "error: "),
    (["--bogus"], 2, "usage: fusenet "),
], ids=["missing-model", "unknown-flag"])
def test_exit_codes(workspace, change, code, stderr_start):
    argv = workspace["predict"] + change  # a later --model wins
    proc = python(SCRIPT, *argv, cwd=workspace["root"])
    assert proc.returncode == code
    assert proc.stderr.startswith(stderr_start) and proc.stdout == ""


def test_predict_and_eval_never_import_numpy_random(workspace):
    proc = python("import json, sys, fusenet.cli\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert fusenet.cli.main(argv) == 0, argv\n"
                  "print('numpy.random' in sys.modules, 'fusenet.synth' in sys.modules)",
                  json.dumps([workspace["predict"], workspace["eval"]]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def test_the_cli_import_loads_training_and_metrics_but_not_synth():
    # The benchmark wraps training.train and metrics.report right after
    # this import, to mark where a command's compute starts.
    proc = python("import sys, fusenet.cli\n"
                  "print(*(m in sys.modules for m in "
                  "('fusenet.training', 'fusenet.metrics', 'fusenet.synth')))\n"
                  "import fusenet\n"
                  "print(fusenet.generate_synthetic is fusenet.synth.generate_synthetic)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True False", "True"]
    proc = python(SCRIPT, "synth", "--help")
    assert proc.returncode == 0 and "  --num-dim NUM_DIM    default 20\n" in proc.stdout


def test_every_exported_name_resolves_and_only_the_synth_names_import_synth():
    # A fresh interpreter: this one may have imported fusenet.synth already.
    proc = python("import sys, fusenet\n"
                  "lazy = ('synth', 'generate_synthetic')\n"
                  "eager = [n for n in fusenet.__all__ if n not in lazy]\n"
                  "print([n for n in eager if not hasattr(fusenet, n)], "
                  "'fusenet.synth' in sys.modules)\n"
                  "print([n for n in fusenet.__all__ if not hasattr(fusenet, n)])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] False", "[]"]


def test_the_cli_import_keeps_glibcs_heap_thresholds():
    # The benchmark harness imports the package and scores in-process, so
    # only training may fix the thresholds (training._fix_heap_thresholds).
    proc = python("import ctypes\n"
                  "looked_up = []\n"
                  "class Spy(ctypes.CDLL):\n"
                  "    def __getattr__(self, name):\n"
                  "        looked_up.append(name)\n"
                  "        return super().__getattr__(name)\n"
                  "ctypes.CDLL = Spy\n"
                  "import fusenet.cli\n"
                  "print(looked_up.count('mallopt'))\n"
                  "fusenet.training._fix_heap_thresholds()\n"
                  "print(looked_up.count('mallopt'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "1"]
