"""The four workloads: seeded inputs, fusenet commands, output checks, metrics.

Every command is a fresh ``fusenet`` process started through
``launch.py`` and waited for before the next one starts: a closed loop
with one client. Inputs are written by the package's public generators
before timing starts; the commands see only those files and their flags.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
REFERENCE = HERE / "reference.py"
COMMAND_TIMEOUT_S = 60
# Reported times are scaled to a machine on which reference.py takes this
# long; it took 0.15 to 0.30 s on a shared 2-core cloud VM.
REF_NOMINAL_S = 0.25

NOISE = 0.05
EMBED_DIM = 16
MAX_SEQ_LEN = 20
K = 3
# The README quickstart configuration.
MODEL_FLAGS = ["--lstm-hidden", "32", "--mlp-hidden", "32", "--max-seq-len", str(MAX_SEQ_LEN),
               "--batch-size", "32", "--lr", "3e-3"]


@dataclass(frozen=True)
class Sizes:
    train_n: int = 1300        # training corpus: 780 train, 260 validation, 260 test
    train_epochs: int = 1
    eval_n: int = 1560         # eval-bulk corpus, larger than the training corpus
    vec_rows: int = 50_000     # rows of the predict-cold embedding file
    predict_items: int = 40    # held-out examples predict-cold cycles through


FULL = Sizes()
SMOKE = Sizes(train_n=130, eval_n=195, vec_rows=1000, predict_items=3)


class BenchError(RuntimeError):
    """Set-up failed, so nothing can be measured."""


def _fusenet():
    """The package under test, imported from the checkout's ``src/``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fusenet.cli
    return fusenet


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Commands


@dataclass
class Command:
    argv: list[str]
    code: int
    wall_s: float
    stdout: str
    stderr: str
    marks: dict
    ok: bool = True
    ref_s: float = REF_NOMINAL_S  # reference.py time around this command

    @property
    def setup_s(self):
        return self.marks.get("setup_s")

    @property
    def scale(self) -> float:
        return REF_NOMINAL_S / self.ref_s


def reference_s() -> float:
    """Wall time of one run of reference.py."""
    start = tracing.now()
    # No timeout: waiting with one polls with sleeps of up to 50 ms, which
    # would add that much jitter to a 0.25 s measurement.
    subprocess.run([sys.executable, str(REFERENCE)], check=True)
    return tracing.now() - start


def run_command(work: Path, argv: list[str], trace: bool) -> Command:
    """Run one fusenet command to completion and time it from spawn to exit."""
    out = work / "launch.json"
    out.unlink(missing_ok=True)
    start = tracing.now()
    try:
        proc = subprocess.run(
            [sys.executable, str(LAUNCH), str(out), "1" if trace else "0", "--", *argv],
            cwd=work, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, stdout, stderr = -1, "", f"timed out after {COMMAND_TIMEOUT_S} s"
    wall = tracing.now() - start
    marks = json.loads(out.read_text()) if out.exists() else {}
    if "first_compute" in marks:
        marks["setup_s"] = marks["first_compute"] - start
    return Command(argv, code, wall, stdout, stderr, marks)


@dataclass
class Outcome:
    """What one run measured, before it is reduced to the reported metrics."""

    work: Path
    commands: list[Command] = field(default_factory=list)   # untraced
    traced: list[Command] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    examples_per_command: float = 1.0
    quality: dict = field(default_factory=dict)             # top3, final_train_loss
    inputs: dict = field(default_factory=dict)              # file name -> sha256
    notes: dict = field(default_factory=dict)


def measure(out: Outcome, seconds: float, trace: bool, make_argv, check) -> None:
    """Run commands in a closed loop until ``seconds`` have passed.

    Untraced runs make at least one command. Traced runs alternate an
    untraced and a traced command, at least one of each, so the tracing
    overhead is measured in the same run. ``check(cmd, i)`` returns a
    problem description or None. Every file in the work directory at the
    start is an input; its SHA-256 is recorded. reference.py runs before
    the first command and after each one.
    """
    out.inputs = {p.name: sha256(p) for p in sorted(out.work.iterdir())
                  if p.name != "launch.json" and not p.name.endswith(".trainreport.txt")}
    start = tracing.now()
    ref_before = reference_s()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        cmd = run_command(out.work, make_argv(i), traced)
        ref_after = reference_s()
        cmd.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        if cmd.code != 0:
            problem = f"exit code {cmd.code}: {cmd.stderr.strip()[-500:]}"
        elif cmd.setup_s is None:
            problem = "command never reached model computation"
        else:
            try:
                problem = check(cmd, i)
            except (OSError, ValueError) as err:
                problem = f"output unreadable: {err}"
        if problem is not None:
            cmd.ok = False
            out.failures.append(f"command {i} ({cmd.argv[0]}): {problem}")
        (out.traced if traced else out.commands).append(cmd)
        i += 1
        enough = out.traced if trace else out.commands
        if enough and out.commands and tracing.now() - start >= seconds:
            break


# ---------------------------------------------------------------------------
# Inputs


def _write_corpus(fn, path: Path, n: int, seed: int):
    examples, _manifest = fn.synth.generate_synthetic(n, NOISE, seed)
    fn.dataset.save_jsonl(examples, path)
    return examples


def _write_corpus_vec(fn, path: Path, seed: int):
    words = fn.synth.vocabulary()
    table = fn.embeddings.random_table(words, EMBED_DIM, seed)
    fn.embeddings.write_vec_file(path, words, table.matrix)
    return table


def _write_big_vec(fn, path: Path, vocab_table, rows: int, seed: int):
    """The corpus vocabulary, unchanged, among seeded filler words.

    Pre-trained files are far larger than any one corpus vocabulary; the
    filler words never occur in the generated text.
    """
    rng = np.random.default_rng(seed)
    n_filler = max(rows - len(vocab_table), 0)
    letters = rng.integers(ord("a"), ord("z") + 1, size=(n_filler, 9), dtype=np.uint8)
    filler = [w.decode("ascii") for w in letters.view("S9").ravel()]
    words = list(dict.fromkeys([*vocab_table.vocab, *filler]))
    filler_table = fn.embeddings.random_table(words[len(vocab_table):], EMBED_DIM, seed)
    matrix = np.vstack([vocab_table.matrix, filler_table.matrix])
    order = rng.permutation(len(words))
    words = [words[i] for i in order]
    matrix = matrix[order]
    fn.embeddings.write_vec_file(path, words, matrix)
    return fn.embeddings.EmbeddingTable(vocab={w: i for i, w in enumerate(words)},
                                        matrix=matrix, dim=EMBED_DIM)


def _final_train_loss(report_path: Path) -> float:
    rows = [line.split("\t") for line in report_path.read_text().splitlines()
            if line and not line.startswith("#")]
    return float(rows[-1][1])


def _train_argv(data: str, variant: str, vec: str | None, out: str, epochs: int,
                seed: int) -> list[str]:
    argv = ["train", "--data", data, "--variant", variant, "--out", out,
            "--epochs", str(epochs), "--patience", str(epochs), "--seed", str(seed), *MODEL_FLAGS]
    if vec is not None:
        argv += ["--embeddings", vec]
    return argv


def _setup_checkpoint(fn, out: Outcome, sizes: Sizes, seed: int):
    """The train-fusion inputs and the checkpoint one train-fusion command makes."""
    examples = _write_corpus(fn, out.work / "train.jsonl", sizes.train_n, seed)
    table = _write_corpus_vec(fn, out.work / "corpus.vec", seed)
    cmd = run_command(out.work, _train_argv("train.jsonl", "fusion", "corpus.vec", "ckpt.afn",
                                            sizes.train_epochs, seed), trace=False)
    if cmd.code != 0:
        raise BenchError(f"set-up training failed: {cmd.stderr.strip()[-500:]}")
    model = fn.model.load(out.work / "ckpt.afn")
    with open(out.work / "ckpt.afn.pipeline.json", encoding="utf-8") as fh:
        pipeline = fn.dataset.FeaturePipeline.from_json(json.load(fh))
    out.quality["final_train_loss"] = _final_train_loss(out.work / "ckpt.afn.trainreport.txt")
    return examples, table, model, pipeline


# ---------------------------------------------------------------------------
# Workloads


def train_workload(variant: str):
    def run(fn, out: Outcome, sizes: Sizes, seed: int, seconds: float, trace: bool) -> None:
        examples = _write_corpus(fn, out.work / "train.jsonl", sizes.train_n, seed)
        vec = None
        table = None
        if variant == "fusion":
            table = _write_corpus_vec(fn, out.work / "corpus.vec", seed)
            vec = "corpus.vec"
        train_ex, _val_ex, test_ex = fn.dataset.split(examples, fn.cli.SPLIT_FRACTIONS, seed=0)
        out.examples_per_command = len(train_ex) * sizes.train_epochs
        hashes: list[str] = []

        def make_argv(i):
            return _train_argv("train.jsonl", variant, vec, f"model-{i}.afn",
                               sizes.train_epochs, seed)

        def check(cmd, i):
            path = out.work / f"model-{i}.afn"
            try:
                loaded = fn.model.load(path)
            except (OSError, ValueError) as err:
                return f"checkpoint does not load: {err}"
            if loaded.variant != variant:
                return f"checkpoint variant {loaded.variant!r}, expected {variant!r}"
            hashes.append(sha256(path))
            if hashes[-1] != hashes[0]:
                return "checkpoint differs from the first run's (same seed, same inputs)"
            epochs = [line for line in (out.work / f"model-{i}.afn.trainreport.txt")
                      .read_text().splitlines() if line and not line.startswith("#")]
            if len(epochs) != sizes.train_epochs:
                return f"trained {len(epochs)} epochs, expected {sizes.train_epochs}"
            return None

        measure(out, seconds, trace, make_argv, check)
        if out.failures:
            return
        best = out.work / "model-0.afn"
        with open(str(best) + ".pipeline.json", encoding="utf-8") as fh:
            pipeline = fn.dataset.FeaturePipeline.from_json(json.load(fh))
        test = fn.dataset.prepare(test_ex, pipeline, table, MAX_SEQ_LEN)
        out.quality["top3"] = fn.metrics.report(fn.model.load(best), test, k=K).accuracy
        out.quality["final_train_loss"] = _final_train_loss(Path(str(best) + ".trainreport.txt"))
        out.notes["checkpoint_sha256"] = hashes[0]
    return run


def eval_bulk(fn, out: Outcome, sizes: Sizes, seed: int, seconds: float, trace: bool) -> None:
    _examples, table, model, pipeline = _setup_checkpoint(fn, out, sizes, seed)
    eval_ex = _write_corpus(fn, out.work / "eval.jsonl", sizes.eval_n, seed + 20_000)
    prepared = fn.dataset.prepare(eval_ex, pipeline, table, model.config.max_seq_len)
    expected = fn.metrics.to_json(fn.metrics.report(model, prepared, k=K))
    out.examples_per_command = len(eval_ex)
    out.quality["top3"] = expected["accuracy"]

    def make_argv(i):
        return ["eval", "--model", "ckpt.afn", "--data", "eval.jsonl", "--embeddings", "corpus.vec",
                "--split", "all", "--k", str(K), "--out", f"report-{i}.json"]

    def check(cmd, i):
        with open(out.work / f"report-{i}.json", encoding="utf-8") as fh:
            got = json.load(fh)
        if got != expected:
            return (f"report differs from the in-process metrics.report: accuracy "
                    f"{got.get('accuracy')!r} vs {expected['accuracy']!r}")
        return None

    measure(out, seconds, trace, make_argv, check)


def predict_cold(fn, out: Outcome, sizes: Sizes, seed: int, seconds: float, trace: bool) -> None:
    examples, table, model, pipeline = _setup_checkpoint(fn, out, sizes, seed)
    big = _write_big_vec(fn, out.work / "big.vec", table, sizes.vec_rows, seed)
    _train_ex, _val_ex, held_out = fn.dataset.split(examples, fn.cli.SPLIT_FRACTIONS, seed=0)
    prepared = fn.dataset.prepare(held_out, pipeline, big, model.config.max_seq_len)
    out.quality["top3"] = fn.metrics.report(model, prepared, k=K).accuracy

    items = held_out[: sizes.predict_items]
    expected = []
    for j, ex in enumerate(items):
        with open(out.work / f"features-{j}.json", "w", encoding="utf-8") as fh:
            json.dump({"numerical": ex.numerical, "categorical": ex.categorical}, fh)
        pred = fn.model.predict_topk(model, prepared.num[j], prepared.cat[j], prepared.seqs[j], k=K)
        expected.append([fn.dataset.CLASS_NAMES[c] for c in pred.top_k])

    def make_argv(i):
        j = i % len(items)
        return ["predict", "--model", "ckpt.afn", "--embeddings", "big.vec",
                "--pipeline", "ckpt.afn.pipeline.json", "--text", items[j].text,
                "--features", f"features-{j}.json", "--k", str(K)]

    def check(cmd, i):
        lines = cmd.stdout.splitlines()
        if len(lines) != K:
            return f"printed {len(lines)} lines, expected {K}"
        names, probs = [], []
        for line in lines:
            name, _, prob = line.partition("\t")
            if name not in fn.dataset.CLASS_NAMES:
                return f"unknown class name {name!r}"
            try:
                p = float(prob)
            except ValueError:
                return f"probability {prob!r} is not a number"
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                return f"probability {prob!r} is not in [0, 1]"
            names.append(name)
            probs.append(p)
        if len(set(names)) != K or probs != sorted(probs, reverse=True):
            return f"top-{K} not distinct classes in descending probability: {lines}"
        if names != expected[i % len(items)]:
            return f"top-{K} {names} differs from the in-process prediction {expected[i % len(items)]}"
        return None

    measure(out, seconds, trace, make_argv, check)


RUNNERS = {
    "train-fusion": train_workload("fusion"),
    "train-mlp": train_workload("mlp"),
    "eval-bulk": eval_bulk,
    "predict-cold": predict_cold,
}
WORKLOADS = tuple(RUNNERS)


def run(workload: str, work: Path, seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    fn = _fusenet()
    out = Outcome(work)
    RUNNERS[workload](fn, out, sizes, seed, seconds, trace)
    return out


# ---------------------------------------------------------------------------
# Reported numbers


def end_to_end(out: Outcome) -> dict[str, float]:
    """The untraced metrics; failed commands contribute no timings.

    Times are scaled by each command's ``Command.scale`` to the speed at
    which reference.py takes ``REF_NOMINAL_S``.
    """
    cmds = [c for c in out.commands if c.ok]
    metrics = dict(out.quality)
    if cmds:
        metrics.update({
            "setup_s": statistics.median(c.setup_s * c.scale for c in cmds),
            "command_p50_ms": 1000.0 * statistics.median(c.wall_s * c.scale for c in cmds),
            "examples_per_s": statistics.median(
                out.examples_per_command / ((c.wall_s - c.setup_s) * c.scale) for c in cmds),
            "peak_rss_mb": max(c.marks["peak_rss_kb"] for c in cmds) / 1024.0,
        })
    return metrics


def per_layer(out: Outcome) -> dict[str, float]:
    traced = [c for c in out.traced if c.ok]
    untraced = [c for c in out.commands if c.ok]
    if not traced or not untraced:
        return {}
    metrics = tracing.per_layer_metrics([c.marks["trace"] for c in traced])
    metrics["cli.import_s"] = statistics.median(c.marks["import_s"] for c in traced)
    metrics["trace.overhead"] = (statistics.median(c.wall_s for c in traced)
                                 / statistics.median(c.wall_s for c in untraced) - 1.0)
    return metrics


def command_tail(out: Outcome):
    """Tail of scaled command time in ms, with its percentile, or None."""
    found = stats.tail([c.wall_s * c.scale for c in out.commands if c.ok])
    return None if found is None else (1000.0 * found[0], found[1])


def run_context() -> dict:
    """Machine, library and source facts recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "FUSENET_THREADS": os.environ.get("FUSENET_THREADS"),
        "commit": git_commit(ROOT),
        "src_lines": src_lines,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
