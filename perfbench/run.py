"""Benchmark of the fusenet command line, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each exists):

  train-fusion  ``fusenet train --variant fusion`` at the quickstart config
  train-mlp     the same corpus and epochs with ``--variant mlp``
  eval-bulk     ``fusenet eval --split all`` of a fixed fusion checkpoint
  predict-cold  sequential cold ``fusenet predict`` processes, 50k-row .vec

Inputs are generated from ``--seed`` by the package's own generators, and
the package is imported from ``src/`` of the checkout. Commands run in a
closed loop for ``--seconds``; reported times are scaled by the time of
``reference.py`` around each command (see workloads.REF_NOMINAL_S). With
``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of
traced commands instead. The lines before it record the run context, the
SHA-256 of every generated input, the raw per-command times and the
command-time tail. ``--workload all`` runs each workload in its own
process and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import stats
import workloads

ROOT = workloads.ROOT
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_BASE = ROOT / ".perfbench"


def load_spec() -> dict:
    """BENCHMARK.json, with every workload and metric name checked."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    for entry in spec["workloads"]:
        stats.check_metric_name(entry["name"])
    for group in ("end_to_end", "per_layer"):
        for entry in spec[group]:
            stats.check_metric_name(entry["name"])
            stats.check_unit(entry["unit"])
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise ValueError("BENCHMARK.json workloads differ from perfbench/workloads.py")
    return spec


def run_one(args, spec: dict) -> int:
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    work = WORK_BASE / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = workloads.run(args.workload, work, args.seed, args.seconds, args.trace == 1, sizes)
    except workloads.BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    group = "per_layer" if args.trace else "end_to_end"
    measured = workloads.per_layer(out) if args.trace else workloads.end_to_end(out)
    missing = [m["name"] for m in spec[group] if m["name"] not in measured]
    commands = out.commands + out.traced
    attempted = len(commands)
    failed = sum(not c.ok for c in commands)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("context " + json.dumps(workloads.run_context(), sort_keys=True))
    print("inputs " + json.dumps(out.inputs, sort_keys=True))
    if out.notes:
        print("notes " + json.dumps(out.notes, sort_keys=True))
    tail = workloads.command_tail(out)
    tail_text = (f"{tail[0]:.1f} ms at p{tail[1]:.1f}" if tail
                 else f"n/a (needs more than {stats.TAIL_BEYOND} commands)")
    print(f"commands {len(out.commands)} untraced, {len(out.traced)} traced; "
          f"error_rate {failed / attempted:.4f}; command tail {tail_text}")
    ok = [c for c in out.commands if c.ok]
    print("samples " + json.dumps({"wall_s": [c.wall_s for c in ok],
                                   "setup_s": [c.setup_s for c in ok],
                                   "reference_s": [c.ref_s for c in ok]}))
    for problem in out.failures:
        print(f"FAILED {problem}")
    if missing:
        print(f"absent metrics: {', '.join(missing)}")
    metrics = {}
    for entry in spec[group]:
        name = entry["name"]
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": entry["unit"]}
            print(f"  {name:<30} {measured[name]:.6g} {entry['unit']}")
    correct = not out.failures and (args.trace or not missing)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process; every metric with its unit."""
    status = 0
    for entry in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", entry["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print(f"== {entry['name']}: {entry['why']}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr.strip())
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"  correct {result['correct']}  attempted {result['attempted']}  "
              f"failed {result['failed']}")
        for line in lines[:-1]:
            if line.startswith(("commands ", "FAILED ", "absent ")):
                print("  " + line)
        for name, metric in result["metrics"].items():
            print(f"  {name:<30} {metric['value']:.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fusenet" / "__init__.py").is_file():
        print(f"error: no fusenet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
