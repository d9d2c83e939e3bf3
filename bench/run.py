"""Benchmark runner for the rwis library.

Usage (from the repository root):

    python3 bench/run.py --workload frontier-k3 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written to
``.bench_out/trace-<workload>.tsv.gz``).  ``--workload all`` runs every
workload both ways, each in its own process.  Every CLI output is verified;
the last line of stdout is one JSON object with ``correct``, ``attempted``
(solve calls), ``failed`` and ``metrics``, and the exit code is nonzero when
any output is wrong.  The library is imported from ``src/`` next to this
directory; without it the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from metrics import ALL

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=ALL + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in ALL:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                correct = False
                continue
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _report(run) -> None:
    calls = run.attempted
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"operations {run.ops}  solve calls {calls}  failed {run.failed}  "
          f"fail_ratio {run.failed / calls if calls else 0:.6g}")
    print(f"instances_sha256 {run.instances_sha256}")
    print(f"outputs_sha256   {run.outputs_sha256}")
    for name, value in sorted(run.counts.items()):
        print(f"count {name} {value:g}")
    for name, value in run.raw.items():
        print(f"{name} {value:.6g}")
    for error in run.errors:
        print(f"FAILED {error}")
    width = max(len(n) for n in run.metrics)
    for name, (value, unit) in run.metrics.items():
        print(f"{name.ljust(width)}  {value:>14.6g}  {unit}")


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "rwis" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    import rwis  # noqa: F401  (timed: part of set-up)
    import_s = time.process_time() - t0

    from harness import run_workload

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, import_s)
    _report(run)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
