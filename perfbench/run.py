#!/usr/bin/env python3
"""End-to-end SGD training benchmark for the spg-CNN package under ``src/``.

Run from the repository root::

    python3 perfbench/run.py --workload mnist-sparse-thread --seed 1 --seconds 40
    python3 perfbench/run.py --workload cifar-process --seed 1 --trace 1
    python3 perfbench/run.py --workload all   # every BENCHMARK.json workload
    python3 perfbench/run.py --compare OLD.json NEW.json

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (plus the residual and self-time tables); the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, host fingerprint included, is also written
to ``perfbench/out/``.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# The repository tracks compiled bytecode; never rewrite it (this process,
# the dataset child and the spawned workers all inherit the setting).
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-steps", type=int, default=None,
                        help="timed steps per window at least "
                             "(default: enough for 10 beyond p90)")
    parser.add_argument("--out", type=Path, default=None,
                        help="result JSON path (default perfbench/out/...)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="attribute the change between two traced outputs")
    # Test hooks: inject a repro.resilience.faults plan, or perturb one
    # conv weight after the check snapshot.
    parser.add_argument("--fault-plan", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--perturb-weight", action="store_true",
                        help=argparse.SUPPRESS)
    # Internal child modes.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--emit-data", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _run_all(args) -> int:
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (n for n, w in WORKLOADS.items() if w.in_benchmark):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.min_steps is not None:
            cmd += ["--min-steps", str(args.min_steps)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                             text=True).stdout
        print(out, end="")
        last = json.loads(out.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.compare:
        from report import attribute

        base, head = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(attribute(base, head)))
        return 0
    if args.workload == "all":
        return _run_all(args)

    from workloads import MIN_STEPS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)} or "
              f"'all', got {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    import bench

    if args.emit_data:
        bench.emit_dataset(workload, args.seed, sys.stdout.buffer)
        return 0
    if args.setup_probe:
        print(json.dumps({"setup_s": bench.setup_probe(workload, args.seed)}))
        return 0

    from layertrace import PER_LAYER
    from report import END_TO_END, describe

    min_steps = MIN_STEPS if args.min_steps is None else args.min_steps
    result = bench.run(workload, args.seed, args.seconds, bool(args.trace),
                       min_steps, fault_plan=args.fault_plan,
                       perturb=args.perturb_weight)
    path = bench.write_result(result, args.out)
    print("\n".join(describe(result)))
    print(f"wrote {path}")
    values, units = ((result.get("per_layer"), PER_LAYER) if args.trace
                     else (result.get("end_to_end"), END_TO_END))
    if values is None:  # the job crashed before its window finished
        values = {name: 0.0 for name in units}
    print(json.dumps({
        "correct": bool(result["verdict"]["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
