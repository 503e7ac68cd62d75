"""Run one graphmem benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest_8x --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/`` of that checkout.  Every metric is printed by name with its unit,
followed by notes (tail percentiles, sample counts, workload mix).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The exit code is 0 when every output
check passed, 1 when one failed and 2 when the benchmark could not run.

``--workload all`` runs the three workloads in turn and rewrites
``BENCHMARK.json``.  ``--smoke`` runs each workload for a handful of
operations with every check on.  ``--scale`` sets the corpus copies for
``ingest_8x`` (1, 4 or 8) to draw the ingest curve by hand.  ``--repin``
recomputes the pinned outputs in ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the engine
    imported is that one, not an installed copy."""
    package = ROOT / "src" / "graphmem"
    if not (package / "__init__.py").is_file():
        print(f"error: no graphmem sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import graphmem

    if Path(graphmem.__file__).resolve().parent != package.resolve():
        print(f"error: imported graphmem from {graphmem.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scale", type=int, choices=(1, 4, 8), default=8)
    parser.add_argument("--repin", action="store_true")
    return parser.parse_args(argv)


def report(name: str, outcome, trace: bool, units: dict) -> dict:
    """Print the human-readable table and return the JSON result."""
    metrics = outcome.layers if trace else outcome.metrics
    failed = len(outcome.failures)
    print(f"== {name} ({'traced, per-layer' if trace else 'end-to-end'})")
    width = max(map(len, metrics), default=0)
    for key, value in metrics.items():
        print(f"  {key:<{width}}  {value:>14.6g} {units[key]}")
    print(f"  failed_op_share {failed / max(outcome.attempted, 1):.6g} ({failed} of {outcome.attempted} operations)")
    for note in outcome.notes:
        print(f"  note: {note}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    return {
        "correct": not outcome.failures,
        "attempted": max(outcome.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    import_program()
    import spec
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.repin:
        pins = workloads.compute_pins(ROOT)
        workloads.PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {workloads.PINS_FILE}")
        return 0
    pins = json.loads(workloads.PINS_FILE.read_text(encoding="utf-8"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = workloads.Run(
            root=ROOT,
            out=OUT,
            seed=args.seed,
            seconds=spec.RUN_SECONDS if args.seconds is None else args.seconds,
            workload=name,
            trace=bool(args.trace),
            smoke=args.smoke,
            scale=1 if args.smoke else (args.scale if name == "ingest_8x" else 8),
            pins=pins,
        )
        try:
            outcome = workloads.WORKLOADS[name](run)
        except Exception:  # a crash in the program is a failed run, not a benchmark error
            traceback.print_exc()
            outcome = workloads.Outcome(failures=[f"{name} raised"], attempted=1)
        results[name] = report(name, outcome, run.trace, spec.UNITS)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
        print(f"wrote {spec.write(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
