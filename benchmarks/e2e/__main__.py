"""Run the end-to-end benchmark: every workload, several runs, one report.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME ...] [--seed 2018]
        [--runs N] [--trace] [--write-expected]

Each run of each workload is ``run.py`` in a fresh interpreter, one at a
time.  The report gives each end-to-end metric's median over the runs with
its interquartile range, plus ``failed_frac``, and appends the medians to
``results/history.jsonl`` for ``repro bench-check --results-dir
benchmarks/e2e/results``.  ``--trace`` adds one traced run per workload
(per-layer metrics and the "where the time went" table).  Exits 1 when any
kernel pipeline failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from repro.observe.history import append_history

from . import ROOT, harness

RUN_PY = harness.HERE / "run.py"


def _run(workload: str, seed: int, trace: bool) -> dict:
    """One ``run.py`` subprocess; relays its report, returns its result."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--trace", str(int(trace))],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode} without a result")
    if trace or not result["correct"]:
        print("\n".join(lines[:-1]))
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", nargs="+", choices=harness.WORKLOADS_BY_NAME,
        default=list(harness.WORKLOADS_BY_NAME),
    )
    parser.add_argument("--seed", type=int, default=harness.EXPECTED_SEED)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="re-record expected.json from one pass per workload and exit",
    )
    args = parser.parse_args(argv)
    if args.write_expected:
        harness.write_expected()
        print(f"wrote {harness.EXPECTED_PATH.relative_to(ROOT)}")
        return 0

    print(f"{'workload':18s} {'metric':18s} {'median':>12s} {'IQR':>10s}  unit")
    any_failed = False
    for name in args.workload:
        results = [_run(name, args.seed, False) for _ in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        any_failed |= failed > 0
        rows = {
            metric: ([r["metrics"][metric]["value"] for r in results], unit, better)
            for metric, (unit, better) in harness.END_TO_END.items()
        }
        rows["failed_frac"] = (
            [failed / sum(r["attempted"] for r in results)], "fraction", "lower"
        )
        for metric, (values, unit, better) in rows.items():
            median = statistics.median(values)
            print(f"{name:18s} {metric:18s} {median:12.6g} {_iqr(values):10.4g}  {unit}")
            append_history(
                harness.RESULTS_DIR, "e2e", name, metric, median,
                unit=unit, direction=better,
                config={"seed": args.seed, "runs": args.runs,
                        "seconds": harness.RUN_SECONDS},
            )
    if args.trace:
        for name in args.workload:
            print()
            any_failed |= not _run(name, args.seed, True)["correct"]
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
