"""One run of one workload of the end-to-end profile benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — end-to-end
metrics untraced, per-layer metrics with ``--trace 1`` (which also writes
``results/trace-<workload>.json``).  Exits 1 when any kernel pipeline
raised or produced a profile other than the pinned one.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
# The run manifest asks git for the revision; keep git from searching
# above the checkout, so a run reads nothing outside it.
os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))

from benchmarks.e2e import harness  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS_BY_NAME)
    parser.add_argument("--seed", type=int, default=harness.EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=harness.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = harness.run_workload(
        harness.WORKLOADS_BY_NAME[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    print(harness.render_result(result))
    for path in harness.write_artifacts(result):
        print(f"wrote {path.relative_to(ROOT)}")
    print(result.result_line(), flush=True)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
