"""Record the sweep workload's per-family histograms and failed counts at the default seed.

    python3 perfbench/record_sweep_reference.py

Run from the root of a checkout.  Rewrites perfbench/sweep_reference.json,
which the sweep gate compares against whenever it runs with that seed.  Only
re-record when a change is meant to alter sweep results.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    doc = {"seed": workloads.DEFAULT_SEED}
    run_dir = Path.cwd() / ".perfbench" / "record"
    try:
        for size in ("full", "tiny"):
            sweep = workloads.Sweep(workloads.DEFAULT_SEED, size, run_dir / size)
            sweep.reference = None
            tally = workloads.Tally()
            sweep.check(sweep.run_round()[0], tally)
            if tally.failed:
                print(f"{size} round failed: {tally}", file=sys.stderr)
                return 1
            doc[size] = sweep.histograms
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    workloads.RECORDED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
