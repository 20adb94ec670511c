"""Self-check of the benchmark, at a tiny size.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  For each workload it

1. runs run.py at the tiny size with --trace 0 and with --trace 1, and checks
   that the run is correct and emits every metric BENCHMARK.json names, with
   the unit BENCHMARK.json gives it;
2. runs one tiny round in this process, checks that the gate passes, then
   corrupts the workload's reference and checks that the gate fails.

Exits 1 and lists the problems if any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def _corrupt(workload) -> None:
    """Make the workload's reference wrong in a way its gate must notice."""
    if isinstance(workload, workloads.Sweep):
        for want in workload.reference.values():
            want["histogram"]["0"] = want["histogram"].get("0", 0) + 1
    elif isinstance(workload, workloads.CycleSearch):
        workload.reference = [[z + 0.01 for z in zeros] for zeros in workload.reference]
    else:
        workload.reference = [count + 1 for count in workload.reference]


def _declared(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", name, "--seed", str(DEFAULT_SEED),
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: not correct: {done.stderr[-500:]}")
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            if emitted != _declared(spec, key):
                problems.append(f"{name} trace {trace}: emitted {emitted} != declared {_declared(spec, key)}")

        run_dir = ROOT / ".perfbench" / f"selfcheck-{name}"
        try:
            workload = workloads.WORKLOADS[name](DEFAULT_SEED, "tiny", run_dir)
            outcome, _ = workload.run_round()
            tally = workloads.Tally()
            workload.check(outcome, tally)
            if tally.violations:
                problems.append(f"{name}: gate fails on the true reference: {tally.violations}")
            _corrupt(workload)
            tally = workloads.Tally()
            workload.check(outcome, tally)
            if not tally.violations:
                problems.append(f"{name}: gate passes with a corrupted reference")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print(f"{name}: checked", flush=True)

    for p in problems:
        print(p, file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
