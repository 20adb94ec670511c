"""Record a before/after benchmark comparison as BENCH_<sha>.json at the repo root.

    python3 tools/bench_record.py --parent REV [--change REV] [--runs sweep:6 sweep:11 ...]

Run from the root of the repository.  Both revisions are exported with
``git archive`` into fresh temporary directories, so only committed files
are measured, and <sha> is the change's short sha.  For every workload:seed
in --runs it runs ``perfbench/run.py --trace 0`` PAIRS times on each
revision, for the run_seconds that BENCHMARK.json sets, in alternating
order (parent first in even pairs, change first in odd ones), because the
speed of a shared host drifts between sets of runs.  Then it runs one
``--trace 1`` per revision and workload, at the seed of the workload's
first entry in --runs.

The file holds the two shas, the host's CPU count and software versions,
and per workload:seed the median and quartiles of each end-to-end metric
on both sides, with the number of pairs the change won; and the per-layer
figures of the traced runs.  A run that is not correct is listed under
"incorrect", and its pair is left out of the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path.cwd()
SIDES = ("parent", "change")
PAIRS = 10  # the fewest alternating pairs a claimed gain is judged on


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _export(sha: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", default="HEAD", help="revision measured as the change (default HEAD)")
    parser.add_argument("--runs", nargs="+", default=["sweep:6", "cycle-search:6", "moments:6"],
                        help="workload:seed entries, each run PAIRS times per side")
    args = parser.parse_args(argv)
    shas = {side: _git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    label = _git("rev-parse", "--short", shas["change"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = [(w, int(s)) for w, s in (entry.split(":") for entry in args.runs)]

    tmp = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        checkouts = {side: _export(shas[side], tmp / side) for side in SIDES}
        doc = {
            "label": label,
            "parent": shas["parent"],
            "change": shas["change"],
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "run_seconds": seconds,
            "pairs": PAIRS,
            "order": "alternating: parent first in even pairs, change first in odd ones",
            "end_to_end": {},
            "per_layer": {},
            "incorrect": [],
        }
        for workload, seed in runs:
            pairs = []  # (parent metrics, change metrics) of the pairs where both runs were correct
            for i in range(PAIRS):
                pair = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = _bench(checkouts[side], workload, seed, seconds, 0)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload}:{seed} pair {i} {side}: wall_s {wall:.3f}", file=sys.stderr)
                    if result["correct"]:
                        pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
                    else:
                        doc["incorrect"].append({"run": f"{workload}:{seed}", "pair": i, "side": side})
                if len(pair) == len(SIDES):
                    pairs.append((pair["parent"], pair["change"]))
            figures = {}
            for name, m in metrics.items():
                p = [a[name] for a, _ in pairs]
                c = [b[name] for _, b in pairs]
                lower = m["better"] == "lower"
                figures[name] = {
                    "unit": m["unit"],
                    "better": m["better"],
                    "parent": _summary(p),
                    "change": _summary(c),
                    "change_better_pairs": sum((b < a) if lower else (b > a) for a, b in zip(p, c)),
                }
            doc["end_to_end"][f"{workload}:{seed}"] = figures
        first_seed = {}
        for workload, seed in runs:
            first_seed.setdefault(workload, seed)
        for workload, seed in first_seed.items():
            doc["per_layer"][workload] = {"seed": seed}
            for side in SIDES:
                result = _bench(checkouts[side], workload, seed, seconds, 1)
                doc["per_layer"][workload][side] = {k: v["value"] for k, v in result["metrics"].items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
