"""eightloop benchmark.

    python3 perfbench/run.py --workload {sweep,cycle-search,moments} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Workloads (see workloads.py):

* sweep         -- one cyclicity-sweep scenario per family through cli.run,
                   eight arcs each, eps = 1e-3 on [1e-3, 0.2]: the dynamics
                   layer over many independent return maps.
* cycle-search  -- find_limit_cycles at strict tolerance on planted arcs over
                   an eps ladder, plus a convergence and a simulate scenario:
                   the dynamics layer one lane at a time.
* moments       -- pf-check, series-fit and melnikov-zeros with both backends:
                   the integrals, series and melnikov layers, no dynamics.

One process, one worker (threads = 1).  Inputs come from --seed.  A round is
the workload's fixed set of operations; rounds repeat until --seconds would
be exceeded (at least one runs), and every round's outputs pass through the
workload's correctness gate.  Each operation is timed on its own, and a
round's time is the sum of the operations' medians over the rounds, which
keeps a burst of load from another tenant of the machine out of the result.

--trace 0 prints the end-to-end metrics: ``wall_s`` (round time),
``arcs_per_s`` (parameter arcs per second of round time; M_k specs on
moments), ``ok_frac`` (share of attempted operations that did not fail),
``peak_rss_mb`` (this process, which also does the set-up) and ``setup_s``
(median over nine fresh processes that import eightloop and fit its default
constants, see probe.py, run between the rounds).

--trace 1 wraps every public function of the traced layers (tracing.py) and
alternates untraced and traced rounds over --seconds; the wrappers record
only in the traced ones.  It prints the per-layer metrics, per traced round,
plus the tracing overhead: the traced round time over the untraced one,
minus 1.  Spans and counts go to
.perfbench/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; BENCHMARK.json names the metrics and their
units.  Without src/eightloop in the current
directory the benchmark exits 2 and prints no result.

    python3 perfbench/selfcheck.py               # every workload at a tiny size
    python3 perfbench/record_sweep_reference.py  # re-record the sweep gate's reference

baseline.json holds the figures measured at the commit that added the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = Path.cwd() / ".perfbench"

SETUP_PROBES = {"full": 9, "tiny": 1}


def _setup_time() -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py")], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _rounds(workload, tally, budget: float, tracer=None, probes: int = 0) -> tuple:
    """Run rounds until the next one would end past ``budget`` seconds; at least one runs.

    With a tracer, rounds alternate untraced and traced, so both kinds see the
    same load on the machine, and at least one of each runs.  ``probes``
    set-up probes are spread over the run, between rounds, in proportion to
    the budget used; their time is not charged to the budget.

    Returns each round as (traced, list of operation times), and the set-up times.
    """
    rounds, setup = [], []
    spent = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.run_id = len(rounds)
            tracer.active = traced
        start = perf_counter()
        outcome, times = workload.run_round()
        if tracer is not None:
            tracer.active = False
        workload.check(outcome, tally)
        spent += perf_counter() - start
        rounds.append((traced, times))
        while len(setup) < probes * min(1.0, spent / budget):
            setup.append(_setup_time())
        enough = tracer is None or len(rounds) >= 2
        if enough and spent + statistics.median(sum(t) for _, t in rounds) > budget:
            break
    while len(setup) < probes:
        setup.append(_setup_time())
    return rounds, setup


def _round_s(rounds: list) -> float:
    """One round's time, assembled from each operation's median over the rounds."""
    return sum(statistics.median(op) for op in zip(*rounds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "cycle-search", "moments"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-check's size")
    args = parser.parse_args(argv)
    if not (SRC / "eightloop" / "__init__.py").is_file():
        print(f"no eightloop sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import eightloop

    import tracing
    import workloads

    eightloop.default_constants()
    run_dir = OUT / f"run-{os.getpid()}"
    tally = workloads.Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed % 2**32, args.size, run_dir)
        if not args.trace:
            rounds, setup = _rounds(workload, tally, args.seconds, probes=SETUP_PROBES[args.size])
            wall = _round_s([times for _, times in rounds])
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "arcs_per_s": workload.arcs / wall,
                "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            rounds, _ = _rounds(workload, tally, args.seconds, tracer)
            plain_rounds = [times for traced, times in rounds if not traced]
            traced_rounds = [times for traced, times in rounds if traced]
            plain, traced = _round_s(plain_rounds), _round_s(traced_rounds)
            metrics = tracing.layer_metrics(tracer, sum(map(sum, traced_rounds)), len(traced_rounds))
            metrics.update(
                {
                    "dynamics.failed_samples": tally.failed_samples / len(rounds),
                    "cli.bytes_written": tally.bytes_written,
                    "cli.nonzero_exits": tally.nonzero_exits / len(rounds),
                    "failed_frac": tally.failed / tally.attempted,
                    "trace.untraced_wall_s": plain,
                    "trace.traced_wall_s": traced,
                    "trace.overhead_frac": traced / plain - 1.0,
                }
            )
            OUT.mkdir(exist_ok=True)
            tracer.dump(
                OUT / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "op_s": traced_rounds, "metrics": metrics},
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in tally.violations:
        print(f"gate: {message}", file=sys.stderr)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not tally.violations and tally.nonzero_exits == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
