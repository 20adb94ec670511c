"""Run the compiled flow under AddressSanitizer and UndefinedBehaviorSanitizer, against the package's library.

    PYTHONPATH=src python3 tools/check_flow_sanitized.py

Compiles native._kernel_source() with a small C main program, under
-fsanitize=address,undefined and -fno-sanitize-recover=all (with
-ffp-contract=off, as the library is built), into one program.  That
program calls the library's one flow entry, flows: from x_plus(h) for
n = 0 to 9 and 24 energies, each into rows of exactly n, on arcs whose grids
mix the flow's outcomes, at the default and at loose tolerances, to the
first return to the section; and from six launch points, one call each and
then all in one call, to output times.  Every double it prints must be the
one the package's library returns for the same call (by dynamics._flows),
NaN as NaN.  Exits 1 on a sanitizer report or on a differing value, 0 when
all agree.  Needs a cc with the address and undefined-behaviour sanitizers;
imports no numpy.
"""

from __future__ import annotations

import array
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from eightloop import dynamics, native
from eightloop.geometry import x_plus

CC = ("cc", "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-ffp-contract=off", "-g")

# reads jobs from standard input until its end, each
#   p[7] n x_0 y_0 ... x_{n-1} y_{n-1} m ts[m]
# the flows from the n launch points (x_i, y_i) at t = 0, to the first return to the section where m is -1
# (ts NULL), else to the m output times ts; prints the n rows of native._Row on one line and the 2 n m
# states on the next, in %a
MAIN_C = r"""
#include <stdio.h>
#include <stdlib.h>

void flows(const double *p, double *rows, long n, const double *ts, long m, double *states);

static double *doubles(long n)
{
    double *v = malloc((n > 0 ? n : 1) * sizeof *v), *end = v + n;
    for (double *x = v; x < end; x++)
        if (scanf("%lf", x) != 1)
            exit(2);
    return v;
}

static void print(const double *v, long n)
{
    for (long i = 0; i < n; i++)
        printf(i ? " %a" : "%a", v[i]);
    printf("\n");
}

int main(void)
{
    double p[7];
    long n, m;
    while (scanf("%lf", &p[0]) == 1) {
        for (int i = 1; i < 7; i++)
            if (scanf("%lf", &p[i]) != 1)
                return 2;
        if (scanf("%ld", &n) != 1)
            return 2;
        double *rows = calloc(n * ROW, sizeof *rows); /* exactly n rows, t = 0 and the launch point in each */
        for (long i = 0; i < n; i++)
            if (scanf("%lf %lf", &rows[ROW * i + 2], &rows[ROW * i + 3]) != 2)
                return 2;
        if (scanf("%ld", &m) != 1)
            return 2;
        double *ts = m < 0 ? NULL : doubles(m);
        m = m < 0 ? 0 : m;
        double *states = calloc(2 * n * m, sizeof *states); /* states past a failure stay 0, as in _flows */
        flows(p, rows, n, ts, m, states);
        print(rows, n * ROW);
        print(states, 2 * n * m);
        free(rows);
        free(ts);
        free(states);
    }
    return 0;
}
"""

DEFAULT, LOOSE = (1e-10, 1e-12, 200.0), (1e-2, 1e-4, 200.0)  # (rel_tol, abs_tol, max_time)
# one arc per outcome the section reaches (as in tests/test_dynamics.py), a sweep-like weak arc and a loose one
ARCS = (
    (0.0, 0.0, 0.0, 0.0),
    (-1e-3, 0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0, 0.0),
    (1e150, 0.0, 0.0, 0.0),
    (0.0, 1e308, 0.0, 0.0),
    (7e-4, -3e-4, 5e-4, -9e-4),
    (0.0, 0.05, 0.1, -0.02),
)
TOLERANCES = (DEFAULT, LOOSE)
SIZES = (*range(10), 24)
# (x, y, ts): integrate's output times, none, repeated and from t = 0; an escape, a NaN slope, a long run
TIMES = (
    (1.5, 0.0, (0.0, 0.7, 2.5, 2.5, 6.0)),
    (0.3, -0.2, ()),
    (1.2, 0.4, (9.0,)),
    (1e10, 0.0, (1.0,)),
    (math.nan, 0.0, (1.0,)),
    (0.5, 0.5, tuple(0.25 * i for i in range(201))),
)


def energies(n: int) -> list:
    """n energies from 1e-3 to 40 in geometric steps, whose outcomes differ along a grid."""
    return [1e-3 * 40000.0 ** (i / (n - 1)) if n > 1 else 0.05 for i in range(n)]


def calls() -> list:
    """(lam, tolerances, launch points, ts) of each call.

    Return maps on each arc at each tolerance and grid size, then flows to output times, one a call and all in one.
    """
    done = [
        (lam, tolerances, [(x_plus(h), 0.0) for h in energies(n)], None)
        for tolerances in TOLERANCES
        for lam in ARCS
        for n in SIZES
    ]
    lam = (0.02, 0.01, -0.03, 0.015)
    done += [(lam, DEFAULT, [(x, y)], ts) for x, y, ts in TIMES]
    return [*done, (lam, DEFAULT, [(x, y) for x, y, _ in TIMES], TIMES[0][2])]


def job(lam, tolerances, points, ts) -> str:
    """The program's input line for one call."""
    words = [*lam, *tolerances, len(points), *(v for point in points for v in point), -1 if ts is None else len(ts)]
    return " ".join(v.hex() if isinstance(v, float) else str(v) for v in (*words, *(ts or ())))


def library(lam, tolerances, points, ts) -> list:
    """The package library's two output lines for one call, by dynamics._flows."""
    times = None if ts is None else array.array("d", ts)
    rows, states = dynamics._flows(points, lam, dynamics.IntegratorConfig(*tolerances), times)
    return [[v for row in rows for v in row], list(states)]


def same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def main() -> int:
    cases = calls()
    with tempfile.TemporaryDirectory() as work:
        kernel_c, main_c, program = Path(work, "kernel.c"), Path(work, "main.c"), Path(work, "flow")
        kernel_c.write_text(native._kernel_source())
        main_c.write_text(f"enum {{ ROW = {len(native._Row._fields)} }};\n{MAIN_C}")
        subprocess.run([*CC, "-o", str(program), str(kernel_c), str(main_c), "-lm"], check=True)
        run = subprocess.run(
            [str(program)], input="\n".join(job(*case) for case in cases) + "\n", capture_output=True, text=True
        )
    # the sanitized program runs first: a fault it reports could corrupt this process in the library's call
    if run.returncode != 0 or run.stderr:
        print(f"sanitized flow exited {run.returncode}:\n{run.stderr}", file=sys.stderr)
        return 1
    lines = iter(run.stdout.splitlines())
    differ = 0
    for case in cases:
        for expected in library(*case):
            got = [float.fromhex(v) for v in next(lines, "").split()]
            if len(got) != len(expected) or not all(map(same, got, expected)):
                differ += 1
                print(f"differs from the library: {job(*case)[:120]}", file=sys.stderr)
    maps = sum(len(energies(n)) for n in SIZES) * len(ARCS) * len(TOLERANCES)
    print(f"{len(cases)} calls ({maps} return maps, {2 * len(TIMES)} flows to output times): {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
