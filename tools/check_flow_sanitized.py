"""Run the compiled flow under AddressSanitizer and UndefinedBehaviorSanitizer, against the package's library.

    PYTHONPATH=src python3 tools/check_flow_sanitized.py

Compiles native._kernel_source() with a small C main program, under
-fsanitize=address,undefined and -fno-sanitize-recover=all (with
-ffp-contract=off and -fno-builtin, as the library is built), into one
program.  That program runs return_maps for n = 0 to 9 and 24 energies,
each into an output of exactly n rows, on arcs whose grids mix the flow's
outcomes, at the default and at loose tolerances, and flow to output times.
Every double it prints must be the one the package's library
(native._kernel()) returns for the same call, NaN as NaN.  Exits 1 on a
sanitizer report or on a differing value, 0 when all agree.  Needs a cc with
the address and undefined-behaviour sanitizers; imports no numpy.
"""

from __future__ import annotations

import ctypes
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from eightloop import native

CC = ("cc", "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-ffp-contract=off", "-fno-builtin", "-g")

# reads jobs from standard input until its end, and prints each job's output doubles on one line, in %a:
#   R p[7] n hs[n]        return_maps: n rows of native._Row
#   T p[7] x y m ts[m]    flow from (x, y) at t = 0 to the m output times: status, s[7], then the states at ts
MAIN_C = r"""
#include <stdio.h>
#include <stdlib.h>

void return_maps(const double *p, const double *hs, long n, double *out);
int flow(const double *p, double *s, const double *ts, long n, double *out);

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
    char job;
    long n;
    while (scanf(" %c", &job) == 1) {
        double *p = doubles(7);
        if (job == 'R') {
            if (scanf("%ld", &n) != 1)
                return 2;
            double *hs = doubles(n), *out = malloc(n * ROW * sizeof *out);
            return_maps(p, hs, n, out);
            print(out, n * ROW);
            free(hs);
            free(out);
        } else {
            double s[7] = {0.0};
            if (scanf("%lf %lf %ld", &s[1], &s[2], &n) != 3)
                return 2;
            double *ts = doubles(n), *out = calloc(2 * n, sizeof *out), status; /* states past a failure stay 0 */
            status = flow(p, s, ts, n, out);
            print(&status, 1);
            print(s, 7);
            print(out, 2 * n);
            free(ts);
            free(out);
        }
        free(p);
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


def jobs() -> list:
    """(the program's input line, the library's output lines for it)."""
    kernel, doubles = native._kernel(), lambda values: (ctypes.c_double * max(len(values), 1))(*values)
    done = []
    for tolerances in TOLERANCES:
        for lam in ARCS:
            p = [*lam, *tolerances]
            for n in SIZES:
                hs = energies(n)
                out = (ctypes.c_double * (len(native._Row._fields) * n))()
                kernel.return_maps(doubles(p), doubles(hs), n, out)
                done.append((f"R {' '.join(map(float.hex, p))} {n} {' '.join(map(float.hex, hs))}", [list(out)]))
    for x, y, ts in TIMES:
        p = [0.02, 0.01, -0.03, 0.015, *DEFAULT]
        s, out = (ctypes.c_double * 7)(0.0, x, y), (ctypes.c_double * max(2 * len(ts), 1))()
        status = kernel.flow(doubles(p), s, doubles(ts), len(ts), out)
        line = f"T {' '.join(map(float.hex, p))} {x.hex()} {y.hex()} {len(ts)} {' '.join(map(float.hex, ts))}"
        done.append((line, [[float(status)], list(s), list(out)[: 2 * len(ts)]]))
    return done


def same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        kernel_c, main_c, program = Path(work, "kernel.c"), Path(work, "main.c"), Path(work, "flow")
        kernel_c.write_text(native._kernel_source())
        main_c.write_text(f"enum {{ ROW = {len(native._Row._fields)} }};\n{MAIN_C}")
        subprocess.run([*CC, "-o", str(program), str(kernel_c), str(main_c), "-lm"], check=True)
        cases = jobs()
        run = subprocess.run(
            [str(program)], input="\n".join(line for line, _ in cases) + "\n", capture_output=True, text=True
        )
    if run.returncode != 0 or run.stderr:
        print(f"sanitized flow exited {run.returncode}:\n{run.stderr}", file=sys.stderr)
        return 1
    lines = iter(run.stdout.splitlines())
    differ = 0
    for line, want in cases:
        for expected in want:
            got = [float.fromhex(v) for v in next(lines, "").split()]
            if len(got) != len(expected) or not all(map(same, got, expected)):
                differ += 1
                print(f"differs from the library: {line[:120]}", file=sys.stderr)
    maps = sum(len(energies(n)) for n in SIZES) * len(ARCS) * len(TOLERANCES)
    print(f"{len(cases)} calls ({maps} return maps, {len(TIMES)} flows to output times): {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
