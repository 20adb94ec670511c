"""The package's one compiled C library: the DOP853 flow loop, QUADPACK and its integrands, K and E, and M_k.

dynamics runs its one ODE driver here: a DOP853 flow loop with scipy's
initial step (select_initial_step, its norms by libm's hypot),
step control and error norm, and geometry.vector_field's return expression
written out at every stage, generated from DOP853's tableau (_STAGES and
_WEIGHTS, scipy's coefficients as exact float literals) and from that
expression.  The loop steps LANES = 4 flows at once: each pass makes one
try on every lane, with the stages written once on GCC vectors of four
doubles, and each lane then takes its step control, crossings and escape and
time tests on its own, so that what a lane returns never depends on the
flows beside it.  flows, its one entry, takes rows of _Row, each with a
launch point, and writes into each how its flow ended: the first return to
the section (return_map's, from x_plus(h)) or, given output times, the flow
to each of them (integrate's).  integrals runs
QUADPACK's dqagpe here (with dqk21, dqpsrt and dqelg, as
scipy.integrate.quad runs them for one break point) on the three
oval integrands, and takes K and E from Cephes' ellpk and ellpe (what
scipy.special's ellipkm1 and ellipe compute).  The per-lobe moments
(I0, I2, I4') that M_k combines are here too, by the two evaluators of
_MOMENTS: integrals' closed forms in K and E (exterior_moments, full-contour,
divided by KAPPA) and series' truncated expansions (series_moments, with
series' coefficients as exact float literals).  moments is the one dispatch
between them, and mk_value, melnikov.mk's one call, combines the triple
moments writes into lam1k*I0 + lam4k*I2 + c_k*I4'.  The
flow, the integrands and the moments do float arithmetic operation for
operation as the tests' Python oracles write it: libm's sin, cos, log and
pow stand for math's and for **, the norms are libm's hypot (which the
oracles take through ctypes), and a square is one product, a * a.  So they
return what the oracles do, bit for bit; QUADPACK and K and E return what
scipy's do, bit for bit.  No module of the package imports scipy.

The source is compiled with the system's cc at the first use of the
library in a process, cached in the package's __pycache__ under the sha256
of the source and the compile command, and loaded with ctypes (_kernel); an
import compiles and loads nothing.  Without a cc, or where the compile
fails, that first use raises BuildError.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import inspect
import math
import os
import string
import sysconfig
import textwrap
from pathlib import Path
from typing import NamedTuple

from .geometry import SQRT2, vector_field

ESCAPE_BOUND = 10.0

# scipy's step-control constants for DOP853
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the embedded error estimators are of order 7


# DOP853's tableau (Hairer, Norsett and Wanner) as scipy.integrate.DOP853 holds it, which the tests check,
# with its zero entries dropped: per stage after the first, its node and the (j, a_ij) it sums; then the
# weights of the solution and of the two error estimators, whose last (FSAL) entries are 0
_STAGES = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792))),
    (0.3333333333333333, ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242))),
    (0.25, ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125))),
    (0.3076923076923077, (
        (0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
        (5, -0.015319437748624402), (6, 0.008273789163814023)
    )),
    (0.6512820512820513, (
        (0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726), (5, 27.59209969944671),
        (6, 20.154067550477894), (7, -43.48988418106996)
    )),
    (0.6, (
        (0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843), (5, 21.230051448181193),
        (6, 15.279233632882423), (7, -33.28821096898486), (8, -0.020331201708508627)
    )),
    (0.8571428571428571, (
        (0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295), (5, -8.149787010746927),
        (6, -18.52006565999696), (7, 22.739487099350505), (8, 2.4936055526796523), (9, -3.0467644718982196)
    )),
    (1.0, (
        (0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625), (5, -17.9589318631188),
        (6, 27.94888452941996), (7, -2.8589982771350235), (8, -8.87285693353063), (9, 12.360567175794303),
        (10, 0.6433927460157636)
    )),
)
_WEIGHTS = (
    (
        (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003), (7, -5.801203960010585),
        (8, 0.3111643669578199), (9, -0.1521609496625161), (10, 0.20136540080403034),
        (11, 0.04471061572777259)
    ),
    (
        (0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502), (7, 1.6643771824549864),
        (8, -0.35032884874997366), (9, 0.3341791187130175), (10, 0.08192320648511571),
        (11, -0.022355307863886294)
    ),
    (
        (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003), (7, -5.801203960010585),
        (8, -0.4226823213237919), (9, -0.1521609496625161), (10, 0.20136540080403034),
        (11, 0.02265179219836082)
    ),
)

# integrals' quadrature integrands, in the order of dqagpe's integrand numbers
_INTEGRANDS = ("xiy", "xi_over_y", "i0pp")

# the evaluators of the per-lobe (I0, I2, I4'), in the order of moments' and mk_value's evaluator numbers:
# integrals' closed forms and series' expansions
_MOMENTS = ("exterior", "series")

_C_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_C_NAMES = ("x", "y", "l1", "l2", "l3", "l4")


def _c_expression(node: ast.expr) -> str:
    """node, a term of geometry.vector_field's return expression, as fully parenthesized C on doubles.

    Only the names x, y, l1..l4, numbers (an int as its float), negation,
    +, - and * are translated: on doubles, C does exactly Python's float
    arithmetic with them.  Anything else (a power or a call, say) raises
    ValueError naming the node, rather than compile to other arithmetic.
    """
    if isinstance(node, ast.Name) and node.id in _C_NAMES:
        return node.id
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value).hex()
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return f"(-{_c_expression(node.operand)})"
    if isinstance(node, ast.BinOp) and type(node.op) in _C_OPERATORS:
        return f"({_c_expression(node.left)} {_C_OPERATORS[type(node.op)]} {_c_expression(node.right)})"
    raise ValueError(f"vector_field term {ast.unparse(node)!r} ({type(node).__name__}) has no C translation")


def _field_c() -> tuple:
    """geometry.vector_field's (x', y') expressions in C, in x, y and l1..l4 for lam."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(vector_field)))
    pair = next(node for node in ast.walk(tree) if isinstance(node, ast.Return)).value
    return tuple(_c_expression(component) for component in pair.elts)


# the flow loop's outcomes, in the order of its C enum
_STATUS = ("OK", "STEP_FAILURE", "UNRESOLVED", "TIME_CAP", "ESCAPED", "NON_FINITE_ERROR", "NO_INITIAL_STEP")


class _Row(NamedTuple):
    """One row of the library's flows: a launch point in (t = 0, x and y), how the flow from it ended out.

    status indexes _STATUS; (t, x, y, fx, fy, h_abs, min_h) is the flow's
    state s as it stopped (the slope at t = 0 for NO_INITIAL_STEP, the last
    and least step sizes for STEP_FAILURE); then the return's time and
    energy, NaN unless a flow to the section ended OK (so on every flow to
    output times), and the lobe crossings discarded.
    """

    status: float
    t: float
    x: float
    y: float
    fx: float
    fy: float
    h_abs: float
    min_h: float
    t_cross: float
    h_out: float
    discarded: float


_KERNEL_C = string.Template(
    r"""
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

enum { $status };
enum { $moments }; /* the moment evaluators */
enum { NO_MEMORY = -1 }; /* dqagpe's status where its workspace could not be allocated */
enum { TRYING = -2 };    /* a lane's status while its flow has a try to make */
enum { LANES = 4 };      /* the flows the lane loop steps at once */
enum { RTOL = 4, ATOL, MAX_TIME }; /* p = (l1, l2, l3, l4, rtol, atol, max_time) */
enum { ROW = $row }; /* the length of a row of flows, native._Row */

static const double SAFETY = $safety, MIN_FACTOR = $min_factor, MAX_FACTOR = $max_factor;
static const double ERROR_EXPONENT = $error_exponent, SQRT2 = $sqrt2, ESCAPE_BOUND = $escape_bound;
static const double HALF_PI = $half_pi, KAPPA = $kappa;

/* Python's min and max of two floats: the first argument on ties and NaN */
static inline double py_min(double a, double b) { return b < a ? b : a; }
static inline double py_max(double a, double b) { return b > a ? b : a; }

static inline double min_step(double t) { return 10.0 * (nextafter(t, INFINITY) - t); }

/* geometry.vector_field's (x', y') at (x, y) for lam = (l1, l2, l3, l4), on doubles or on the lane loop's
   vectors of them; its components need not use every one of x, y and l1..l4 */
#define FIELD_X(x, y, l1, l2, l3, l4) $field_x
#define FIELD_Y(x, y, l1, l2, l3, l4) $field_y
#define MAYBE_UNUSED __attribute__((unused))

static inline double field_x(MAYBE_UNUSED double x, MAYBE_UNUSED double y, MAYBE_UNUSED const double *p)
{
    return FIELD_X(x, y, p[0], p[1], p[2], p[3]);
}

static inline double field_y(MAYBE_UNUSED double x, MAYBE_UNUSED double y, MAYBE_UNUSED const double *p)
{
    return FIELD_Y(x, y, p[0], p[1], p[2], p[3]);
}

/* (dt/dy, dx/dy) = (1/y', y/y') at (x, y); UNRESOLVED where y' = 0 */
static inline int in_y(const double *p, double y, double x, double *kt, double *kx)
{
    double dy = field_y(x, y, p);
    if (dy == 0.0)
        return UNRESOLVED;
    *kt = 1.0 / dy;
    *kx = y / dy;
    return OK;
}

/* scipy's error norm of a step of length h from (u0, v0) to (u, v), with error estimates (du5, dv5) and
   (du3, dv3); NaN where the sum of their squares is not finite, so no error test passes */
static inline double error_norm(const double *p, double h, double u0, double v0, double u, double v,
                                double du5, double dv5, double du3, double dv3)
{
    double su = p[ATOL] + py_max(fabs(u0), fabs(u)) * p[RTOL];
    double sv = p[ATOL] + py_max(fabs(v0), fabs(v)) * p[RTOL];
    double eu5 = du5 / su, ev5 = dv5 / sv, eu3 = du3 / su, ev3 = dv3 / sv;
    double e5 = eu5 * eu5 + ev5 * ev5, e3 = eu3 * eu3 + ev3 * ev3;
    if (!isfinite(e5 + e3))
        return NAN;
    if (e5 == 0.0)
        return 0.0;
    return fabs(h) * e5 / sqrt((e5 + 0.01 * e3) * 2.0);
}

/* LANES doubles, one per lane of the lane loop, which GCC adds and multiplies lane by lane */
typedef double lanes_t __attribute__((vector_size(LANES * sizeof(double))));

/* one DOP853 try on each lane: of length h from (u0, v0), with the slope (k0u, k0v) there, to (u, v), with
   the error estimates (du5, dv5) and (du3, dv3) */
struct tries {
    lanes_t h, u0, v0, k0u, k0v, u, v, du5, dv5, du3, dv3;
};

/* The tries of every lane at once, the flow's one copy of DOP853's stages.  Each lane's sums are those of
   a scalar try, term for term, so its numbers do not depend on the other lanes. */
static inline void try_lanes(const double *p, struct tries *w)
{
    const lanes_t h = w->h, u0 = w->u0, v0 = w->v0, k0u = w->k0u, k0v = w->k0v;
    /* lam on every lane: GCC broadcasts a double operand through the stack, which was ~10% slower */
    MAYBE_UNUSED lanes_t l1, l2, l3, l4;
    for (int j = 0; j < LANES; j++) {
        l1[j] = p[0];
        l2[j] = p[1];
        l3[j] = p[2];
        l4[j] = p[3];
    }
    lanes_t u, v, $stage_slopes;
$flow_stages
$flow_step_end
}

/* One lane: the flow that it steps, or none.  s = (t, x, y, x', y', h_abs) is the flow's last accepted step,
   h_abs the step size to try next; s[6] is min_step(t) where a step failed.  next is an accepted try's end. */
struct lane {
    long row; /* the flow's row, -1 where the lane is idle */
    double s[7], next[6];
    double t_bound, t_new, h_abs, min_h; /* the step under way: its bound, its try's end and size, its least size */
    int rejected;                        /* whether the step under way has had a try rejected */
    long i, discarded;                   /* the output times passed and the crossings discarded */
    double cross[2];                     /* the last crossing placed, (t, x) */
};

/* the step under way tries again at l->h_abs: TRYING, or STEP_FAILURE, with s[5] and s[6] that size and
   min_h, once it falls below min_h */
static inline int retry(struct lane *l)
{
    if (l->h_abs >= l->min_h)
        return TRYING;
    l->s[5] = l->h_abs;
    l->s[6] = l->min_h;
    return STEP_FAILURE;
}

/* a step from s under scipy's step control, to end at t_bound if it would pass it: its first try */
static inline int begin_step(struct lane *l, double t_bound)
{
    l->t_bound = t_bound;
    l->min_h = min_step(l->s[0]);
    l->h_abs = py_max(l->s[5], l->min_h);
    l->rejected = 0;
    return retry(l);
}

/* lane j's try in w; an idle lane tries a zero step from the origin */
static inline void load(struct lane *l, struct tries *w, int j)
{
    if (l->row < 0) {
        w->h[j] = w->u0[j] = w->v0[j] = w->k0u[j] = w->k0v[j] = 0.0;
        return;
    }
    l->t_new = py_min(l->s[0] + l->h_abs, l->t_bound);
    w->h[j] = l->t_new - l->s[0];
    w->u0[j] = l->s[1];
    w->v0[j] = l->s[2];
    w->k0u[j] = l->s[3];
    w->k0v[j] = l->s[4];
}

/* scipy's step control on lane j's try in w: OK, with next the step's end, where the try is accepted;
   where it is rejected, retry() at a smaller size; NON_FINITE_ERROR, with s unchanged, where its error norm
   is NaN */
static inline int judge(const double *p, struct lane *l, const struct tries *w, int j)
{
    double h = w->h[j], u = w->u[j], v = w->v[j];
    double err = error_norm(p, h, w->u0[j], w->v0[j], u, v, w->du5[j], w->dv5[j], w->du3[j], w->dv3[j]);
    if (isnan(err))
        return NON_FINITE_ERROR;
    if (err < 1.0) {
        double factor = err == 0.0 ? MAX_FACTOR : py_min(MAX_FACTOR, SAFETY * pow(err, ERROR_EXPONENT));
        l->next[0] = l->t_new;
        l->next[1] = u;
        l->next[2] = v;
        l->next[3] = field_x(u, v, p);
        l->next[4] = field_y(u, v, p);
        l->next[5] = h * (l->rejected ? py_min(1.0, factor) : factor);
        return OK;
    }
    l->h_abs = h * py_max(MIN_FACTOR, SAFETY * pow(err, ERROR_EXPONENT));
    l->rejected = 1;
    return retry(l);
}

/* One step of the flow from s = (t, x, y, x', y', h_abs), with h_abs the step size to try, under scipy's
   step control, retried until accepted; the step ends at t_bound if it would pass it.  s becomes
   (t, x, y, x', y', h_abs) at the step's end, h_abs the size to try next.  STEP_FAILURE once the step
   size falls below min_step(t), with s[5] the last size tried and s[6] min_step(t); NON_FINITE_ERROR, with
   s unchanged, once a try's error norm is NaN.  For the tests: the lane loop's tries on one lane. */
int dop853_step(const double *p, double *s, double t_bound)
{
    struct lane one = {.row = 0}, idle = {.row = -1};
    struct tries w;
    memcpy(one.s, s, sizeof one.s);
    int status = begin_step(&one, t_bound);
    for (; status == TRYING; status = judge(p, &one, &w, 0)) {
        for (int j = 0; j < LANES; j++)
            load(j ? &idle : &one, &w, j);
        try_lanes(p, &w);
    }
    if (status == OK)
        memcpy(one.s, one.next, sizeof one.next);
    memcpy(s, one.s, sizeof one.s);
    return status;
}

/* One step of (t, x) as functions of y (dt/dy = 1/y', dx/dy = y/y') from s = (y, t, x, dt/dy, dx/dy, h)
   to y + h.  s becomes (t, x, error norm) there; UNRESOLVED where y' = 0 at a stage. */
static inline int step_in_y(const double *p, double *s)
{
    const double y = s[0], u0 = s[1], v0 = s[2], k0u = s[3], k0v = s[4], h = s[5];
    double u, v, $stage_slopes;
$y_stages
$y_step_end
    s[0] = u;
    s[1] = v;
    s[2] = err;
    return OK;
}

/* scipy's select_initial_step for DOP853 (error exponent 1/8) from s = (0, x, y, x', y') to t_bound > 0:
   s[5] becomes the first step size to try.  NO_INITIAL_STEP, with s unchanged, where the slope is infinite
   or NaN.  Python's min, max and ** are py_min, py_max and pow; the norms are libm's hypot. */
static int initial_step(const double *p, double *s, double t_bound)
{
    const double x = s[1], y = s[2], fx = s[3], fy = s[4];
    double sx = p[ATOL] + fabs(x) * p[RTOL], sy = p[ATOL] + fabs(y) * p[RTOL];
    double d0 = hypot(x / sx, y / sy) / SQRT2, d1 = hypot(fx / sx, fy / sy) / SQRT2;
    double h0 = py_min(d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1, t_bound);
    if (!(h0 > 0.0))
        return NO_INITIAL_STEP;
    double u = x + h0 * fx, v = y + h0 * fy;
    double d2 = hypot((field_x(u, v, p) - fx) / sx, (field_y(u, v, p) - fy) / sy) / SQRT2 / h0;
    double h1 = d1 <= 1e-15 && d2 <= 1e-15 ? py_max(1e-6, h0 * 1e-3) : pow(0.01 / py_max(d1, d2), 1.0 / 8.0);
    s[5] = py_min(py_min(100.0 * h0, h1), t_bound);
    return OK;
}

/* the step in y and the initial step, exported for the tests; the flow calls them directly */
int dop853_step_in_y(const double *p, double *s) { return step_in_y(p, s); }
int dop853_initial_step(const double *p, double *s, double t_bound) { return initial_step(p, s, t_bound); }

/* (*tc, *xc) where the flow from (x, y > 0) at t, with y' = fy there, meets y = 0 before t_new: one step
   in y from y to 0 (Henon's trick).  That needs y to fall monotonically over the step and the step in y
   to pass the flow's error test, so a step that starts with y rising, meets y' = 0 at a stage, fails
   the test (a NaN error norm among them) or lands outside [t, t_new] is UNRESOLVED. */
static int crossing(const double *p, double t, double x, double y, double fy, double t_new, double *tc, double *xc)
{
    if (fy >= 0.0)
        return UNRESOLVED;
    double s[6] = {y, t, x, 1.0 / fy, y / fy, -y};
    if (step_in_y(p, s) != OK || !(t <= s[0] && s[0] <= t_new) || !(s[2] < 1.0))
        return UNRESOLVED;
    *tc = s[0];
    *xc = s[1];
    return OK;
}

/* What the lane loop runs: the flows of n rows of native._Row, each from the launch point (x, y) at t = 0
   that its fields t, x and y hold.  With ts NULL, the first return to the section from each; with m output
   times ts, the flow of each row to each of them.

   Each lane's flow goes by its steps from s = (t, x, y, x', y', h_abs), and the functions below return
   TRYING where it has a try to make, else how it ended.

   With the output times ts (non-decreasing, not negative), a step ends exactly at each, and row r's state
   at ts[i] is states[2(m r + i)], states[2(m r + i) + 1]; OK once all m are stored.

   With ts NULL, the first return to Sigma = {y = 0, x > sqrt(2)} before t = max_time.  A step that takes
   y from positive to non-positive holds a downward crossing, placed by crossing(); where that is
   UNRESOLVED, the step is retried at half the length, and UNRESOLVED returned once that falls below
   min_step(t).  The return is OK with cross = (t, x) there; crossings inside the lobes are counted in
   discarded, and stepping goes on until TIME_CAP at max_time.

   Either way ESCAPED once a step ends outside the box |x|, |y| < ESCAPE_BOUND, and STEP_FAILURE or
   NON_FINITE_ERROR from a step. */
struct flows {
    const double *p, *ts;
    long n, m, next; /* the rows, the output times and the next row to launch */
    double *rows, *states;
};

/* the flow's next step from s, or its end where s is at its last output time or at max_time */
static int proceed(struct flows *f, struct lane *l)
{
    if (!f->ts)
        return l->s[0] < f->p[MAX_TIME] ? begin_step(l, f->p[MAX_TIME]) : TIME_CAP;
    for (; l->i < f->m && !(l->s[0] < f->ts[l->i]); l->i++) {
        f->states[2 * (f->m * l->row + l->i)] = l->s[1];
        f->states[2 * (f->m * l->row + l->i) + 1] = l->s[2];
    }
    return l->i < f->m ? begin_step(l, f->ts[l->i]) : OK;
}

/* the flow from (x, y) = (s[1], s[2]) at t = s[0] = 0, from the slope there and the initial step, taken
   where the last time the flow may reach (t_end, below) is positive; NO_INITIAL_STEP where that step is not
   found */
static int launch(struct flows *f, struct lane *l)
{
    const double *p = f->p;
    double *s = l->s, t_end = f->ts ? (f->m > 0 ? f->ts[f->m - 1] : 0.0) : p[MAX_TIME];
    l->i = l->discarded = 0;
    l->cross[0] = l->cross[1] = 0.0;
    s[3] = field_x(s[1], s[2], p);
    s[4] = field_y(s[1], s[2], p);
    s[5] = s[6] = 0.0;
    if (t_end > 0.0 && initial_step(p, s, t_end) != OK)
        return NO_INITIAL_STEP;
    return proceed(f, l);
}

/* the flow past its accepted step, from s to next */
static int advance(struct flows *f, struct lane *l)
{
    double *s = l->s, *next = l->next;
    if (!f->ts && s[2] > 0.0 && 0.0 >= next[2]) {
        if (crossing(f->p, s[0], s[1], s[2], s[4], next[0], &l->cross[0], &l->cross[1]) != OK) {
            /* a shorter step ends before the crossing or brings it within reach of an accurate step in y */
            s[5] = 0.5 * (next[0] - s[0]);
            return s[5] < min_step(s[0]) ? UNRESOLVED : proceed(f, l);
        }
        if (l->cross[1] > SQRT2)
            return OK;
        l->discarded++;
    }
    memcpy(s, next, sizeof l->next);
    if (py_max(fabs(s[1]), fabs(s[2])) >= ESCAPE_BOUND)
        return ESCAPED;
    return proceed(f, l);
}

/* Lane l's flow ends with status: its row becomes native._Row, the status, the state s as it stopped, and
   the return's time t_cross, its energy h_out and the crossings discarded.  h_out is geometry.energy((x, 0.0))
   at the return's x, Python's x**4 being pow(x, 4.0); both are NaN unless a flow to the section ended OK.
   The lane then launches the next rows' flows until one has a try to make, and is idle once none is left. */
static void take(struct flows *f, struct lane *l, int status)
{
    for (;;) {
        if (status != TRYING) {
            int placed = !f->ts && status == OK;
            double *out = f->rows + ROW * l->row, x = l->cross[1], y = 0.0;
            out[0] = status;
            memcpy(out + 1, l->s, sizeof l->s);
            out[8] = placed ? l->cross[0] : NAN;
            out[9] = placed ? 0.5 * y * y - 0.5 * x * x + 0.25 * pow(x, 4.0) : NAN;
            out[10] = (double)l->discarded;
        }
        if (f->next == f->n) {
            l->row = -1;
            return;
        }
        l->row = f->next++;
        memcpy(l->s, f->rows + ROW * l->row + 1, 3 * sizeof *l->s);
        status = launch(f, l);
        if (status == TRYING)
            return;
    }
}

/* The lane loop: the flows, LANES at a time.  Each pass makes one try on every lane; a lane whose flow ends
   writes its row and launches the next.  A row depends only on its launch point, p and ts, never on the
   flows beside it in the lanes. */
static void lane_loop(struct flows *f)
{
    struct lane lane[LANES];
    struct tries w;
    for (int j = 0; j < LANES; j++) {
        lane[j].row = -1;
        take(f, &lane[j], TRYING);
    }
    for (;;) {
        int active = 0;
        for (int j = 0; j < LANES; j++) {
            load(&lane[j], &w, j);
            active |= lane[j].row >= 0;
        }
        if (!active)
            return;
        try_lanes(f->p, &w);
        for (int j = 0; j < LANES; j++) {
            if (lane[j].row < 0)
                continue;
            int status = judge(f->p, &lane[j], &w, j);
            if (status == OK)
                status = advance(f, &lane[j]);
            if (status != TRYING)
                take(f, &lane[j], status);
        }
    }
}

/* The library's one entry to the flow: the lane loop on n rows, as the comment on struct flows sets out. */
void flows(const double *p, double *rows, long n, const double *ts, long m, double *states)
{
    lane_loop(&(struct flows){.p = p, .ts = ts, .n = n, .m = m, .rows = rows, .states = states});
}

/* integrals' three integrands of theta on the oval (a, s) = (p[0], p[1]), with the moment's index i = p[2].
   Python's ** on floats is pow. */
double xiy(double theta, const double *p)
{
    double a = p[0], s = p[1], x = a * sin(theta), c = cos(theta);
    return a * a * (c * c) * pow(x, p[2]) * sqrt((x * x + s) / 2.0);
}

double xi_over_y(double theta, const double *p)
{
    double s = p[1], x = p[0] * sin(theta);
    return pow(x, p[2]) * sqrt(2.0 / (x * x + s));
}

double i0pp(double theta, const double *p)
{
    double sin_th = sin(theta), x = p[0] * sin_th;
    return (1.0 + sin_th * sin_th) / pow(x * x + p[1], 1.5);
}

/* the integrands by number, in the order of native._INTEGRANDS */
typedef double (*integrand_t)(double, const double *);
static const integrand_t INTEGRANDS[] = {$integrands};

/* QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983; public domain): dqagpe with its
   helpers dqk21, dqpsrt and dqelg, statement for statement as in the Fortran, d1mach(4), (1) and (2) being
   DBL_EPSILON, DBL_MIN and DBL_MAX.  Arrays are indexed from 1, as there.  This is the routine
   scipy.integrate.quad runs for points=[0.0]. */

static const double XGK[11] = {
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452, 0.930157491355708226001207180059508,
    0.865063366688984510732096688423493, 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784, 0.294392862701460198131126603103866,
    0.148874338981631210884826001129720, 0.000000000000000000000000000000000,
};
static const double WGK[11] = {
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390, 0.054755896574351996031381300244580,
    0.075039674810919952767043140916190, 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707, 0.142775938577060080797094273138717,
    0.147739104901338491374841515972068, 0.149445554002916905664936468389821,
};
static const double WG[5] = {
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697, 0.219086362515982043995534934228163,
    0.269266719309996355091226921569469, 0.295524224714752870173892994651338,
};

/* dqk21: the 21-point Gauss-Kronrod rule for f over [a, b], with the 10-point Gauss rule's error estimate */
static void dqk21(integrand_t f, const double *p, double a, double b, double *result, double *abserr,
                  double *resabs, double *resasc)
{
    double fv1[11], fv2[11];
    double centr = 0.5 * (a + b), hlgth = 0.5 * (b - a), dhlgth = fabs(hlgth);
    double resg = 0.0, fc = f(centr, p), resk = WGK[10] * fc;
    *resabs = fabs(resk);
    for (int j = 1; j <= 5; j++) {
        int jtw = 2 * j;
        double absc = hlgth * XGK[jtw - 1];
        double fval1 = f(centr - absc, p), fval2 = f(centr + absc, p);
        fv1[jtw] = fval1;
        fv2[jtw] = fval2;
        double fsum = fval1 + fval2;
        resg = resg + WG[j - 1] * fsum;
        resk = resk + WGK[jtw - 1] * fsum;
        *resabs = *resabs + WGK[jtw - 1] * (fabs(fval1) + fabs(fval2));
    }
    for (int j = 1; j <= 5; j++) {
        int jtwm1 = 2 * j - 1;
        double absc = hlgth * XGK[jtwm1 - 1];
        double fval1 = f(centr - absc, p), fval2 = f(centr + absc, p);
        fv1[jtwm1] = fval1;
        fv2[jtwm1] = fval2;
        double fsum = fval1 + fval2;
        resk = resk + WGK[jtwm1 - 1] * fsum;
        *resabs = *resabs + WGK[jtwm1 - 1] * (fabs(fval1) + fabs(fval2));
    }
    double reskh = resk * 0.5;
    *resasc = WGK[10] * fabs(fc - reskh);
    for (int j = 1; j <= 10; j++)
        *resasc = *resasc + WGK[j - 1] * (fabs(fv1[j] - reskh) + fabs(fv2[j] - reskh));
    *result = resk * hlgth;
    *resabs = *resabs * dhlgth;
    *resasc = *resasc * dhlgth;
    *abserr = fabs((resk - resg) * hlgth);
    if (*resasc != 0.0 && *abserr != 0.0)
        *abserr = *resasc * fmin(1.0, pow(200.0 * *abserr / *resasc, 1.5));
    if (*resabs > DBL_MIN / (50.0 * DBL_EPSILON))
        *abserr = fmax((DBL_EPSILON * 50.0) * *resabs, *abserr);
}

/* dqpsrt: keeps iord[1..] the subintervals in descending order of error estimate, as far as the limit can
   still need; *maxerr and *ermax become the interval with the nrmax-th largest error and its error */
static void dqpsrt(long limit, long last, long *maxerr, double *ermax, const double *elist, long *iord, long *nrmax)
{
    long i, isucc, j, k, jupbn, jbnd;
    double errmax, errmin;
    if (last <= 2) {
        iord[1] = 1;
        iord[2] = 2;
        goto done;
    }
    errmax = elist[*maxerr];
    if (*nrmax != 1) {
        long ido = *nrmax - 1;
        for (i = 1; i <= ido; i++) {
            isucc = iord[*nrmax - 1];
            if (errmax <= elist[isucc])
                break;
            iord[*nrmax] = isucc;
            *nrmax = *nrmax - 1;
        }
    }
    jupbn = last;
    if (last > limit / 2 + 2)
        jupbn = limit + 3 - last;
    errmin = elist[last];
    jbnd = jupbn - 1;
    /* insert errmax by traversing the list top-down */
    for (i = *nrmax + 1; i <= jbnd; i++) {
        isucc = iord[i];
        if (errmax >= elist[isucc]) {
            /* insert errmin by traversing the list bottom-up */
            iord[i - 1] = *maxerr;
            k = jbnd;
            for (j = i; j <= jbnd; j++) {
                isucc = iord[k];
                if (errmin < elist[isucc]) {
                    iord[k + 1] = last;
                    goto done;
                }
                iord[k + 1] = isucc;
                k = k - 1;
            }
            iord[i] = last;
            goto done;
        }
        iord[i - 1] = isucc;
    }
    iord[jbnd] = *maxerr;
    iord[jupbn] = last;
done:
    *maxerr = iord[*nrmax];
    *ermax = elist[*maxerr];
}

/* dqelg: the epsilon algorithm on epstab[1..*n], the sequence of integral estimates; *result the
   extrapolated value, *abserr its error estimate from the last three results (res3la) */
static void dqelg(long *n, double *epstab, double *result, double *abserr, double *res3la, long *nres)
{
    const long limexp = 50;
    long i, ib, ie, indx, k1, k2, k3, newelm, num;
    double delta1, delta2, delta3, e0, e1, e1abs, e2, e3, epsinf, error, err1, err2, err3, res, ss, tol1, tol2, tol3;
    *nres = *nres + 1;
    *abserr = DBL_MAX;
    *result = epstab[*n];
    if (*n < 3)
        goto done;
    epstab[*n + 2] = epstab[*n];
    newelm = (*n - 1) / 2;
    epstab[*n] = DBL_MAX;
    num = *n;
    k1 = *n;
    for (i = 1; i <= newelm; i++) {
        k2 = k1 - 1;
        k3 = k1 - 2;
        res = epstab[k1 + 2];
        e0 = epstab[k3];
        e1 = epstab[k2];
        e2 = res;
        e1abs = fabs(e1);
        delta2 = e2 - e1;
        err2 = fabs(delta2);
        tol2 = fmax(fabs(e2), e1abs) * DBL_EPSILON;
        delta3 = e1 - e0;
        err3 = fabs(delta3);
        tol3 = fmax(e1abs, fabs(e0)) * DBL_EPSILON;
        if (!(err2 > tol2 || err3 > tol3)) {
            /* e0, e1 and e2 are equal to within machine accuracy: convergence is assumed */
            *result = res;
            *abserr = err2 + err3;
            goto done;
        }
        e3 = epstab[k1];
        epstab[k1] = e1;
        delta1 = e1 - e3;
        err1 = fabs(delta1);
        tol1 = fmax(e1abs, fabs(e3)) * DBL_EPSILON;
        /* two elements very close to each other, or irregular behaviour: omit a part of the table */
        if (err1 <= tol1 || err2 <= tol2 || err3 <= tol3) {
            *n = i + i - 1;
            break;
        }
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3;
        epsinf = fabs(ss * e1);
        if (!(epsinf > 1e-4)) {
            *n = i + i - 1;
            break;
        }
        res = e1 + 1.0 / ss;
        epstab[k1] = res;
        k1 = k1 - 2;
        error = err2 + fabs(res - e2) + err3;
        if (error > *abserr)
            continue;
        *abserr = error;
        *result = res;
    }
    /* shift the table */
    if (*n == limexp)
        *n = 2 * (limexp / 2) - 1;
    ib = (num / 2) * 2 == num ? 2 : 1;
    ie = newelm + 1;
    for (i = 1; i <= ie; i++) {
        epstab[ib] = epstab[ib + 2];
        ib = ib + 2;
    }
    if (num != *n) {
        indx = num - *n + 1;
        for (i = 1; i <= *n; i++) {
            epstab[i] = epstab[indx];
            indx = indx + 1;
        }
    }
    if (*nres < 4) {
        res3la[*nres] = *result;
        *abserr = DBL_MAX;
    } else {
        *abserr = fabs(*result - res3la[3]) + fabs(*result - res3la[2]) + fabs(*result - res3la[1]);
        res3la[1] = res3la[2];
        res3la[2] = res3la[3];
        res3la[3] = *result;
    }
done:
    *abserr = fmax(*abserr, 5.0 * DBL_EPSILON * fabs(*result));
}

/* dqagpe for integrand number integrand (with its p) over [-pi/2, pi/2] with the one break point 0, to
   max(epsabs, epsrel |I|), in at most limit subintervals: out = (result, abserr) and QUADPACK's ier, 0 on
   success, 1 to 5 where the tolerance was not met and 6 for invalid input (limit <= 1); NO_MEMORY where
   the workspace of limit subintervals could not be allocated.  The break points need no sorting, and the
   sign of the result, for b > a, is +1. */
int dqagpe(int integrand, const double *p, double epsabs, double epsrel, long limit, double *out)
{
    const integrand_t f = INTEGRANDS[integrand];
    const double pts[4] = {0.0, -HALF_PI, 0.0, HALF_PI}, epmach = DBL_EPSILON, uflow = DBL_MIN, oflow = DBL_MAX;
    const long npts = 1, npts2 = 3, nint = 2;
    double *alist, *blist, *rlist, *elist, rlist2[53], res3la[4];
    double a1, a2, b1, b2, area, area1, area2, area12, abseps, correc = 0.0, defabs, defab1, defab2, dres, erlarg;
    double erlast, errbnd, errmax, error1, error2, erro12, errsum, ertest, resa, resabs, reseps;
    double result = 0.0, abserr = 0.0;
    long *iord, *level, i, id, ierro, iroff1, iroff2, iroff3, j, jupbnd, k, ksgn, ktmin, last, levcur, levmax;
    long maxerr, nres, nrmax, numrl2;
    int ier = 0, ndin[3], extrap, noext;
    out[0] = result;
    out[1] = abserr;
    if (limit <= npts || (epsabs <= 0.0 && epsrel < fmax(50.0 * epmach, 0.5e-28)))
        return 6;
    double *reals = calloc(limit + 1, 4 * sizeof *reals);
    long *counts = calloc(limit + 1, 2 * sizeof *counts);
    if (!reals || !counts) {
        free(reals);
        free(counts);
        return NO_MEMORY;
    }
    alist = reals, blist = alist + limit + 1, rlist = blist + limit + 1, elist = rlist + limit + 1;
    iord = counts, level = iord + limit + 1;

    /* compute first integral and error approximations */
    resabs = 0.0;
    a1 = pts[1];
    for (i = 1; i <= nint; i++) {
        b1 = pts[i + 1];
        dqk21(f, p, a1, b1, &area1, &error1, &defabs, &resa);
        abserr = abserr + error1;
        result = result + area1;
        ndin[i] = 0;
        if (error1 == resa && error1 != 0.0)
            ndin[i] = 1;
        resabs = resabs + defabs;
        level[i] = 0;
        elist[i] = error1;
        alist[i] = a1;
        blist[i] = b1;
        rlist[i] = area1;
        iord[i] = i;
        a1 = b1;
    }
    errsum = 0.0;
    for (i = 1; i <= nint; i++) {
        if (ndin[i] == 1)
            elist[i] = abserr;
        errsum = errsum + elist[i];
    }

    /* test on accuracy */
    last = nint;
    dres = fabs(result);
    errbnd = fmax(epsabs, epsrel * dres);
    if (abserr <= 100.0 * epmach * resabs && abserr > errbnd)
        ier = 2;
    for (i = 1; i <= npts; i++) {
        long ind1 = iord[i];
        k = 0;
        for (j = i + 1; j <= nint; j++) {
            long ind2 = iord[j];
            if (elist[ind1] > elist[ind2])
                continue;
            ind1 = ind2;
            k = j;
        }
        if (ind1 == iord[i])
            continue;
        iord[k] = iord[i];
        iord[i] = ind1;
    }
    if (limit < npts2)
        ier = 1;
    if (ier != 0 || abserr <= errbnd)
        goto end;

    /* initialization */
    rlist2[1] = result;
    maxerr = iord[1];
    errmax = elist[maxerr];
    area = result;
    nrmax = 1;
    nres = 0;
    numrl2 = 1;
    ktmin = 0;
    extrap = 0;
    noext = 0;
    erlarg = errsum;
    ertest = errbnd;
    levmax = 1;
    iroff1 = 0;
    iroff2 = 0;
    iroff3 = 0;
    ierro = 0;
    abserr = oflow;
    ksgn = -1;
    if (dres >= (1.0 - 50.0 * epmach) * resabs)
        ksgn = 1;

    /* main loop: bisect the subinterval with the nrmax-th largest error estimate */
    for (last = npts2; last <= limit; last++) {
        levcur = level[maxerr] + 1;
        a1 = alist[maxerr];
        b1 = 0.5 * (alist[maxerr] + blist[maxerr]);
        a2 = b1;
        b2 = blist[maxerr];
        erlast = errmax;
        dqk21(f, p, a1, b1, &area1, &error1, &resa, &defab1);
        dqk21(f, p, a2, b2, &area2, &error2, &resa, &defab2);

        /* improve previous approximations to integral and error and test for accuracy */
        area12 = area1 + area2;
        erro12 = error1 + error2;
        errsum = errsum + erro12 - errmax;
        area = area + area12 - rlist[maxerr];
        if (!(defab1 == error1 || defab2 == error2)) {
            if (!(fabs(rlist[maxerr] - area12) > 1e-5 * fabs(area12) || erro12 < 0.99 * errmax)) {
                if (extrap)
                    iroff2 = iroff2 + 1;
                else
                    iroff1 = iroff1 + 1;
            }
            if (last > 10 && erro12 > errmax)
                iroff3 = iroff3 + 1;
        }
        level[maxerr] = levcur;
        level[last] = levcur;
        rlist[maxerr] = area1;
        rlist[last] = area2;
        errbnd = fmax(epsabs, epsrel * fabs(area));

        /* roundoff, the limit and bad integrand behaviour at a point set the error flag */
        if (iroff1 + iroff2 >= 10 || iroff3 >= 20)
            ier = 2;
        if (iroff2 >= 5)
            ierro = 3;
        if (last == limit)
            ier = 1;
        if (fmax(fabs(a1), fabs(b2)) <= (1.0 + 100.0 * epmach) * (fabs(a2) + 1000.0 * uflow))
            ier = 4;

        /* append the newly-created intervals to the list */
        if (error2 > error1) {
            alist[maxerr] = a2;
            alist[last] = a1;
            blist[last] = b1;
            rlist[maxerr] = area2;
            rlist[last] = area1;
            elist[maxerr] = error2;
            elist[last] = error1;
        } else {
            alist[last] = a2;
            blist[maxerr] = b1;
            blist[last] = b2;
            elist[maxerr] = error1;
            elist[last] = error2;
        }
        dqpsrt(limit, last, &maxerr, &errmax, elist, iord, &nrmax);
        if (errsum <= errbnd)
            goto sum;
        if (ier != 0)
            goto final;
        if (noext)
            continue;
        erlarg = erlarg - erlast;
        if (levcur + 1 <= levmax)
            erlarg = erlarg + erro12;
        if (!extrap) {
            /* test whether the interval to be bisected next is the smallest interval */
            if (level[maxerr] + 1 <= levmax)
                continue;
            extrap = 1;
            nrmax = 2;
        }
        if (!(ierro == 3 || erlarg <= ertest)) {
            /* the smallest interval has the largest error: before bisecting, decrease the sum of the
               errors over the larger intervals (erlarg) and perform extrapolation */
            id = nrmax;
            jupbnd = last;
            if (last > 2 + limit / 2)
                jupbnd = limit + 3 - last;
            for (k = id; k <= jupbnd; k++) {
                maxerr = iord[nrmax];
                errmax = elist[maxerr];
                if (level[maxerr] + 1 <= levmax)
                    goto next;
                nrmax = nrmax + 1;
            }
        }

        /* perform extrapolation */
        numrl2 = numrl2 + 1;
        rlist2[numrl2] = area;
        if (numrl2 > 2) {
            dqelg(&numrl2, rlist2, &reseps, &abseps, res3la, &nres);
            ktmin = ktmin + 1;
            if (ktmin > 5 && abserr < 1e-3 * errsum)
                ier = 5;
            if (!(abseps >= abserr)) {
                ktmin = 0;
                abserr = abseps;
                result = reseps;
                correc = erlarg;
                ertest = fmax(epsabs, epsrel * fabs(reseps));
                if (abserr < ertest)
                    goto final;
            }
            /* prepare bisection of the smallest interval */
            if (numrl2 == 1)
                noext = 1;
            if (ier >= 5)
                goto final;
        }
        maxerr = iord[1];
        errmax = elist[maxerr];
        nrmax = 1;
        extrap = 0;
        levmax = levmax + 1;
        erlarg = errsum;
    next:;
    }

final: /* set the final result */
    if (abserr == oflow)
        goto sum;
    if (ier + ierro != 0) {
        if (ierro == 3)
            abserr = abserr + correc;
        if (ier == 0)
            ier = 3;
        if (result != 0.0 && area != 0.0) {
            if (abserr / fabs(result) > errsum / fabs(area))
                goto sum;
        } else {
            if (abserr > errsum)
                goto sum;
            if (area == 0.0)
                goto end;
        }
    }
    /* test on divergence */
    if (!(ksgn == -1 && fmax(fabs(result), fabs(area)) <= resabs * 0.01))
        if (0.01 > result / area || result / area > 100.0 || errsum > fabs(area))
            ier = 6;
    goto end;

sum: /* compute global integral sum */
    result = 0.0;
    for (k = 1; k <= last; k++)
        result = result + rlist[k];
    abserr = errsum;

end:
    if (ier > 2)
        ier = ier - 1;
    out[0] = result;
    out[1] = abserr;
    free(reals);
    free(counts);
    return ier;
}

/* Cephes (Moshier, 1984-1992; the ellpk and ellpe that scipy.special's ellipkm1 and ellipe run): K(1 - x)
   and E(m), complete elliptic integrals of the first and second kind, by their polynomial pairs and polevl */
static const double ELLPK_P[11] = {
    1.37982864606273237150E-4, 2.28025724005875567385E-3, 7.97404013220415179367E-3, 9.85821379021226008714E-3,
    6.87489687449949877925E-3, 6.18901033637687613229E-3, 8.79078273952743772254E-3, 1.49380448916805252718E-2,
    3.08851465246711995998E-2, 9.65735902811690126535E-2, 1.38629436111989062502E0,
};
static const double ELLPK_Q[11] = {
    2.94078955048598507511E-5, 9.14184723865917226571E-4, 5.94058303753167793257E-3, 1.54850516649762399335E-2,
    2.39089602715924892727E-2, 3.01204715227604046988E-2, 3.73774314173823228969E-2, 4.88280347570998239232E-2,
    7.03124996963957469739E-2, 1.24999999999870820058E-1, 4.99999999999999999821E-1,
};
static const double ELLPK_C1 = 1.3862943611198906188E0; /* log(4) */
static const double ELLPE_P[11] = {
    1.53552577301013293365E-4, 2.50888492163602060990E-3, 8.68786816565889628429E-3, 1.07350949056076193403E-2,
    7.77395492516787092951E-3, 7.58395289413514708519E-3, 1.15688436810574127319E-2, 2.18317996015557253103E-2,
    5.68051945617860553470E-2, 4.43147180560990850618E-1, 1.00000000000000000299E0,
};
static const double ELLPE_Q[10] = {
    3.27954898576485872656E-5, 1.00962792679356715133E-3, 6.50609489976927491433E-3, 1.68862163993311317300E-2,
    2.61769742454493659583E-2, 3.34833904888224918614E-2, 4.27180926518931511717E-2, 5.85936634471101055642E-2,
    9.37499997197644278445E-2, 2.49999999999888314361E-1,
};
static const double MACHEP = 0x1p-53;

/* the polynomial of degree n with coefficients coef (highest first) at x, by Horner's rule */
static double polevl(double x, const double *coef, int n)
{
    double ans = *coef++;
    do
        ans = ans * x + *coef++;
    while (--n);
    return ans;
}

static double cephes_ellpk(double x)
{
    if (x < 0.0)
        return NAN;
    if (x > 1.0) {
        if (isinf(x))
            return 0.0;
        return cephes_ellpk(1 / x) / sqrt(x);
    }
    if (x > MACHEP)
        return polevl(x, ELLPK_P, 10) - log(x) * polevl(x, ELLPK_Q, 10);
    if (x == 0.0)
        return INFINITY;
    return ELLPK_C1 - 0.5 * log(x);
}

static double cephes_ellpe(double x)
{
    x = 1.0 - x;
    if (x <= 0.0) {
        if (x == 0.0)
            return 1.0;
        return NAN;
    }
    if (x > 1.0)
        return cephes_ellpe(1.0 - 1 / x) * sqrt(x);
    return polevl(x, ELLPE_P, 10) - log(x) * (x * polevl(x, ELLPE_Q, 9));
}

/* the two, exported for the tests; the closed forms call them directly */
double ellpk(double x) { return cephes_ellpk(x); }
double ellpe(double x) { return cephes_ellpe(x); }

/* integrals' closed forms: the full-contour (I0, I2, I4') at h > 0.  With r = sqrt(1+4h), s = 4h/(r+1),
   a^2 = 2+s, c^2 = 2r and m = a^2/c^2, the integrals S_n of sin^{2n} phi / sqrt(1 - m sin^2 phi) over
   [0, pi/2] are S_0 = K(m) = ellpk(1 - m), with 1 - m = s/c^2, S_1 = (K - E(m))/m and
   (2n+1) m S_{n+1} = 2n (1+m) S_n - (2n-1) S_{n-1}. */
static void exterior_moments(double h, double *out)
{
    double r = sqrt(1.0 + 4.0 * h), s = 4.0 * h / (r + 1.0), a2 = 2.0 + s, c2 = 2.0 * r, m = a2 / c2;
    double s0 = cephes_ellpk(s / c2), s1 = (s0 - cephes_ellpe(m)) / m;
    double s2 = (2.0 * (1.0 + m) * s1 - s0) / (3.0 * m);
    double s3 = (4.0 * (1.0 + m) * s2 - 3.0 * s1) / (5.0 * m);
    double w = 2.0 * SQRT2 * a2 * sqrt(c2);
    out[0] = w * (s1 - m * s2);
    out[1] = w * a2 * (s1 - (1.0 + m) * s2 + m * s3);
    out[2] = 2.0 * w * a2 / c2 * (s0 - 2.0 * s1 + s2);
}

/* series' coefficients, lowest order first: the h^n ln h parts of I0 and I2 and their analytic parts */
static const double LOG_I0[] = {$log_i0};
static const double LOG_I2[] = {$log_i2};
static const double ANALYTIC_I0[] = {$analytic_i0};
static const double ANALYTIC_I2[] = {$analytic_i2};
#define N_COEFFS(a) ((int)(sizeof a / sizeof *a))

/* the polynomial with the n coefficients coef (lowest first) at h, by Horner's rule from 0.0 */
static double horner(const double *coef, int n, double h)
{
    double acc = 0.0;
    while (n--)
        acc = acc * h + coef[n];
    return acc;
}

/* series' truncated expansions: the per-lobe (I0, I2, I4') at 0 <= h <= 0.2, I4' by the relation
   (4h+1) I4' = 4h I0 + 5 I2; at h = 0 the limit constants */
static void series_moments(double h, double *out)
{
    double i0, i2;
    if (h == 0.0) {
        i0 = ANALYTIC_I0[0];
        i2 = ANALYTIC_I2[0];
    } else {
        double ln = log(h);
        i0 = horner(LOG_I0, N_COEFFS(LOG_I0), h) * ln + horner(ANALYTIC_I0, N_COEFFS(ANALYTIC_I0), h);
        i2 = horner(LOG_I2, N_COEFFS(LOG_I2), h) * ln + horner(ANALYTIC_I2, N_COEFFS(ANALYTIC_I2), h);
    }
    out[0] = i0;
    out[1] = i2;
    out[2] = (4.0 * h * i0 + 5.0 * i2) / (4.0 * h + 1.0);
}

/* out = the per-lobe (I0, I2, I4') at h by evaluator (in native._MOMENTS' order): the full-contour closed forms
   divided by KAPPA, or the series; h is in its domain (h > 0 and finite for EXTERIOR, 0 <= h <= 0.2 for SERIES) */
void moments(int evaluator, double h, double *out)
{
    if (evaluator == EXTERIOR) {
        exterior_moments(h, out);
        for (int i = 0; i < 3; i++)
            out[i] = out[i] / KAPPA;
    } else
        series_moments(h, out);
}

/* M_k = lam1k I0 + lam4k I2 + ck I4' at h on the per-lobe moments of evaluator */
double mk_value(int evaluator, double h, double lam1k, double lam4k, double ck)
{
    double v[3];
    moments(evaluator, h, v);
    return lam1k * v[0] + lam4k * v[1] + ck * v[2];
}
"""
)


def _kernel_source() -> str:
    """The library's C: the tableau, the field and the constants above, and series', written into _KERNEL_C.

    The flow's stages are written once, on the lane loop's vectors
    (try_lanes), and the step in y's on doubles.  The stage sums are
    written out with the coefficients as exact hexadecimal literals and
    summed left to right, so the arithmetic is that of loops over the
    tableau, and each slope is vector_field's own expression; nothing is
    called per stage.  The series' log and analytic
    coefficients of I0 and I2 (series._LOG_FLOATS and _ANALYTIC_FLOATS) and
    KAPPA are written the same way, as exact literals.
    """
    from . import series  # at call time: series imports integrals, which imports this module

    field_x, field_y = _field_c()

    def combination(row, component):
        return " + ".join(f"{a.hex()} * k{j}{component}" for j, a in row)

    def stage(row, component):
        return f"{component}0 + h * ({combination(row, component)})"

    indent = "    "
    flow_stages = [
        f"{indent}u = {stage(row, 'u')};\n{indent}v = {stage(row, 'v')};\n"
        f"{indent}k{i}u = FIELD_X(u, v, l1, l2, l3, l4);\n{indent}k{i}v = FIELD_Y(u, v, l1, l2, l3, l4);"
        for i, (_, row) in enumerate(_STAGES, 1)
    ]
    y_stages = [
        f"{indent}if (in_y(p, y + {c.hex()} * h, {stage(row, 'v')}, &k{i}u, &k{i}v) != OK)\n"
        f"{indent}    return UNRESOLVED;"
        for i, (c, row) in enumerate(_STAGES, 1)
    ]
    b, e5, e3 = _WEIGHTS
    errors = {f"d{part}{order}": combination(w, part) for order, w in ((5, e5), (3, e3)) for part in "uv"}
    flow_step_end = "\n".join(
        [f"w->u = {stage(b, 'u')};", f"w->v = {stage(b, 'v')};", *(f"w->{d} = {sum_};" for d, sum_ in errors.items())]
    )
    y_step_end = (
        f"u = {stage(b, 'u')};\nv = {stage(b, 'v')};\n"
        f"double err = error_norm(p, h, u0, v0, u, v, {', '.join(errors.values())});"
    )
    return _KERNEL_C.substitute(
        status=", ".join(_STATUS),
        row=len(_Row._fields),
        moments=", ".join(name.upper() for name in _MOMENTS),
        safety=_SAFETY.hex(),
        min_factor=_MIN_FACTOR.hex(),
        max_factor=_MAX_FACTOR.hex(),
        error_exponent=_ERROR_EXPONENT.hex(),
        sqrt2=SQRT2.hex(),
        half_pi=(0.5 * math.pi).hex(),
        escape_bound=float(ESCAPE_BOUND).hex(),
        field_x=field_x,
        field_y=field_y,
        stage_slopes=", ".join(f"k{i}u, k{i}v" for i in range(1, len(_STAGES) + 1)),
        flow_stages="\n".join(flow_stages),
        y_stages="\n".join(y_stages),
        integrands=", ".join(_INTEGRANDS),
        flow_step_end=textwrap.indent(flow_step_end, indent),
        y_step_end=textwrap.indent(y_step_end, indent),
        kappa=series.KAPPA.hex(),
        log_i0=", ".join(c.hex() for c in series._LOG_FLOATS["I0"]),
        log_i2=", ".join(c.hex() for c in series._LOG_FLOATS["I2"]),
        analytic_i0=", ".join(c.hex() for c in series._ANALYTIC_FLOATS["I0"]),
        analytic_i2=", ".join(c.hex() for c in series._ANALYTIC_FLOATS["I2"]),
    )


# -ffp-contract=off keeps the compiler from fusing a multiply and an add (FMA),
# so each double operation is the one Python (or scipy's QUADPACK and Cephes)
# does.  Builtins stay on: the exact fabs, sqrt and memcpy become instructions,
# and xiy's sin and cos one call of glibc's sincos, which gives their bits (the
# integrand and QUADPACK tests check them bit for bit); pow, log and hypot stay
# libm's, which no rewrite without -ffast-math touches.
_CC = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")


class BuildError(RuntimeError):
    """The library could not be built: there is no cc on PATH, or cc failed on the source."""


def _library(source: str, directory: Path) -> Path:
    """The shared library _CC compiles from source, in directory.

    Its name holds the sha256 of the source, the compile command and the
    platform, and a library of that name already there is reused.  The
    compiler writes a temporary file that replaces into place, so processes
    that build at once never load a half-written library.  A build then
    removes the libraries of other sources from directory (the other files
    named by a sha256 and .so), which no run loads again once the source has
    moved on; one that cannot be removed stays.  BuildError, naming cc, if
    there is no cc on PATH or the compile fails.
    """
    key = "\n".join((source, *_CC, sysconfig.get_platform()))
    library = directory / f"{hashlib.sha256(key.encode()).hexdigest()}.so"
    if library.exists():
        return library
    import subprocess  # only a build needs these two, so a run on a cached library never loads them
    import tempfile

    what = "the C kernel of the flow, the quadrature and K and E"
    with tempfile.TemporaryDirectory(dir=directory) as work:
        c_file, built = Path(work, "kernel.c"), Path(work, library.name)
        c_file.write_text(source)
        try:
            subprocess.run([*_CC, "-o", str(built), str(c_file), "-lm"], check=True, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise BuildError(f"{what} is compiled with cc, and no cc is on PATH") from exc
        except subprocess.CalledProcessError as exc:
            raise BuildError(f"cc failed to compile {what}: {exc.stderr.strip()}") from exc
        os.replace(built, library)
    for stale in directory.glob("[0-9a-f]" * 64 + ".so"):
        if stale != library:
            try:
                stale.unlink()
            except OSError:
                pass
    return library


_DOUBLES = ctypes.POINTER(ctypes.c_double)


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled library, built at its first use in the process and kept in __pycache__.

    A private temporary directory stands in where __pycache__ cannot be written.
    """
    source = _kernel_source()
    try:
        cache = Path(__file__).resolve().parent / "__pycache__"
        cache.mkdir(exist_ok=True)
        library = _library(source, cache)
    except OSError:
        import tempfile

        library = _library(source, Path(tempfile.mkdtemp()))
    kernel = ctypes.CDLL(str(library))
    for name, restype, argtypes in (
        ("flows", None, (_DOUBLES, _DOUBLES, ctypes.c_long, _DOUBLES, ctypes.c_long, _DOUBLES)),
        ("dop853_step", ctypes.c_int, (_DOUBLES, _DOUBLES, ctypes.c_double)),
        ("dop853_step_in_y", ctypes.c_int, (_DOUBLES, _DOUBLES)),
        ("dop853_initial_step", ctypes.c_int, (_DOUBLES, _DOUBLES, ctypes.c_double)),
        ("dqagpe", ctypes.c_int, (ctypes.c_int, _DOUBLES, ctypes.c_double, ctypes.c_double, ctypes.c_long, _DOUBLES)),
        ("ellpk", ctypes.c_double, (ctypes.c_double,)),
        ("ellpe", ctypes.c_double, (ctypes.c_double,)),
        ("moments", None, (ctypes.c_int, ctypes.c_double, _DOUBLES)),
        ("mk_value", ctypes.c_double, (ctypes.c_int, *4 * (ctypes.c_double,))),
        *((integrand, ctypes.c_double, (ctypes.c_double, _DOUBLES)) for integrand in _INTEGRANDS),
    ):
        getattr(kernel, name).argtypes = argtypes
        getattr(kernel, name).restype = restype
    return kernel
