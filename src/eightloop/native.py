"""The package's one compiled C library: the DOP853 flow loop and the quadrature integrands.

dynamics runs its one ODE driver here: a DOP853 flow loop with scipy's
tableau, step control and error norm, and geometry.vector_field's return
expression written out at every stage, generated from the tableau and from
that expression.  integrals hands the three oval integrands to QUADPACK from
here, as scipy.LowLevelCallable, so quad runs without calling back into
Python.  Both do Python's float arithmetic operation for operation (libm's
sin, cos and pow stand for math's and for **), so they return what the same
code on Python floats would, bit for bit.

The source is compiled with the system's cc at the first flow or QUADPACK
call of a process, cached in the package's __pycache__ under the sha256 of
the source and the compile command, and loaded with ctypes (_kernel); an
import compiles and loads nothing.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import inspect
import os
import string
import subprocess
import sysconfig
import tempfile
import textwrap
from pathlib import Path

from scipy.integrate import DOP853

from .geometry import SQRT2, vector_field

ESCAPE_BOUND = 10.0
MAX_DISCARD = 64  # off-section crossings a return map may discard before TimeCap

# scipy's step-control constants for DOP853
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the embedded error estimators are of order 7


def _sparse(weights) -> tuple:
    return tuple((j, float(w)) for j, w in enumerate(weights) if w)


# scipy's DOP853 tableau with its zero entries dropped: per stage after
# the first, its node and the (j, a_ij) it sums; then the weights of the
# solution and of the two error estimators, whose last (FSAL) entries are 0
_STAGES = tuple((float(DOP853.C[i]), _sparse(DOP853.A[i, :i])) for i in range(1, DOP853.n_stages))
_WEIGHTS = tuple(_sparse(w) for w in (DOP853.B, DOP853.E5, DOP853.E3))

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
_STATUS = ("OK", "STEP_FAILURE", "UNRESOLVED", "ABSORBED", "TIME_CAP", "ESCAPED", "OVERFLOW", "ZERO_DIVISION")

_KERNEL_C = string.Template(
    r"""
#include <math.h>
#include <string.h>

enum { $status };
enum { RTOL = 4, ATOL, MAX_TIME }; /* p = (l1, l2, l3, l4, rtol, atol, max_time) */

static const double SAFETY = $safety, MIN_FACTOR = $min_factor, MAX_FACTOR = $max_factor;
static const double ERROR_EXPONENT = $error_exponent, SQRT2 = $sqrt2, ESCAPE_BOUND = $escape_bound;
static const long MAX_DISCARD = $max_discard;

/* Python's min and max of two floats: the first argument on ties and NaN */
static inline double py_min(double a, double b) { return b < a ? b : a; }
static inline double py_max(double a, double b) { return b > a ? b : a; }

/* a ** b as Python computes it on floats; where Python raises OverflowError, *status becomes OVERFLOW */
static inline double py_pow(double a, double b, int *status)
{
    double r = pow(a, b);
    if (isinf(r) && isfinite(a) && *status == OK)
        *status = OVERFLOW;
    return r;
}

static inline double min_step(double t) { return 10.0 * (nextafter(t, INFINITY) - t); }

/* geometry.vector_field */
static inline double field_x(double x, double y, const double *p)
{
    double l1 = p[0], l2 = p[1], l3 = p[2], l4 = p[3];
    return $field_x;
}

static inline double field_y(double x, double y, const double *p)
{
    double l1 = p[0], l2 = p[1], l3 = p[2], l4 = p[3];
    return $field_y;
}

/* (dt/dy, dx/dy) = (1/y', y/y') at (x, y); ZERO_DIVISION where y' = 0 */
static inline int in_y(const double *p, double y, double x, double *kt, double *kx)
{
    double dy = field_y(x, y, p);
    if (dy == 0.0)
        return ZERO_DIVISION;
    *kt = 1.0 / dy;
    *kx = y / dy;
    return OK;
}

/* scipy's error norm of a step of length h from (u0, v0) to (u, v), with error estimates (du5, dv5) and (du3, dv3) */
static inline double error_norm(const double *p, double h, double u0, double v0, double u, double v,
                                double du5, double dv5, double du3, double dv3, int *status)
{
    double su = p[ATOL] + py_max(fabs(u0), fabs(u)) * p[RTOL];
    double sv = p[ATOL] + py_max(fabs(v0), fabs(v)) * p[RTOL];
    double e5 = py_pow(du5 / su, 2.0, status) + py_pow(dv5 / sv, 2.0, status);
    double e3 = py_pow(du3 / su, 2.0, status) + py_pow(dv3 / sv, 2.0, status);
    if (e5 == 0.0 && e3 == 0.0)
        return 0.0;
    double d = sqrt((e5 + 0.01 * e3) * 2.0);
    if (d == 0.0 && *status == OK)
        *status = ZERO_DIVISION;
    return fabs(h) * e5 / d;
}

/* One step of the flow from s = (t, x, y, x', y', h_abs), with h_abs the step size to try, under scipy's
   step control, retried until accepted; the step ends at t_bound if it would pass it.  s becomes
   (t, x, y, x', y', h_abs) at the step's end, h_abs the size to try next.  STEP_FAILURE once the step
   size falls below min_step(t), with s[5] the last size tried and s[6] min_step(t). */
int dop853_step(const double *p, double *s, double t_bound)
{
    const double t = s[0], u0 = s[1], v0 = s[2], k0u = s[3], k0v = s[4], min_h = min_step(t);
    double h_abs = py_max(s[5], min_h), u, v, $stage_slopes;
    int rejected = 0;
    while (h_abs >= min_h) {
        double t_new = py_min(t + h_abs, t_bound);
        double h = t_new - t;
$flow_stages
$step_end
        if (status != OK)
            return status;
        if (err < 1.0) {
            double factor = err == 0.0 ? MAX_FACTOR : py_min(MAX_FACTOR, SAFETY * pow(err, ERROR_EXPONENT));
            s[0] = t_new;
            s[1] = u;
            s[2] = v;
            s[3] = field_x(u, v, p);
            s[4] = field_y(u, v, p);
            s[5] = h * (rejected ? py_min(1.0, factor) : factor);
            return OK;
        }
        h_abs = h * py_max(MIN_FACTOR, SAFETY * pow(err, ERROR_EXPONENT));
        rejected = 1;
    }
    s[5] = h_abs;
    s[6] = min_h;
    return STEP_FAILURE;
}

/* One step of (t, x) as functions of y (dt/dy = 1/y', dx/dy = y/y') from s = (y, t, x, dt/dy, dx/dy, h)
   to y + h.  s becomes (t, x, error norm) there; ZERO_DIVISION where y' = 0 at a stage. */
int dop853_step_in_y(const double *p, double *s)
{
    const double y = s[0], u0 = s[1], v0 = s[2], k0u = s[3], k0v = s[4], h = s[5];
    double u, v, $stage_slopes;
$y_stages
$step_end
    s[0] = u;
    s[1] = v;
    s[2] = err;
    return status;
}

/* (*tc, *xc) where the flow from (x, y > 0) at t, with y' = fy there, meets y = 0 before t_new: one step
   in y from y to 0 (Henon's trick).  That needs y to fall monotonically over the step and the step in y
   to pass the flow's error test, so a step that starts with y rising, meets y' = 0 at a stage, fails
   the test or lands outside [t, t_new] is UNRESOLVED. */
static int crossing(const double *p, double t, double x, double y, double fy, double t_new, double *tc, double *xc)
{
    if (fy >= 0.0)
        return UNRESOLVED;
    double s[6] = {y, t, x, 1.0 / fy, y / fy, -y};
    int status = dop853_step_in_y(p, s);
    if (status == ZERO_DIVISION)
        return UNRESOLVED;
    if (status != OK)
        return status;
    if (!(t <= s[0] && s[0] <= t_new) || s[2] >= 1.0)
        return UNRESOLVED;
    *tc = s[0];
    *xc = s[1];
    return OK;
}

/* The flow from s = (t, x, y, x', y', h_abs) by dop853_step; s holds the last accepted step throughout.

   With n output times ts (non-decreasing, not before t), a step ends exactly at each, and out[2i],
   out[2i + 1] is the state there; OK once all n are stored.

   With ts NULL, the first return to Sigma = {y = 0, x > sqrt(2)} before t = max_time.  A step that takes
   y from positive to non-positive holds a downward crossing, placed by crossing(); where that is
   UNRESOLVED, the step is retried at half the length, and UNRESOLVED returned once that falls below
   min_step(t).  The return is OK with out = (t, x) there; crossings inside the lobes are counted in
   out[2] and discarded, and stepping goes on: ABSORBED once MAX_DISCARD are, TIME_CAP at max_time.

   Either way ESCAPED once a step ends outside the box |x|, |y| < ESCAPE_BOUND, and STEP_FAILURE, OVERFLOW
   or ZERO_DIVISION from a step. */
int flow(const double *p, double *s, const double *ts, long n, double *out)
{
    long i = 0, discarded = 0;
    double next[7], t_bound;
    for (;;) {
        if (ts) {
            for (; i < n && !(s[0] < ts[i]); i++) {
                out[2 * i] = s[1];
                out[2 * i + 1] = s[2];
            }
            if (i == n)
                return OK;
            t_bound = ts[i];
        } else {
            out[2] = (double)discarded;
            if (!(s[0] < p[MAX_TIME]))
                return TIME_CAP;
            t_bound = p[MAX_TIME];
        }
        memcpy(next, s, sizeof next);
        int status = dop853_step(p, next, t_bound);
        if (status != OK) {
            s[5] = next[5];
            s[6] = next[6];
            return status;
        }
        if (!ts && s[2] > 0.0 && 0.0 >= next[2]) {
            status = crossing(p, s[0], s[1], s[2], s[4], next[0], &out[0], &out[1]);
            if (status == UNRESOLVED) {
                /* a shorter step ends before the crossing or brings it within reach of an accurate step in y */
                s[5] = 0.5 * (next[0] - s[0]);
                if (s[5] < min_step(s[0]))
                    return UNRESOLVED;
                continue;
            }
            if (status != OK)
                return status;
            if (out[1] > SQRT2)
                return OK;
            out[2] = (double)++discarded;
            if (discarded >= MAX_DISCARD)
                return ABSORBED;
        }
        memcpy(s, next, 6 * sizeof *s);
        if (py_max(fabs(s[1]), fabs(s[2])) >= ESCAPE_BOUND)
            return ESCAPED;
    }
}

/* integrals' three integrands of theta = xx[0] on the oval (a, s) = (xx[1], xx[2]), with the moment's index
   i = xx[3]: quad's args (a, s, i) behind scipy.LowLevelCallable's double (int, double *).  Python's ** on
   floats is pow. */
double xiy(int n, double *xx)
{
    double a = xx[1], s = xx[2], x = a * sin(xx[0]);
    return a * a * pow(cos(xx[0]), 2.0) * pow(x, xx[3]) * sqrt((x * x + s) / 2.0);
}

double xi_over_y(int n, double *xx)
{
    double s = xx[2], x = xx[1] * sin(xx[0]);
    return pow(x, xx[3]) * sqrt(2.0 / (x * x + s));
}

double i0pp(int n, double *xx)
{
    double sin_th = sin(xx[0]), x = xx[1] * sin_th;
    return (1.0 + sin_th * sin_th) / pow(x * x + xx[2], 1.5);
}
"""
)


def _kernel_source() -> str:
    """The library's C: the tableau, the field and the constants above, written into _KERNEL_C.

    The stage sums are written out with the coefficients as exact
    hexadecimal literals and summed left to right, so the arithmetic is
    that of loops over the tableau, and each slope is vector_field's own
    expression; nothing is called per stage.
    """
    field_x, field_y = _field_c()

    def combination(row, component):
        return " + ".join(f"{a.hex()} * k{j}{component}" for j, a in row)

    def stage(row, component):
        return f"{component}0 + h * ({combination(row, component)})"

    indent = "        "
    flow_stages = [
        f"{indent}u = {stage(row, 'u')};\n{indent}v = {stage(row, 'v')};\n"
        f"{indent}k{i}u = field_x(u, v, p);\n{indent}k{i}v = field_y(u, v, p);"
        for i, (_, row) in enumerate(_STAGES, 1)
    ]
    y_stages = [
        f"    if (in_y(p, y + {c.hex()} * h, {stage(row, 'v')}, &k{i}u, &k{i}v) != OK)\n        return ZERO_DIVISION;"
        for i, (c, row) in enumerate(_STAGES, 1)
    ]
    b, e5, e3 = _WEIGHTS
    errors = ", ".join(combination(w, component) for w in (e5, e3) for component in "uv")
    step_end = (
        f"u = {stage(b, 'u')};\nv = {stage(b, 'v')};\nint status = OK;\n"
        f"double err = error_norm(p, h, u0, v0, u, v, {errors}, &status);"
    )
    return _KERNEL_C.substitute(
        status=", ".join(_STATUS),
        safety=_SAFETY.hex(),
        min_factor=_MIN_FACTOR.hex(),
        max_factor=_MAX_FACTOR.hex(),
        error_exponent=_ERROR_EXPONENT.hex(),
        sqrt2=SQRT2.hex(),
        escape_bound=float(ESCAPE_BOUND).hex(),
        max_discard=MAX_DISCARD,
        field_x=field_x,
        field_y=field_y,
        stage_slopes=", ".join(f"k{i}u, k{i}v" for i in range(1, len(_STAGES) + 1)),
        flow_stages="\n".join(flow_stages),
        y_stages="\n".join(y_stages),
        step_end=textwrap.indent(step_end, indent),
    )


# -ffp-contract=off keeps the compiler from fusing a multiply and an add
# (FMA) and -fno-builtin from folding pow(x, 2.0) into x * x or replacing
# libm's sin, cos and pow: each double operation is then the one Python does
_CC = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")


def _library(source: str, directory: Path) -> Path:
    """The shared library _CC compiles from source, in directory.

    Its name holds the sha256 of the source, the compile command and the
    platform, and a library of that name already there is reused.  The
    compiler writes a temporary file that replaces into place, so processes
    that build at once never load a half-written library.  RuntimeError,
    naming cc, if there is no cc on PATH.
    """
    key = "\n".join((source, *_CC, sysconfig.get_platform()))
    library = directory / f"{hashlib.sha256(key.encode()).hexdigest()}.so"
    if library.exists():
        return library
    with tempfile.TemporaryDirectory(dir=directory) as work:
        c_file, built = Path(work, "kernel.c"), Path(work, library.name)
        c_file.write_text(source)
        try:
            subprocess.run([*_CC, "-o", str(built), str(c_file), "-lm"], check=True)
        except FileNotFoundError as exc:
            raise RuntimeError(
                "the C kernel of the flow and of the quadrature integrands is compiled with cc, and no cc is on PATH"
            ) from exc
        os.replace(built, library)
    return library


_DOUBLES = ctypes.POINTER(ctypes.c_double)


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled library, built at the first flow or QUADPACK call of the process and kept in __pycache__.

    A private temporary directory stands in where __pycache__ cannot be written.
    """
    source = _kernel_source()
    try:
        cache = Path(__file__).resolve().parent / "__pycache__"
        cache.mkdir(exist_ok=True)
        library = _library(source, cache)
    except OSError:
        library = _library(source, Path(tempfile.mkdtemp()))
    kernel = ctypes.CDLL(str(library))
    for name, restype, argtypes in (
        ("flow", ctypes.c_int, (_DOUBLES, _DOUBLES, _DOUBLES, ctypes.c_long, _DOUBLES)),
        ("dop853_step", ctypes.c_int, (_DOUBLES, _DOUBLES, ctypes.c_double)),
        ("dop853_step_in_y", ctypes.c_int, (_DOUBLES, _DOUBLES)),
        *((integrand, ctypes.c_double, (ctypes.c_int, _DOUBLES)) for integrand in ("xiy", "xi_over_y", "i0pp")),
    ):
        getattr(kernel, name).argtypes = argtypes
        getattr(kernel, name).restype = restype
    return kernel
