"""Outside-in tracing of eightloop's layers.

``install`` wraps every public function of the traced modules and puts the
wrapper in place of the original wherever the package holds a reference to
it: module attributes (``melnikov`` keeps its own ``integral_xiy`` binding,
``dynamics`` its own ``mk``) and values of module-level dicts (the CLI's
sampler table).  Calls made inside the package therefore pass through the
wrappers too, and the program's source is not touched.

``geometry`` is not wrapped: its functions cost well under a microsecond,
less than a wrapper, so its time stays in its callers' self time.

A wrapper records one span per call -- name, start, end, parent span, run id
and the type of an exception that escaped it, if any -- and counts escaping
exceptions by type.  Spans are kept in memory and written out once, at the
end of the run, by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("integrals", "series", "melnikov", "dynamics", "cli")

# Each of these performs exactly one QUADPACK call.
QUAD_FUNCTIONS = ("integrals.integral_xiy", "integrals.integral_xi_over_y", "integrals.integral_I0pp")

# TimeCap messages from return_map name the lobe crossings discarded before
# the cap; they are the only place those crossings are visible from outside.
_DISCARDED = re.compile(r"discarded=(\d+)|absorbed: (\d+) off-section")

_NAME, _START, _END, _PARENT, _RUN, _ERROR = range(6)


class Tracer:
    """Spans and counts of one traced run; calls pass straight through while inactive."""

    def __init__(self):
        self.active = False
        self.run_id = 0
        self.spans: list = []  # [name, start, end, parent index or -1, run id, escaped exception type]
        self._stack: list = []
        self.escaped: Counter = Counter()  # (span name, exception type) -> count
        self.observed: Counter = Counter()  # quantities read from arguments and results
        self.energies: set = set()  # (run id, h) seen by the integrals layer

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[_END] = perf_counter()
                stack.pop()
                span[_ERROR] = type(exc).__name__
                self.escaped[name, span[_ERROR]] += 1
                if observe:
                    observe(self, signature, args, kwargs, None, exc)
                raise
            span[_END] = perf_counter()
            stack.pop()
            if observe:
                observe(self, signature, args, kwargs, result, None)
            return result

        return traced

    def dump(self, path, meta: dict) -> None:
        names = sorted({s[_NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta)
        doc.update(
            {
                "span_fields": ["name", "start", "end", "parent", "run", "escaped"],
                "names": names,
                "spans": [[index[s[_NAME]], s[_START], s[_END], s[_PARENT], s[_RUN], s[_ERROR]] for s in self.spans],
                "escaped": [[n, t, c] for (n, t), c in sorted(self.escaped.items())],
                "observed": dict(sorted(self.observed.items())),
            }
        )
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def _observe_integrals(tracer, signature, args, kwargs, result, exc):
    h = args[0] if args else kwargs.get("h")
    tracer.energies.add((tracer.run_id, float(h)))


def _observe_return_map(tracer, signature, args, kwargs, result, exc):
    if exc is None:
        tracer.observed["dynamics.flow_time"] += result.flow_time
        tracer.observed["dynamics.discarded_crossings"] += result.crossings
        return
    m = _DISCARDED.search(str(exc))
    if m:
        tracer.observed["dynamics.discarded_crossings"] += int(m.group(1) or m.group(2))


def _observe_find_limit_cycles(tracer, signature, args, kwargs, result, exc):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.observed["dynamics.grid_points"] += int(bound.arguments["grid_n"])
    if exc is None:
        tracer.observed["dynamics.cycles_found"] += len(result)


_OBSERVERS = {
    **{name: _observe_integrals for name in QUAD_FUNCTIONS},
    "dynamics.return_map": _observe_return_map,
    "dynamics.find_limit_cycles": _observe_find_limit_cycles,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced layer wherever the package refers to them."""
    modules = [m for n, m in sys.modules.items() if n == "eightloop" or n.startswith("eightloop.")]
    replacements = {}
    for layer in LAYERS:
        module = sys.modules[f"eightloop.{layer}"]
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            replacements[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements:
                        value[key] = replacements[id(item)]


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, rounds: int) -> dict:
    """Per-layer metrics per traced round; ``wall_s`` is the traced rounds' total time.

    A layer's self time is the time its spans cover minus the part their
    direct child spans cover.  Ratios with an empty base are reported as 0.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += s[_END] - s[_START]
    self_s = Counter()
    total_s = Counter()
    calls = Counter()
    for i, s in enumerate(spans):
        duration = s[_END] - s[_START]
        self_s[s[_NAME]] += duration - child[i]
        total_s[s[_NAME]] += duration
        calls[s[_NAME]] += 1
    layer_self = Counter()
    for name, t in self_s.items():
        layer_self[name.split(".")[0]] += t

    # return maps launched by find_limit_cycles beyond its grid are refinement
    under_search = 0
    for s in spans:
        if s[_NAME] != "dynamics.return_map":
            continue
        p = s[_PARENT]
        while p >= 0 and spans[p][_NAME] != "dynamics.find_limit_cycles":
            p = spans[p][_PARENT]
        under_search += p >= 0
    rm_ms = [1e3 * (s[_END] - s[_START]) for s in spans if s[_NAME] == "dynamics.return_map"]
    rm_ok_s = sum(s[_END] - s[_START] for s in spans if s[_NAME] == "dynamics.return_map" and s[_ERROR] is None)
    return_maps = calls["dynamics.return_map"]
    quad_calls = sum(calls[n] for n in QUAD_FUNCTIONS)
    obs = tracer.observed
    n = max(rounds, 1)
    m = {
        "integrals.quad_calls": quad_calls / n,
        "integrals.self_s": layer_self["integrals"] / n,
        "integrals.us_per_call": 1e6 * _ratio(layer_self["integrals"], quad_calls),
        "integrals.calls_per_energy": _ratio(quad_calls, len(tracer.energies)),
        "series.eval_calls": calls["series.series_eval"] / n,
        "series.self_s": layer_self["series"] / n,
        "series.coeff_builds_per_eval": _ratio(calls["series.log_coefficients"], calls["series.series_eval"]),
        "series.fit_s": total_s["series.fit_constants"] / n,
        "melnikov.mk_calls": (calls["melnikov.mk"] + calls["melnikov.m1"]) / n,
        "melnikov.self_s": layer_self["melnikov"] / n,
        "melnikov.count_zeros_calls": calls["melnikov.count_zeros"] / n,
        "melnikov.evals_per_count": _ratio(
            calls["melnikov.mk"] + calls["melnikov.m1"], calls["melnikov.count_zeros"]
        ),
        "dynamics.self_s": layer_self["dynamics"] / n,
        "dynamics.return_maps": return_maps / n,
        "dynamics.return_map_self_s": self_s["dynamics.return_map"] / n,
        "dynamics.return_map_ms_p50": _quantile(rm_ms, 0.50),
        "dynamics.return_map_ms_p90": _quantile(rm_ms, 0.90),
        "dynamics.flow_time": obs["dynamics.flow_time"] / n,
        "dynamics.ms_per_flow_time": 1e3 * _ratio(rm_ok_s, obs["dynamics.flow_time"]),
        "dynamics.refine_share": _ratio(under_search - obs["dynamics.grid_points"], under_search),
        "dynamics.useful_ratio": _ratio(
            return_maps - sum(c for (name, _), c in tracer.escaped.items() if name == "dynamics.return_map"),
            return_maps,
        ),
        "dynamics.discarded_crossings": obs["dynamics.discarded_crossings"] / n,
        "dynamics.integrate_s": total_s["dynamics.integrate"] / n,
        "dynamics.cycles_found": obs["dynamics.cycles_found"] / n,
        "cli.runs": calls["cli.run"] / n,
        "cli.self_s": layer_self["cli"] / n,
        "trace.spans": len(spans) / n,
    }
    for exc in ("TimeCap", "EscapedRegion", "StepFailure"):
        m[f"dynamics.skip.{exc}"] = tracer.escaped["dynamics.return_map", exc] / n
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], wall_s)
    return m
