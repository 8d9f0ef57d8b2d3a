"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every ``lipfree`` module (the
layers) from outside the package: each wrapper records a span -- name,
start, end, parent span and the op it belongs to -- in an in-memory list.
A function imported elsewhere with ``from .x import y`` is rebound under
every name that refers to it, so calls through the importing module are
traced too. ``scalars.rat`` is only counted: it is called far too often for
a span. :meth:`Tracer.uninstall` puts every attribute back as it was.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter

LAYERS = ("cli", "reports", "reproduce", "diametral", "free", "functions", "lp", "metric", "scalars", "sampling")
SPANNED = tuple(layer for layer in LAYERS if layer != "scalars")

# public methods traced besides module-level functions: layer -> (class, method)
METHODS = {
    "metric": (("FiniteMetricSpace", "from_json"), ("FiniteMetricSpace", "from_matrix")),
    "free": (("FreeElement", "from_json"),),
    "functions": (("LipFunction", "from_json"),),
    "reports": (("CertificateReport", "to_json"),),
}
COUNTED = (("scalars", "rat"),)

SURGERIES = frozenset(
    "functions." + name
    for name in (
        "mcshane_extend", "flatten_at_point", "slice_flatten", "tail_plateau", "nearest_point_function",
        "daugavet_recursive_construction", "delta_hat_family", "annulus_case_extension", "example2_function",
    )
)
CHECKS = frozenset(
    "metric." + name
    for name in (
        "pair_sequence_failures", "check_pair_sequence", "check_equidistant_sequence", "check_annuli_hypothesis",
        "check_annulus_inequality", "annulus_sweep", "extract_separated_pairs", "seg", "validate",
    )
)


def _simplex_info(args, kwargs, result):
    cols, b = args[0], args[1]
    return (len(b), len(cols))


def _ball_info(args, kwargs, result):
    program = args[0] if args else kwargs["program"]
    return (len(program.side_constraints), result.status)


def _norm_info(args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    return len(set(mu.support) | {mu.space.base}) == mu.space.n


INFO = {"lp.simplex_standard": _simplex_info, "lp.solve_lip_ball": _ball_info, "free.free_norm": _norm_info}


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.op`` before each op."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, start_ns, end_ns, info]
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter_ns, INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, self.op, name, 0, 0, None]
            spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("lipfree")
        modules = {layer: importlib.import_module(f"lipfree.{layer}") for layer in LAYERS}
        owners = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if (layer, attr) in COUNTED:
                    wrapped = self._counter(name, obj)
                elif layer in SPANNED:
                    wrapped = self._span(name, obj)
                else:
                    continue
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is obj:
                            self._patches.append((owner, key, value))
                            setattr(owner, key, wrapped)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(name, raw.__func__))
                else:
                    wrapped = self._span(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as JSON lines, in start order."""
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": t0, "end_ns": t1, "info": info}) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


class SpanStats:
    """Durations, self times and outermost-inclusive times of a span list."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [(s[5] - s[4]) / 1e9 for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[1] >= 0:
                child[s[1]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[3] == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[3] == name)

    def inclusive(self, names, ops=None) -> float:
        """Time inside any span of ``names``, counting nested ones once."""
        names = frozenset([names] if isinstance(names, str) else names)
        spans = self.spans
        total = 0.0
        for s, d in zip(spans, self.dur):
            if s[3] not in names or (ops is not None and s[2] not in ops):
                continue
            p = s[1]
            while p >= 0 and spans[p][3] not in names:
                p = spans[p][1]
            if p < 0:
                total += d
        return total

    def layer_self(self, layer: str, ops=None) -> float:
        return sum(
            t for s, t in zip(self.spans, self.self_time)
            if _layer(s[3]) == layer and (ops is None or s[2] in ops)
        )


def layer_metrics(tracer: Tracer, small_ops: frozenset) -> dict:
    """Per-layer figures of one traced run, keyed by metric name."""
    st = SpanStats(tracer.spans)
    simplex = st.named("lp.simplex_standard")
    simplex_ms = [(s[5] - s[4]) / 1e6 for s in simplex]
    balls = st.named("lp.solve_lip_ball")
    norms = st.named("free.free_norm")
    m = {
        "lp.simplex.calls": len(simplex),
        "lp.simplex_s": st.inclusive("lp.simplex_standard"),
        "lp.simplex_ms_p50": _quantile(simplex_ms, 0.50),
        "lp.simplex_ms_p95": _quantile(simplex_ms, 0.95),
        "lp.simplex.rows_p50": _quantile([s[6][0] for s in simplex], 0.50),
        "lp.simplex.cols_p50": _quantile([s[6][1] for s in simplex], 0.50),
        "lp.simplex.cells_total": sum(s[6][0] * s[6][1] for s in simplex),
        "lp.solve_lip_ball.calls": len(balls),
        "lp.solve_lip_ball_s": st.inclusive("lp.solve_lip_ball"),
        "lp.solve_lip_ball.side_calls": sum(1 for s in balls if s[6] and s[6][0] > 0),
        "lp.max_over_pairs_s": st.inclusive("lp.max_over_pairs"),
        "lp.optimal_share": (sum(1 for s in balls if s[6] and s[6][1] == "optimal") / len(balls)) if balls else 0.0,
        "lp.min_cost_transport.calls": st.calls("lp.min_cost_transport"),
        "lp.min_cost_transport_s": st.inclusive("lp.min_cost_transport"),
        "free.free_norm.calls": len(norms),
        "free.free_norm_s": st.inclusive("free.free_norm"),
        "free.full_support_share": (sum(1 for s in norms if s[6]) / len(norms)) if norms else 0.0,
        "free.free_dist.calls": st.calls("free.free_dist"),
        "metric.from_json.calls": st.calls("metric.FiniteMetricSpace.from_json"),
        "metric.from_json_s": st.inclusive("metric.FiniteMetricSpace.from_json"),
        "metric.checks_s": st.inclusive(CHECKS),
        "functions.surgery_s": st.inclusive(SURGERIES),
        "functions.mcshane_extend.calls": st.calls("functions.mcshane_extend"),
        "reports.to_json_s": st.inclusive("reports.CertificateReport.to_json"),
        "sampling_s": st.inclusive({s[3] for s in tracer.spans if _layer(s[3]) == "sampling"}),
        "scalars.rat.calls": tracer.counts["scalars.rat"],
        "small.cli_metric_s": st.layer_self("cli", small_ops) + st.layer_self("metric", small_ops),
        "small.lp_s": st.layer_self("lp", small_ops),
        "trace.spans": len(tracer.spans),
    }
    for layer in SPANNED:
        m[f"{layer}.self_s"] = st.layer_self(layer)
    return m
