"""Per-layer tracing of liouvar from outside the package.

``Tracer.install`` replaces each listed function with a wrapper in every
``liouvar`` module namespace that holds it (including names bound by
``from .expr import ...`` and the package's re-exports) and wraps
``DiffForm.__init__``; ``Tracer.uninstall`` puts every original back, so
an untraced run carries no wrapper cost.  Each wrapped call records one
span (name, start, end, parent span, job) in memory.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

# (module, attribute) of every wrapped callable, by layer
TARGETS = {
    "expr": ("normal_form", "nf_mul", "nf_pow", "nf_add", "from_normal", "differentiate",
             "substitute", "is_zero", "parse_expr", "render"),
    "exterior": ("DiffForm.__init__", "exterior_derivative", "interior_product", "wedge",
                 "hodge_star", "form_is_zero"),
    "liouville": ("validate_system", "is_liouville", "solve_gamma", "build_extended",
                  "verify_characteristic", "is_proper", "psi_forms", "decompose_beta",
                  "characteristic_field", "annihilator_field", "normalize_by_dt",
                  "hodge_check"),
    "systems": ("load_system",),
    "flow": ("integrate_rk4", "compile_field", "compile_jacobian", "compile_scalar",
             "invariant_drift", "volume_diagnostic", "section_sweep",
             "write_trajectory_csv"),
}

SPAN_NAMES = tuple(
    f"{layer}.{attr.split('.')[0]}" for layer, attrs in TARGETS.items() for attr in attrs)
COMPILE = ("flow.compile_field", "flow.compile_jacobian", "flow.compile_scalar")

_METRIC_NAMES = (
    [f"expr.{f}.{m}"
     for f, ms in (("normal_form", ("calls", "self_s", "repeat_ratio")),
                   ("nf_mul", ("calls", "self_s", "term_products")),
                   ("nf_pow", ("calls", "self_s")), ("nf_add", ("calls", "self_s")),
                   ("from_normal", ("calls", "self_s")),
                   ("differentiate", ("calls", "self_s")), ("substitute", ("calls", "self_s")),
                   ("is_zero", ("calls", "self_s", "sampled")),
                   ("parse_expr", ("calls", "self_s")), ("render", ("calls", "self_s")))
     for m in ms]
    + ["systems.load_system.calls", "systems.load_system.incl_s", "cli.self_s",
       "exterior.DiffForm.calls", "exterior.DiffForm.self_s"]
    + [f"exterior.{f}.{m}"
       for f in ("exterior_derivative", "interior_product", "wedge", "hodge_star", "form_is_zero")
       for m in ("calls", "self_s", "incl_s")]
    + [f"liouville.{f}.{m}" for f in TARGETS["liouville"] for m in ("calls", "incl_s")]
    + ["flow.integrate_rk4.calls", "flow.integrate_rk4.self_s", "flow.integrate_rk4.steps",
       "flow.integrate_rk4.steps_per_s", "flow.compile.self_s", "flow.invariant_drift.incl_s",
       "flow.volume_diagnostic.incl_s", "flow.section_sweep.incl_s",
       "flow.write_trajectory_csv.incl_s", "flow.write_trajectory_csv.rows",
       "trace.job_wall_s", "trace.normal_form_share", "trace.flow_share", "trace.overhead",
       "trace.self_time_gap"]
)
_UNITS = {"self_s": "s", "incl_s": "s", "job_wall_s": "s", "steps_per_s": "1/s",
          "overhead": "ratio", "repeat_ratio": "fraction", "normal_form_share": "fraction",
          "flow_share": "fraction", "self_time_gap": "fraction"}

# Per-layer metrics reported by a traced run: (name, unit, better).
METRICS = tuple(
    (name, _UNITS.get(name.rsplit(".", 1)[1], "count"),
     "higher" if name.endswith("steps_per_s") else "lower")
    for name in _METRIC_NAMES)


def _liouvar_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liouvar" or name.startswith("liouvar."))]


def _resolve(layer, attr):
    module = sys.modules[f"liouvar.{layer}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


@dataclass
class SpanTable:
    """Column store of spans; index i is span i."""

    name: array
    start: array
    end: array
    parent: array
    job: array
    outermost: array   # 1 when no enclosing span has the same name


class Tracer:
    def __init__(self):
        self.spans = SpanTable(array("H"), array("d"), array("d"), array("l"), array("l"),
                               array("b"))
        self.job = -1
        self._stack: list[int] = []
        self._depth = [0] * len(SPAN_NAMES)
        self.patched: list[tuple[object, str, object]] = []   # (owner, attr, original)
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        # counters, summed over the traced jobs
        self.nf_repeats = 0
        self.term_products = 0
        self.sampled = 0
        self.rk4_steps = 0
        self.csv_rows = 0
        self._seen: set = set()

    def start_job(self, job: int) -> None:
        self.job = job
        self._seen = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, span_id):
        spans, stack, depth = self.spans, self._stack, self._depth
        after = self._counter(SPAN_NAMES[span_id])

        def wrapper(*args, **kwargs):
            index = len(spans.start)
            spans.name.append(span_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.job.append(self.job)
            spans.outermost.append(depth[span_id] == 0)
            spans.start.append(0.0)
            spans.end.append(0.0)
            stack.append(index)
            depth[span_id] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[span_id] -= 1
                stack.pop()
                spans.start[index] = t0
                spans.end[index] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name):
        """Counting hook run after a call returns, outside its span."""
        if name == "expr.normal_form":
            def after(args, result):
                key = args[0]
                if key in self._seen:
                    self.nf_repeats += 1
                else:
                    self._seen.add(key)
        elif name == "expr.nf_mul":
            def after(args, result):
                self.term_products += len(args[0].terms) * len(args[1].terms)
        elif name == "expr.is_zero":
            def after(args, result):
                self.sampled += result.certainty == "probabilistic"
        elif name == "flow.integrate_rk4":
            def after(args, result):
                self.rk4_steps += len(result.grid) - 1
        elif name == "flow.write_trajectory_csv":
            def after(args, result):
                self.csv_rows += result
        else:
            after = None
        return after

    def install(self) -> None:
        modules = _liouvar_modules()
        for span_id, (layer, attr) in enumerate(
                (layer, attr) for layer, attrs in TARGETS.items() for attr in attrs):
            owner, key = _resolve(layer, attr)
            original = vars(owner)[key]
            wrapper = self._wrap(original, span_id)
            self.originals[SPAN_NAMES[span_id]] = original
            self.wrappers[SPAN_NAMES[span_id]] = wrapper
            if owner is not sys.modules[f"liouvar.{layer}"]:
                self.patched.append((owner, key, original))
                setattr(owner, key, wrapper)
                continue
            for module in modules:
                for attr_name, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr_name, original))
                        setattr(module, attr_name, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched.clear()

    # -- coverage ---------------------------------------------------------

    def unwrapped_references(self) -> list[str]:
        """Names that still bind an original after ``install``."""
        return _references(self.originals.values())

    def leftover_wrappers(self) -> list[str]:
        """Names that still bind a wrapper after ``uninstall``."""
        return _references(self.wrappers.values())


def _references(functions) -> list[str]:
    """Names in liouvar namespaces, and DiffForm.__init__, bound to one of
    ``functions``."""
    ids = {id(fn) for fn in functions}
    found = [f"{module.__name__}.{attr}" for module in _liouvar_modules()
             for attr, value in vars(module).items() if id(value) in ids]
    if id(vars(sys.modules["liouvar.exterior"].DiffForm)["__init__"]) in ids:
        found.append("liouvar.exterior.DiffForm.__init__")
    return found


# --------------------------------------------------------------------------
# Per-layer metrics from the spans


def _column(values, dtype):
    import numpy as np
    return np.frombuffer(values, dtype=f"{dtype}{values.itemsize}")


def layer_metrics(tracer: Tracer, traced_walls, overhead: float):
    """Per-layer metrics of a traced run and the problems its checks found.

    Self time is a span's duration minus its child spans; ``cli.self_s`` is
    job wall time not covered by the job's top-level spans.  The sum of all
    self times plus ``cli.self_s`` must equal the total job wall time.  The
    bookkeeping of each wrapped call falls in its caller's self time, so a
    layer with many small child calls (``normal_form``'s recursion) reads
    high; ``overhead``, the traced over the untraced job time, is the total
    cost.
    """
    import numpy as np

    s = tracer.spans
    name = _column(s.name, "u").astype(np.intp)
    dur = _column(s.end, "f") - _column(s.start, "f")
    parent = _column(s.parent, "i")
    job = _column(s.job, "i")
    outer = _column(s.outermost, "i").astype(bool)
    top = parent < 0
    child = np.bincount(parent[~top], weights=dur[~top], minlength=len(dur))
    self_s = dur - child
    k = len(SPAN_NAMES)
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=self_s, minlength=k)
    incl_by = np.bincount(name[outer], weights=dur[outer], minlength=k)

    total = sum(traced_walls)
    top_by_job = np.bincount(job[top], weights=dur[top], minlength=len(traced_walls))
    cli_self = total - float(top_by_job.sum())
    gap = abs(float(self_s.sum()) + cli_self - total) / total
    problems = []
    if gap > 0.01:
        problems.append(f"self times plus cli.self_s differ from job wall time by {gap:.2%}")
    if len(self_s) and self_s.min() < -1e-6:
        problems.append(f"negative self time {self_s.min():.3g} s: spans do not nest")
    if np.any(top_by_job > np.asarray(traced_walls) + 1e-6):
        problems.append("top-level spans exceed their job's wall time")

    def count(n):
        return int(calls[SPAN_NAMES.index(n)])

    def own(n):
        return float(self_by[SPAN_NAMES.index(n)])

    def incl(n):
        return float(incl_by[SPAN_NAMES.index(n)])

    m = {}
    for f in TARGETS["expr"]:
        m[f"expr.{f}.calls"] = count(f"expr.{f}")
        m[f"expr.{f}.self_s"] = own(f"expr.{f}")
    nf_calls = count("expr.normal_form")
    m["expr.normal_form.repeat_ratio"] = tracer.nf_repeats / nf_calls if nf_calls else 0.0
    m["expr.nf_mul.term_products"] = tracer.term_products
    m["expr.is_zero.sampled"] = tracer.sampled
    m["systems.load_system.calls"] = count("systems.load_system")
    m["systems.load_system.incl_s"] = incl("systems.load_system")
    m["cli.self_s"] = cli_self
    m["exterior.DiffForm.calls"] = count("exterior.DiffForm")
    m["exterior.DiffForm.self_s"] = own("exterior.DiffForm")
    for f in TARGETS["exterior"][1:]:
        m[f"exterior.{f}.calls"] = count(f"exterior.{f}")
        m[f"exterior.{f}.self_s"] = own(f"exterior.{f}")
        m[f"exterior.{f}.incl_s"] = incl(f"exterior.{f}")
    for f in TARGETS["liouville"]:
        m[f"liouville.{f}.calls"] = count(f"liouville.{f}")
        m[f"liouville.{f}.incl_s"] = incl(f"liouville.{f}")
    rk4_self = own("flow.integrate_rk4")
    m["flow.integrate_rk4.calls"] = count("flow.integrate_rk4")
    m["flow.integrate_rk4.self_s"] = rk4_self
    m["flow.integrate_rk4.steps"] = tracer.rk4_steps
    m["flow.integrate_rk4.steps_per_s"] = tracer.rk4_steps / rk4_self if rk4_self else 0.0
    m["flow.compile.self_s"] = sum(own(n) for n in COMPILE)
    for f in ("invariant_drift", "volume_diagnostic", "section_sweep", "write_trajectory_csv"):
        m[f"flow.{f}.incl_s"] = incl(f"flow.{f}")
    m["flow.write_trajectory_csv.rows"] = tracer.csv_rows
    m["trace.job_wall_s"] = total
    m["trace.normal_form_share"] = sum(
        own(f"expr.{f}") for f in ("normal_form", "nf_mul", "nf_pow", "nf_add", "from_normal")
    ) / total
    m["trace.flow_share"] = (rk4_self + m["flow.compile.self_s"]) / total
    m["trace.overhead"] = overhead
    m["trace.self_time_gap"] = gap
    return {name: m[name] for name, _, _ in METRICS}, problems


def write_spans(tracer: Tracer, path) -> None:
    """All spans as compressed numpy columns; ``names`` maps the name ids."""
    import numpy as np

    s = tracer.spans
    np.savez_compressed(
        path, names=np.array(SPAN_NAMES), name=_column(s.name, "u"),
        start=_column(s.start, "f"), end=_column(s.end, "f"), parent=_column(s.parent, "i"),
        job=_column(s.job, "i"))
