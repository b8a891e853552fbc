"""Numeric integration of characteristic systems and flow diagnostics.

The integrator is classical fourth-order Runge-Kutta; the field is
certified symbolically elsewhere, so the integrator only needs accuracy,
not structure preservation.  Volume preservation is monitored through
the determinant of a co-integrated tangent map, first integrals through
their drift along the trajectory, and swept sections through
finite-difference residuals of the quasilinear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .expr import (DEFAULT_ZERO_TEST, NormalForm, ZeroTestConfig, atom_source, compile_lambda,
                   differentiate, nf_source, normal_form, trig_atoms)
from .exterior import VectorField
from .liouville import CharacteristicDecomposition, characteristic_field

# numpy is imported inside the functions that use it, so a process that
# only certifies (verify, characteristic, solve-gamma) never loads it.
if TYPE_CHECKING:
    import numpy as np


# Largest number of steps a trajectory or sweep may take.  It bounds the
# arrays that hold the states and tangent maps, which are allocated whole
# before the first step.
MAX_STEPS = 10_000_000

# Steps the generated RK4 loop runs between two checks that its states and
# tangent maps are finite.
BLOCK_STEPS = 1024


class FlowError(Exception):
    pass


class BlowupError(FlowError):
    def __init__(self, step: int, what: str = "state"):
        super().__init__(f"non-finite {what} encountered at step {step}")
        self.step = step


# --------------------------------------------------------------------------
# Compilation of exact expressions to fast numeric callables


def _symbol_sources(coordinates: Sequence[str], params: Mapping[str, float],
                    state: Sequence[str] | None = None) -> dict[str, str]:
    """Coordinate i reads ``state[i]`` (default ``s[i]``); parameters
    become float literals, so they must be finite."""
    sources = {}
    for name, value in params.items():
        value = float(value)
        if not math.isfinite(value):
            raise FlowError(f"parameter '{name}' must be finite, got {value}")
        sources[name] = repr(value)
    if state is None:
        state = [f"s[{i}]" for i in range(len(coordinates))]
    sources.update(zip(coordinates, state))
    return sources


def compile_scalar(e: NormalForm, coordinates: Sequence[str], params: Mapping[str, float]):
    return compile_lambda(nf_source(normal_form(e), _symbol_sources(coordinates, params)))


def compile_field(field: VectorField, params: Mapping[str, float]):
    sources = _symbol_sources(field.space.coordinates, params)
    return compile_lambda("[" + ", ".join(nf_source(c, sources) for c in field.nfs) + "]")


def compile_jacobian(field: VectorField, params: Mapping[str, float]):
    coordinates = field.space.coordinates
    sources = _symbol_sources(coordinates, params)
    rows = ("[" + ", ".join(nf_source(differentiate(c, x), sources) for x in coordinates) + "]"
            for c in field.nfs)
    return compile_lambda("[" + ", ".join(rows) + "]")


def _rk4_source(field: VectorField, params: Mapping[str, float], with_tangent: bool) -> str:
    """Source of ``rk4(states, tangents, h, start, stop)``: RK4 steps
    ``start`` to ``stop - 1``, resumed from row ``start - 1``.

    The state is held in floats ``x0..``, a stage state in ``y0..`` and the
    slopes in ``k1_0..k4_0..``.  Every operation is written in the order
    of the array formula
        k1 = f(x), k2 = f(x + h2*k1), k3 = f(x + h2*k2), k4 = f(x + h*k3),
        x + h6*(((k1 + 2.0*k2) + 2.0*k3) + k4)
    with h2 = 0.5*h and h6 = h/6.0, so each component rounds exactly as
    numpy's elementwise arithmetic on float64 arrays does.  The tangent map
    M (entries ``m0..`` row by row) and its slopes ``K1_0..`` follow the
    same formula with J(y) @ N for f(y): the entries of J and of the stage
    map N are written into two numpy buffers, and ``J.dot(N, K)`` writes
    the product into a third buffer K, whose n*n entries are read back in
    one unpack.  ``ndarray.dot`` calls the same BLAS gemm as ``@`` and
    rounds the same, differently from a float sum.

    Work that does not change from step to step is done once per call:
    the entries of J with no coordinate among their free symbols, and
    the sin/cos atoms of parameters alone.  Each other distinct sin/cos
    atom of a stage's slopes and entries of J is evaluated once per stage
    into a local ``a0..``, inner atoms first.  The loop writes every row
    unchecked; the caller checks the rows for finite values, and a stage
    that overflows or leaves the domain of sin/cos raises
    ``BlowupError(step)``.
    """
    coords = field.space.coordinates
    n = len(coords)
    xs = [f"x{i}" for i in range(n)]
    ms = [f"m{p}" for p in range(n * n)]
    derivatives = [differentiate(c, x) for c in field.nfs for x in coords] if with_tangent else []
    constant = [p for p, d in enumerate(derivatives) if d.free_symbols().isdisjoint(coords)]
    varying = [p for p in range(len(derivatives)) if p not in constant]
    atoms = trig_atoms([*field.nfs, *derivatives])
    names = {atom: f"a{i}" for i, atom in enumerate(atoms)}
    fixed = [a for a in atoms if a[1].free_symbols().isdisjoint(coords)]
    moving = [a for a in atoms if a not in fixed]

    def sources(state):
        return _symbol_sources(coords, params, [f"{state}{i}" for i in range(n)])

    lines = [
        "def rk4(states, tangents, h, start, stop):",
        "    out = memoryview(states.reshape(-1))",
        f"    {', '.join(xs)}, = out[(start - 1) * {n}:start * {n}].tolist()",
        "    h2 = 0.5 * h",
        "    h6 = h / 6.0",
    ]
    if with_tangent:
        lines += [
            f"    J = empty(({n}, {n}))",
            f"    N = empty(({n}, {n}))",
            f"    K = empty(({n}, {n}))",
            "    jv = memoryview(J.reshape(-1))",
            "    nv = memoryview(N.reshape(-1))",
            "    kv = memoryview(K.reshape(-1))",
            "    tv = memoryview(tangents.reshape(-1))",
            f"    {', '.join(ms)}, = tv[(start - 1) * {n * n}:start * {n * n}].tolist()",
        ]
    once = sources("x")
    prelude = [f"        {names[a]} = {atom_source(a, once, names)}" for a in fixed]
    prelude += [f"        jv[{p}] = {nf_source(derivatives[p], once, names)}" for p in constant]
    if prelude:
        lines += ["    try:", *prelude, "    except (OverflowError, ValueError):",
                  "        raise BlowupError(start) from None"]
    lines += ["    for step in range(start, stop):", "        try:"]
    for stage, factor in enumerate((None, "h2", "h2", "h"), start=1):
        state = "x" if factor is None else "y"
        if factor is not None:
            lines += [f"            y{i} = x{i} + {factor} * k{stage - 1}_{i}" for i in range(n)]
        symbols = sources(state)
        lines += [f"            {names[a]} = {atom_source(a, symbols, names)}" for a in moving]
        lines += [f"            k{stage}_{i} = {nf_source(c, symbols, names)}"
                  for i, c in enumerate(field.nfs)]
        if with_tangent:
            lines += [f"            jv[{p}] = {nf_source(derivatives[p], symbols, names)}"
                      for p in varying]
            if factor is None:
                lines.append("            J.dot(tangents[step - 1], K)")
            else:
                lines += [f"            nv[{p}] = m{p} + {factor} * K{stage - 1}_{p}"
                          for p in range(n * n)]
                lines.append("            J.dot(N, K)")
            lines.append(f"            {', '.join(f'K{stage}_{p}' for p in range(n * n))}, = kv")
    lines += [
        "        except (OverflowError, ValueError):",
        "            raise BlowupError(step) from None",
    ]
    lines += [f"        x{i} = x{i} + h6 * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"
              for i in range(n)]
    lines += [f"        m{p} = m{p} + h6 * (((K1_{p} + 2.0 * K2_{p}) + 2.0 * K3_{p}) + K4_{p})"
              for p in range(n * n) if with_tangent]
    lines.append(f"        j = step * {n}")
    lines += [f"        out[j + {i}] = x{i}" for i in range(n)]
    if with_tangent:
        lines.append(f"        j = step * {n * n}")
        lines += [f"        tv[j + {p}] = m{p}" for p in range(n * n)]
    return "\n".join(lines) + "\n"


def _check_rows(states: np.ndarray, tangents: np.ndarray | None, start: int, stop: int) -> None:
    """Raise ``BlowupError`` at the first step in [start, stop) whose state
    or tangent map has a non-finite entry."""
    import numpy as np

    finite = np.isfinite(states[start:stop]).all(axis=1)
    if tangents is not None:
        finite &= np.isfinite(tangents[start:stop]).all(axis=(1, 2))
    if not finite.all():
        raise BlowupError(start + int(np.argmin(finite)))


def _compile_rk4(field: VectorField, params: Mapping[str, float], with_tangent: bool):
    """Compile the RK4 loop of ``field`` once; the result runs it from a seed.

    ``run(x0, steps, h)`` returns the ``(steps + 1, n)`` states and, with
    ``with_tangent``, the ``(steps + 1, n, n)`` tangent maps (else None).
    It raises ``BlowupError(step)`` at the first step whose state or
    tangent map is not finite, or whose stage overflows or leaves the
    domain of sin/cos.  The loop runs in blocks of ``BLOCK_STEPS`` steps,
    each checked as a whole.  A non-finite state or tangent map stays
    non-finite, so the first bad row of a block is the step at which the
    values first stopped being finite, and a blow-up costs at most one
    block of extra steps.
    """
    import numpy as np

    namespace = {"sin": math.sin, "cos": math.cos, "empty": np.empty,
                 "BlowupError": BlowupError}
    exec(_rk4_source(field, params, with_tangent), namespace)
    loop = namespace["rk4"]
    n = field.space.dim

    def run(x0: np.ndarray, steps: int, h: float):
        states = np.empty((steps + 1, n))
        states[0] = x0
        tangents = None
        if with_tangent:
            tangents = np.empty((steps + 1, n, n))
            tangents[0] = np.eye(n)
        # a non-finite product is reported as a BlowupError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(1, steps + 1, BLOCK_STEPS):
                stop = min(start + BLOCK_STEPS, steps + 1)
                try:
                    loop(states, tangents, h, start, stop)
                except BlowupError as err:
                    # an earlier row of the block may have stopped being finite
                    _check_rows(states, tangents, start, err.step)
                    raise
                _check_rows(states, tangents, start, stop)
        return states, tangents

    return run


# --------------------------------------------------------------------------
# Trajectories


@dataclass
class Trajectory:
    """Uniformly sampled integral curve, optionally with tangent maps.

    The determinants of the tangent maps are computed on first use and
    kept, so the volume diagnostic and the CSV share one pass.
    """

    coordinates: tuple[str, ...]
    grid: np.ndarray
    states: np.ndarray
    tangents: np.ndarray | None
    params: dict[str, float]
    step: float
    duration: float
    _dets: np.ndarray | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def determinants(self) -> np.ndarray:
        """det of every tangent map (LU determinants), computed once.

        Raises ``BlowupError`` at the first step whose finite tangent map
        has a determinant that overflows.
        """
        if self.tangents is None:
            raise FlowError("trajectory has no tangent maps; integrate with with_tangent=True")
        if self._dets is None:
            import numpy as np

            with np.errstate(over="ignore", invalid="ignore"):
                dets = np.linalg.det(self.tangents)
            finite = np.isfinite(dets)
            if not finite.all():
                raise BlowupError(int(np.argmin(finite)), "tangent-map determinant")
            self._dets = dets
        return self._dets


@dataclass
class FlowDiagnostics:
    step: float
    duration: float
    invariant_drifts: tuple[float, ...]
    det_deviation: float | None

    def __post_init__(self):
        values = list(self.invariant_drifts) + [self.step, self.duration]
        if self.det_deviation is not None:
            values.append(self.det_deviation)
        if not all(math.isfinite(v) for v in values):
            raise FlowError("diagnostics must be finite")

    def to_json(self) -> dict:
        out = {
            "step": self.step,
            "duration": self.duration,
            "invariant_drifts": list(self.invariant_drifts),
        }
        if self.det_deviation is not None:
            out["det_deviation"] = self.det_deviation
        return out


def _grid(h: float, T: float) -> tuple[int, float]:
    """Step count and step of the uniform grid on [0, T]: T / round(T/h)."""
    if not (math.isfinite(h) and math.isfinite(T)):
        raise FlowError("step and duration must be finite")
    if h <= 0 or T <= 0:
        raise FlowError("step and duration must be positive")
    ratio = T / h
    if not math.isfinite(ratio):
        raise FlowError(f"duration over step {T!r}/{h!r} overflows")
    steps = max(1, round(ratio))
    if steps > MAX_STEPS:
        raise FlowError(f"{steps} steps exceed the limit of {MAX_STEPS}")
    return steps, T / steps


def _initial_state(field: VectorField, x0: Sequence[float]) -> np.ndarray:
    import numpy as np

    n = field.space.dim
    x0 = np.asarray([float(v) for v in x0], dtype=float)
    if x0.shape != (n,):
        raise FlowError(f"initial state must have {n} components")
    if not np.all(np.isfinite(x0)):
        raise FlowError(f"initial state must be finite, got {x0.tolist()}")
    return x0


def integrate_rk4(field: VectorField, x0: Sequence[float], h: float, T: float,
                  with_tangent: bool = False,
                  params: Mapping[str, float] | None = None) -> Trajectory:
    """Classical RK4 over [0, T].

    The step is adjusted to T / round(T/h) so the uniform grid ends
    exactly at T.  With ``with_tangent`` the variational equation
    M' = J(x) M, M(0) = I is co-integrated using the exact symbolic
    Jacobian evaluated numerically.  The step loop is generated code
    (``_rk4_source``) whose results equal the array formula bit for bit.
    """
    import numpy as np

    steps, h_eff = _grid(h, T)
    params = dict(params or {})
    x0 = _initial_state(field, x0)
    states, tangents = _compile_rk4(field, params, with_tangent)(x0, steps, h_eff)
    grid = np.arange(steps + 1) * h_eff
    return Trajectory(field.space.coordinates, grid, states, tangents, params, h_eff, T)


def volume_diagnostic(traj: Trajectory) -> float:
    """Max |det(tangent map) - 1| along the trajectory (LU determinants)."""
    import numpy as np

    return float(np.max(np.abs(traj.determinants() - 1.0)))


def invariant_drift(traj: Trajectory,
                    invariants: Iterable[NormalForm]) -> tuple[float, ...]:
    """Max |inv(x(s)) - inv(x(0))| per declared first integral."""
    import numpy as np

    drifts = []
    rows = traj.states.tolist()
    for inv in invariants:
        fn = compile_scalar(inv, traj.coordinates, traj.params)
        values = []
        try:
            for row in rows:
                values.append(fn(row))
        except OverflowError:   # float ** raises where * gives inf
            raise BlowupError(len(values), "invariant value") from None
        values = np.asarray(values)
        finite = np.isfinite(values)
        if not finite.all():    # float * gives inf where ** raises
            raise BlowupError(int(np.argmin(finite)), "invariant value")
        with np.errstate(over="ignore"):    # finite values an overflow apart
            drift = np.abs(values - values[0])
        finite = np.isfinite(drift)
        if not finite.all():
            raise BlowupError(int(np.argmin(finite)), "invariant drift")
        drifts.append(float(np.max(drift)))
    return tuple(drifts)


# --------------------------------------------------------------------------
# Critical-section sweeps


@dataclass
class SweepReport:
    max_residual_z: float
    max_residual_w: float
    step: float
    duration: float
    seeds: int

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_z, self.max_residual_w)

    def to_json(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "max_residual_z": self.max_residual_z,
            "max_residual_w": self.max_residual_w,
            "step": self.step,
            "duration": self.duration,
            "seeds": self.seeds,
        }


def section_sweep(dec: CharacteristicDecomposition, seeds: Sequence[Sequence[float]],
                  h: float, T: float, params: Mapping[str, float] | None = None,
                  config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> SweepReport:
    """Sweep a section from seed points and report quasilinear residuals.

    Each seed is a full initial state (base coordinates, z, w).  Along an
    integral curve the base velocity equals the A-components, so the
    section's directional derivatives A^mu du/dx^mu coincide with du/ds;
    they are approximated by second-order central differences on the
    curve parameter and compared against f and g.  The residual is
    O(h^2) discretization error for exact characteristic data.  W is
    ``characteristic_field(dec, config)``, which refuses an improper principle.
    """
    import numpy as np

    if not seeds:
        raise FlowError("at least one seed is required")
    params = dict(params or {})
    W = characteristic_field(dec, config)
    k = dec.k
    f_fn = compile_scalar(dec.f, dec.space.coordinates, params)
    g_fn = compile_scalar(dec.g, dec.space.coordinates, params)
    steps, h_eff = _grid(h, T)
    if steps < 2:
        raise FlowError("sweep needs at least two integration steps")
    run = _compile_rk4(W, params, False)
    max_rz = 0.0
    max_rw = 0.0
    for seed in seeds:
        states, _ = run(_initial_state(W, seed), steps, h_eff)
        z = states[:, k]
        w = states[:, k + 1]
        dz = (z[2:] - z[:-2]) / (2.0 * h_eff)
        dw = (w[2:] - w[:-2]) / (2.0 * h_eff)
        interior = states[1:-1].tolist()
        fv = np.asarray([f_fn(row) for row in interior])
        gv = np.asarray([g_fn(row) for row in interior])
        max_rz = max(max_rz, float(np.max(np.abs(dz - fv))))
        max_rw = max(max_rw, float(np.max(np.abs(dw - gv))))
    return SweepReport(max_rz, max_rw, h_eff, T, len(seeds))


def write_trajectory_csv(traj: Trajectory, path) -> int:
    """CSV with header s,x0,...,x{n-1}[,det]; 17 significant digits."""
    columns = ["s"] + [f"x{i}" for i in range(traj.states.shape[1])]
    rows = traj.states.tolist()
    if traj.tangents is not None:
        columns.append("det")
        rows = [row + [det] for row, det in zip(rows, traj.determinants().tolist())]
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns)]
    lines += [row_format % (s, *row) for s, row in zip(traj.grid.tolist(), rows)]
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return len(lines) - 1
