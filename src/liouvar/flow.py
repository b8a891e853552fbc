"""Numeric integration of characteristic systems and flow diagnostics.

The integrator is classical fourth-order Runge-Kutta; the field is
certified symbolically elsewhere, so the integrator only needs accuracy,
not structure preservation.  Volume preservation is monitored through
the determinant of the tangent map, the product of the exact Jacobians of
the RK4 steps; first integrals through their drift along the trajectory,
and swept sections through finite-difference residuals of the
quasilinear system.  The step loop is generated Python over floats; the
tangent maps and the diagnostics evaluate normal forms column-wise over
the state array (``compile_columns``).

Every normal form given to this module is closed: its parameters were
bound exactly beforehand (``LiouvilleSystem.bound()``), so generated code
reads the coordinates and nothing else, and a symbol left unbound is
refused (``UnboundSymbolError``) when the code is generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .expr import DEFAULT_SEED, NormalForm, compile_lambda, differentiate, nf_source, normal_form
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
# tangent maps are finite; the tangent maps of a block's rows are computed
# together, so their scratch arrays hold O(BLOCK_STEPS * n * n) floats.
BLOCK_STEPS = 1024


class FlowError(Exception):
    pass


class BlowupError(FlowError):
    def __init__(self, step: int, what: str = "state"):
        super().__init__(f"non-finite {what} encountered at step {step}")
        self.step = step


# --------------------------------------------------------------------------
# Compilation of exact expressions to fast numeric callables


def _symbol_sources(coordinates: Sequence[str],
                    state: Sequence[str] | None = None) -> dict[str, str]:
    """Coordinate i reads ``state[i]`` (default ``s[i]``)."""
    if state is None:
        state = [f"s[{i}]" for i in range(len(coordinates))]
    return dict(zip(coordinates, state))


def compile_scalar(e: NormalForm, coordinates: Sequence[str]):
    return compile_lambda(nf_source(normal_form(e), _symbol_sources(coordinates)))


def compile_field(field: VectorField):
    sources = _symbol_sources(field.space.coordinates)
    return compile_lambda("[" + ", ".join(nf_source(c, sources) for c in field.nfs) + "]")


def compile_jacobian(field: VectorField):
    coordinates = field.space.coordinates
    sources = _symbol_sources(coordinates)
    rows = ("[" + ", ".join(nf_source(differentiate(c, x), sources) for x in coordinates) + "]"
            for c in field.nfs)
    return compile_lambda("[" + ", ".join(rows) + "]")


def _float_power(v: float, e: int) -> float:
    """``v ** e``, or the infinity numpy would give where it overflows."""
    try:
        return v ** e
    except OverflowError:
        return math.copysign(math.inf, v) if e % 2 else math.inf


def _column_power(base, e: int):
    """``base ** e`` with Python's float power on every element.

    numpy's float64 ``**`` differs from Python's by an ulp on some squares
    and cubes, so it would break the bit-identity with ``compile_scalar``.
    """
    import numpy as np

    values = np.asarray(base, dtype=float)
    if values.ndim == 0:
        return _float_power(float(values), e)
    values = values.tolist()
    try:
        return np.array([v ** e for v in values])
    except OverflowError:
        return np.array([_float_power(v, e) for v in values])


def compile_columns(nfs: Sequence[NormalForm], coordinates: Sequence[str]):
    """Compile ``nfs`` for many states at once.

    The result maps ``s``, whose row i holds coordinate i's values along
    the states, to the array whose row j holds the values of ``nfs[j]``;
    a form free of coordinates fills its row with one value.  It runs
    ``nf_source``'s code with one table of locals for all of ``nfs``, so
    each distinct sin/cos atom is evaluated once, by ``np.sin``/``np.cos``,
    and each distinct power once, by ``_column_power`` bound to ``pow``;
    every value equals ``compile_scalar``'s on its state bit for bit.  A
    value that overflows or leaves the domain of sin/cos is written as inf
    or nan, without a warning; callers check the values.
    """
    import numpy as np

    nfs = [normal_form(e) for e in nfs]
    symbols = _symbol_sources(coordinates)
    names: dict = {}
    rows = ", ".join(nf_source(nf, symbols, names) for nf in nfs)
    lines = ["def columns(s):", *(f"    {local} = {source}" for local, source in names.values()),
             f"    return [{rows}]"]
    namespace = {"sin": np.sin, "cos": np.cos, "pow": _column_power}
    exec("\n".join(lines) + "\n", namespace)
    values = namespace["columns"]

    def columns(s: np.ndarray) -> np.ndarray:
        out = np.empty((len(nfs), s.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            for row, value in zip(out, values(s)):
                row[...] = value
        return out

    return columns


def _rk4_source(field: VectorField) -> str:
    """Source of ``rk4(states, h, start, stop)``: RK4 steps ``start`` to
    ``stop - 1``, resumed from row ``start - 1``.

    The state is held in floats ``x0..``, a stage state in ``y0..`` and the
    slopes in ``k1_0..k4_0..``.  Every operation is written in the order
    of the array formula
        k1 = f(x), k2 = f(x + h2*k1), k3 = f(x + h2*k2), k4 = f(x + h*k3),
        x + h6*(((k1 + 2.0*k2) + 2.0*k3) + k4)
    with h2 = 0.5*h and h6 = h/6.0, so each component rounds exactly as
    numpy's elementwise arithmetic on float64 arrays does.  The loop
    carries states only; ``_tangent_transport`` derives the tangent maps
    from them.

    Each stage's slopes are written by ``nf_source`` with a fresh table
    of locals, so each distinct sin/cos atom and each distinct power of the
    stage is evaluated once per stage, inner atoms first; an atom free of
    the coordinates, such as ``sin(0.7)`` of a bound parameter, too.  A
    power is the builtin ``pow``, Python's float ``**``.  The loop writes
    every row unchecked; the caller checks the rows for finite values, and
    a stage that overflows or leaves the domain of sin/cos raises
    ``BlowupError(step)``.
    """
    coords = field.space.coordinates
    n = len(coords)
    xs = [f"x{i}" for i in range(n)]
    lines = [
        "def rk4(states, h, start, stop):",
        "    out = memoryview(states.reshape(-1))",
        f"    {', '.join(xs)}, = out[(start - 1) * {n}:start * {n}].tolist()",
        "    h2 = 0.5 * h",
        "    h6 = h / 6.0",
        "    for step in range(start, stop):",
        "        try:",
    ]
    for stage, factor in enumerate((None, "h2", "h2", "h"), start=1):
        state = "x" if factor is None else "y"
        if factor is not None:
            lines += [f"            y{i} = x{i} + {factor} * k{stage - 1}_{i}" for i in range(n)]
        symbols = _symbol_sources(coords, [f"{state}{i}" for i in range(n)])
        names: dict = {}
        slopes = [nf_source(c, symbols, names) for c in field.nfs]
        lines += [f"            {local} = {source}" for local, source in names.values()]
        lines += [f"            k{stage}_{i} = {slope}" for i, slope in enumerate(slopes)]
    lines += [
        "        except (OverflowError, ValueError):",
        "            raise BlowupError(step) from None",
    ]
    lines += [f"        x{i} = x{i} + h6 * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"
              for i in range(n)]
    lines.append(f"        j = step * {n}")
    lines += [f"        out[j + {i}] = x{i}" for i in range(n)]
    return "\n".join(lines) + "\n"


def _tangent_transport(field: VectorField):
    """Compile the tangent maps of the RK4 loop of ``field``.

    The result, ``transport(states, tangents, h, start, stop)``, writes
    tangent rows ``start`` to ``stop - 1`` from the states of rows
    ``start - 1`` to ``stop - 2`` and the tangent map of row ``start - 1``.
    The Jacobian of the RK4 step from x_k is the same RK method applied to
    the variational equation (Hairer, Lubich and Wanner, *Geometric
    Numerical Integration*):
        R_k = I + h6*(((A1 + 2.0*A2) + 2.0*A3) + A4),
        A1 = J(x_k), A2 = J(y2)(I + h2*A1), A3 = J(y3)(I + h2*A2),
        A4 = J(y4)(I + h*A3),
    with the stage states y2, y3, y4 of the loop.  The stage states of all
    the rows take one ``compile_columns`` pass per stage, their Jacobian
    entries one pass over the four stages together, and the A's one
    stacked matmul each; only M_{k+1} = R_k M_k runs per step, as one
    ``ndarray.dot`` into ``tangents[k + 1]``.  Non-finite values are
    written, not raised: the caller checks the rows.
    """
    import numpy as np

    coords = field.space.coordinates
    n = len(coords)
    slopes = compile_columns(field.nfs, coords)
    jacobian = compile_columns([differentiate(c, x) for c in field.nfs for x in coords], coords)
    eye = np.eye(n)

    def transport(states, tangents, h, start, stop):
        rows = stop - start
        h2 = 0.5 * h
        h6 = h / 6.0
        x = np.ascontiguousarray(states[start - 1:stop - 1].T)
        y2 = x + h2 * slopes(x)
        y3 = x + h2 * slopes(y2)
        y4 = x + h * slopes(y3)
        stages = np.concatenate((x, y2, y3, y4), axis=1)
        j1, j2, j3, j4 = jacobian(stages).T.reshape(4, rows, n, n)
        a2 = j2 @ (eye + h2 * j1)
        a3 = j3 @ (eye + h2 * a2)
        a4 = j4 @ (eye + h * a3)
        step_jacobians = eye + h6 * (((j1 + 2.0 * a2) + 2.0 * a3) + a4)
        maps = list(tangents[start - 1:stop])
        for r, m, out in zip(step_jacobians, maps, maps[1:]):
            r.dot(m, out)

    return transport


def _check_rows(states: np.ndarray, tangents: np.ndarray | None, start: int, stop: int) -> None:
    """Raise ``BlowupError`` at the first step in [start, stop) whose state
    or tangent map has a non-finite entry."""
    import numpy as np

    finite = np.isfinite(states[start:stop]).all(axis=1)
    if tangents is not None:
        finite &= np.isfinite(tangents[start:stop]).all(axis=(1, 2))
    if not finite.all():
        raise BlowupError(start + int(np.argmin(finite)))


def _compile_rk4(field: VectorField, with_tangent: bool):
    """Compile the RK4 loop of ``field`` once; the result runs it from an initial state.

    ``run(x0, steps, h)`` returns the ``(steps + 1, n)`` states and, with
    ``with_tangent``, the ``(steps + 1, n, n)`` tangent maps (else None).
    It raises ``BlowupError(step)`` at the first step whose state or
    tangent map is not finite, or whose stage overflows or leaves the
    domain of sin/cos.  The loop runs in blocks of ``BLOCK_STEPS`` steps;
    after each block ``_tangent_transport`` writes the block's tangent
    maps, and the block is checked as a whole.  A non-finite state or
    tangent map stays non-finite, so the first bad row of a block is the
    step at which the values first stopped being finite, and a blow-up
    costs at most one block of extra steps.
    """
    import numpy as np

    namespace = {"sin": math.sin, "cos": math.cos, "BlowupError": BlowupError}
    exec(_rk4_source(field), namespace)
    loop = namespace["rk4"]
    transport = _tangent_transport(field) if with_tangent else None
    n = field.space.dim

    def run(x0: np.ndarray, steps: int, h: float):
        states = np.empty((steps + 1, n))
        states[0] = x0
        tangents = None
        if with_tangent:
            tangents = np.empty((steps + 1, n, n))
            tangents[0] = np.eye(n)

        def finish(start, stop):
            if transport is not None:
                transport(states, tangents, h, start, stop)
            _check_rows(states, tangents, start, stop)

        # a non-finite product is reported as a BlowupError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(1, steps + 1, BLOCK_STEPS):
                stop = min(start + BLOCK_STEPS, steps + 1)
                try:
                    loop(states, h, start, stop)
                except BlowupError as err:
                    # an earlier row of the block may have stopped being finite
                    finish(start, err.step)
                    raise
                finish(start, stop)
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
        raise FlowError(f"{ratio:.8g} steps exceed the limit of {MAX_STEPS}")
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
                  with_tangent: bool = False) -> Trajectory:
    """Classical RK4 over [0, T].

    The step is adjusted to T / round(T/h) so the uniform grid ends
    exactly at T.  The step loop is generated code (``_rk4_source``)
    whose states equal the array formula bit for bit.  With
    ``with_tangent`` the tangent map M_k, M_0 = I, is the product of the
    exact Jacobians of the RK4 steps (``_tangent_transport``): RK4 applied
    to the variational equation M' = J(x) M with the exact symbolic
    Jacobian, evaluated numerically.  ``field`` is closed: its parameters
    are bound before the call, as ``LiouvilleSystem.bound()`` binds them.
    """
    import numpy as np

    steps, h_eff = _grid(h, T)
    x0 = _initial_state(field, x0)
    states, tangents = _compile_rk4(field, with_tangent)(x0, steps, h_eff)
    grid = np.arange(steps + 1) * h_eff
    return Trajectory(field.space.coordinates, grid, states, tangents, h_eff, T)


def volume_diagnostic(traj: Trajectory) -> float:
    """Max |det(tangent map) - 1| along the trajectory (LU determinants)."""
    import numpy as np

    return float(np.max(np.abs(traj.determinants() - 1.0)))


def invariant_drift(traj: Trajectory,
                    invariants: Iterable[NormalForm]) -> tuple[float, ...]:
    """Max |inv(x(s)) - inv(x(0))| per declared first integral.

    The invariants are evaluated once over the whole state array
    (``compile_columns``), sharing their atoms and powers.  A value or a
    drift that is not finite raises ``BlowupError`` at its first step.
    """
    import numpy as np

    drifts = []
    columns = compile_columns(list(invariants), traj.coordinates)
    for values in columns(traj.states.T):
        finite = np.isfinite(values)
        if not finite.all():
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
    starts: int

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
            "seeds": self.starts,
        }


def section_sweep(dec: CharacteristicDecomposition, starts: Sequence[Sequence[float]],
                  h: float, T: float, seed: int = DEFAULT_SEED) -> SweepReport:
    """Sweep a section from start points and report quasilinear residuals.

    Each start is a full initial state (base coordinates, z, w).  Along an
    integral curve the base velocity equals the A-components, so the
    section's directional derivatives A^mu du/dx^mu coincide with du/ds;
    they are approximated by second-order central differences on the
    curve parameter and compared against f and g.  The residual is
    O(h^2) discretization error for exact characteristic data.  W is
    ``characteristic_field(dec, seed)``, which refuses an improper
    principle as the zero test at ``seed`` decides it.  ``dec`` is the
    decomposition of a bound system, so W, f and g are closed and
    properness is decided at the values the sweep integrates with.
    ``starts`` may be any sequence, a numpy array included.
    """
    import numpy as np

    if len(starts) == 0:
        raise FlowError("at least one seed is required")
    W = characteristic_field(dec, seed)
    k = dec.k
    f_and_g = compile_columns([dec.f, dec.g], dec.space.coordinates)
    steps, h_eff = _grid(h, T)
    if steps < 2:
        raise FlowError("sweep needs at least two integration steps")
    run = _compile_rk4(W, False)
    max_rz = 0.0
    max_rw = 0.0
    for start in starts:
        states, _ = run(_initial_state(W, start), steps, h_eff)
        z = states[:, k]
        w = states[:, k + 1]
        dz = (z[2:] - z[:-2]) / (2.0 * h_eff)
        dw = (w[2:] - w[:-2]) / (2.0 * h_eff)
        fv, gv = f_and_g(states[1:-1].T)
        max_rz = max(max_rz, float(np.max(np.abs(dz - fv))))
        max_rw = max(max_rw, float(np.max(np.abs(dw - gv))))
    return SweepReport(max_rz, max_rw, h_eff, T, len(starts))


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
