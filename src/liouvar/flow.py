"""Numeric integration of characteristic systems and flow diagnostics.

The integrator is classical fourth-order Runge-Kutta; the field is
certified symbolically elsewhere, so the integrator only needs accuracy,
not structure preservation.  Volume preservation is monitored through
the determinant of the tangent map, det M_k = prod_{j<k} det R_j, the
running product of the determinants of the exact Jacobians R_j of the
RK4 steps; the maps M_k themselves are never formed.  For a volume form
rho dx the reading weights det M_k by rho(x_k)/rho(x_0).  First integrals
are monitored through their drift along the trajectory, and swept
sections through finite-difference residuals of the quasilinear system.
The step loop is generated Python over floats; the step Jacobians and
the diagnostics evaluate normal forms column-wise over the state array
(``compile_columns``).  Generated source is compiled by
``expr.compile_source``, once per distinct source text in a process:
initial states, steps and durations are arguments of the compiled
functions, so integrating an equal field again compiles nothing.

Every normal form given to this module is closed: its parameters were
bound exactly beforehand (``LiouvilleSystem.bound()``), so generated code
reads the coordinates and nothing else, and a symbol left unbound is
refused (``UnboundSymbolError``) when the code is generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .expr import (DEFAULT_SEED, NormalForm, compile_rows, compile_source, differentiate,
                   nf_program, normal_form)
from .exterior import VectorField
from .liouville import CharacteristicDecomposition, characteristic_field

# numpy is imported inside the functions that use it, so a process that
# only certifies (verify, characteristic, solve-gamma) never loads it.
if TYPE_CHECKING:
    import numpy as np


# Largest number of steps a trajectory or sweep may take.  It bounds the
# arrays that hold the states, (steps + 1) * n floats, and the tangent-map
# determinants, steps + 1 floats, which are allocated whole before the
# first step.
MAX_STEPS = 10_000_000

# Steps the generated RK4 loop runs between two checks that its states,
# step Jacobians and tangent-map determinants are finite; the step
# Jacobians of a block's rows are computed together, so their scratch
# arrays hold O(BLOCK_STEPS * n * n) floats.
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


def _float_rows(nfs: Sequence[NormalForm], coordinates: Sequence[str]):
    """``compile_rows`` of ``nfs`` at one state, with ``math.sin`` and ``math.cos``."""
    return compile_rows(nfs, _symbol_sources(coordinates), sin=math.sin, cos=math.cos)


def compile_scalar(e: NormalForm, coordinates: Sequence[str]):
    rows = _float_rows([normal_form(e)], coordinates)
    return lambda s: rows(s)[0]


def compile_field(field: VectorField):
    return _float_rows(field.nfs, field.space.coordinates)


def compile_jacobian(field: VectorField):
    coordinates = field.space.coordinates
    n = len(coordinates)
    rows = _float_rows([differentiate(c, x) for c in field.nfs for x in coordinates], coordinates)

    def jacobian(s):
        entries = rows(s)
        return [entries[i:i + n] for i in range(0, len(entries), n)]

    return jacobian


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
    a form free of coordinates fills its row with one value.  It runs the
    rows of ``compile_rows`` on whole rows of states, with ``np.sin``,
    ``np.cos`` and ``_column_power`` bound to ``pow``, so each distinct
    sin/cos atom and each distinct power of ``nfs`` is evaluated once per
    call, and every value equals ``compile_scalar``'s on its state bit for
    bit.  A value that overflows or leaves the domain of sin/cos is written
    as inf or nan, without a warning; callers check the values.  Equal
    forms compile once per process (``compile_source``).
    """
    import numpy as np

    nfs = [normal_form(e) for e in nfs]
    values = compile_rows(nfs, _symbol_sources(coordinates),
                          sin=np.sin, cos=np.cos, pow=_column_power)

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
    carries states only; ``_tangent_transport`` derives the step Jacobians
    and the tangent-map determinants from them.

    Each stage is one ``nf_program`` of the field's components, its
    assignments followed by the slopes, so each distinct sin/cos atom and
    each distinct power of the stage is evaluated once per stage, inner
    atoms first; an atom free of the coordinates, such as ``sin(0.7)`` of
    a bound parameter, too.  A power is the builtin ``pow``, Python's
    float ``**``.  The loop writes every row unchecked; the caller checks
    the rows for finite values, and a stage that overflows or leaves the
    domain of sin/cos raises ``BlowupError(step)``.
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
        assignments, slopes = nf_program(field.nfs, symbols)
        lines += [f"            {line}" for line in assignments]
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
    """Compile the tangent-map determinants of the RK4 loop of ``field``.

    The result, ``transport(states, volume, h, start, stop)``, writes
    ``volume`` rows ``start`` to ``stop - 1`` from the states of rows
    ``start - 1`` to ``stop - 2`` and the volume of row ``start - 1``, and
    returns the block's step Jacobians.  The Jacobian of the RK4 step
    from x_k is the same RK method applied to the variational equation
    (Hairer, Lubich and Wanner, *Geometric Numerical Integration*):
        R_k = I + h6*(((A1 + 2.0*A2) + 2.0*A3) + A4),
        A1 = J(x_k), A2 = J(y2)(I + h2*A1), A3 = J(y3)(I + h2*A2),
        A4 = J(y4)(I + h*A3),
    with the stage states y2, y3, y4 of the loop.  The stage states of all
    the rows take one ``compile_columns`` pass per stage, their Jacobian
    entries one pass over the four stages together, the A's one stacked
    matmul each, and the det R_k one stacked ``np.linalg.det``.  The
    tangent map M_k = R_{k-1} ... R_0 is never formed: its determinant,
    the volume of row k, is the running product
        volume[k] = (...((volume[0] * det R_0) * det R_1) ...) * det R_{k-1},
    volume[0] = 1, taken in that order whatever the block boundaries, so
    an ill-conditioned M_k does not spoil it.  Non-finite values are
    written, not raised: the caller checks the rows.
    """
    import numpy as np

    coords = field.space.coordinates
    n = len(coords)
    slopes = compile_columns(field.nfs, coords)
    jacobian = compile_columns([differentiate(c, x) for c in field.nfs for x in coords], coords)
    eye = np.eye(n)

    def transport(states, volume, h, start, stop):
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
        block = volume[start - 1:stop]
        block[1:] = np.linalg.det(step_jacobians)
        np.multiply.accumulate(block, out=block)
        return step_jacobians

    return transport


def _check_rows(start: int, rows: dict[str, np.ndarray]) -> None:
    """Raise ``BlowupError`` at the first step from ``start`` on at which
    one of ``rows`` (name to the values of steps ``start``, ``start + 1``,
    ...) has a non-finite entry, naming the first such one in ``rows``."""
    import numpy as np

    finite = {what: np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
              for what, values in rows.items()}
    every = np.logical_and.reduce(list(finite.values()))
    if not every.all():
        row = int(np.argmin(every))
        raise BlowupError(start + row, next(what for what, ok in finite.items() if not ok[row]))


def _compile_rk4(field: VectorField, with_tangent: bool):
    """Compile the RK4 loop of ``field`` once; the result runs it from an initial state.

    ``run(x0, steps, h)`` returns the ``(steps + 1, n)`` states and, with
    ``with_tangent``, the ``(steps + 1,)`` tangent-map determinants
    (else None).  It raises ``BlowupError(step, what)`` at the first step
    whose state, step Jacobian (R_{step-1}) or tangent-map determinant is
    not finite, naming the first of these three that is not, or whose
    stage overflows or leaves the domain of sin/cos.  The loop runs in
    blocks of ``BLOCK_STEPS`` steps; after each block
    ``_tangent_transport`` writes the block's determinants, and the block
    is checked as a whole.  A non-finite state or determinant stays
    non-finite, so the first bad row of a block is the step at which the
    values first stopped being finite, and a blow-up costs at most one
    block of extra steps.  The loop and the tangent transport are
    compiled by ``compile_source``, once per distinct source in a process,
    and bound in namespaces of their own; ``x0``, ``steps`` and ``h`` are
    arguments of ``run``, so they never enter the source.
    """
    import numpy as np

    namespace = {"sin": math.sin, "cos": math.cos, "BlowupError": BlowupError}
    exec(compile_source(_rk4_source(field)), namespace)
    loop = namespace["rk4"]
    transport = _tangent_transport(field) if with_tangent else None
    n = field.space.dim

    def run(x0: np.ndarray, steps: int, h: float):
        states = np.empty((steps + 1, n))
        states[0] = x0
        volume = None
        if with_tangent:
            volume = np.empty(steps + 1)
            volume[0] = 1.0

        def finish(start, stop):
            rows = {"state": states[start:stop]}
            if transport is not None:
                rows["step Jacobian"] = transport(states, volume, h, start, stop)
                rows["tangent-map determinant"] = volume[start:stop]
            _check_rows(start, rows)

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
        return states, volume

    return run


# --------------------------------------------------------------------------
# Trajectories


@dataclass
class Trajectory:
    """Uniformly sampled integral curve, optionally with the determinants
    of its tangent maps.

    ``volume[k]`` is det M_k, the product of the determinants of the RK4
    step Jacobians R_0 ... R_{k-1}; it holds steps + 1 floats, and no
    tangent map is kept.  It is None without ``with_tangent``.  The
    integration checked every value finite, and the volume diagnostic and
    the CSV read this one array.
    """

    coordinates: tuple[str, ...]
    grid: np.ndarray
    states: np.ndarray
    volume: np.ndarray | None
    step: float
    duration: float


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
    ``with_tangent`` the trajectory holds det M_k of the tangent map
    M_k = R_{k-1} ... R_0, M_0 = I, as the running product of the det R_j
    (``_tangent_transport``).  R_j is the exact Jacobian of the RK4 step
    from x_j: RK4 applied to the variational equation M' = J(x) M with the
    exact symbolic Jacobian, evaluated numerically.  ``field`` is closed:
    its parameters are bound before the call, as ``LiouvilleSystem.bound()``
    binds them.
    """
    import numpy as np

    steps, h_eff = _grid(h, T)
    x0 = _initial_state(field, x0)
    states, volume = _compile_rk4(field, with_tangent)(x0, steps, h_eff)
    grid = np.arange(steps + 1) * h_eff
    return Trajectory(field.space.coordinates, grid, states, volume, h_eff, T)


def volume_diagnostic(traj: Trajectory, density: NormalForm) -> float:
    """Max over k of |rho(x_k)/rho(x_0) * det M_k - 1| along the trajectory.

    ``density`` is rho, the one coefficient of the volume form rho dx the
    field preserves (bound, as the field is), and det M_k the tangent-map
    determinant ``traj.volume``.  rho along the states takes one
    ``compile_columns`` pass; a constant rho gives rho/rho(x_0) = 1.0
    exactly, so the reading is then max |det M_k - 1|.  A non-finite
    rho(x_k) raises ``BlowupError`` at step k, and so does a non-finite
    ratio, as rho(x_0) = 0 gives at step 0.
    """
    import numpy as np

    if traj.volume is None:
        raise FlowError("trajectory has no volume; integrate with with_tangent=True")
    rho = compile_columns([density], traj.coordinates)(traj.states.T)[0]
    _check_rows(0, {"volume density": rho})
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        weighted = rho / rho[0] * traj.volume
    _check_rows(0, {"density-weighted determinant": weighted})
    return float(np.max(np.abs(weighted - 1.0)))


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
        _check_rows(0, {"invariant value": values})
        with np.errstate(over="ignore"):    # finite values an overflow apart
            drift = np.abs(values - values[0])
        _check_rows(0, {"invariant drift": drift})
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
    """CSV with header s,x0,...,x{n-1}[,det]; 17 significant digits.

    ``det`` is the tangent-map determinant ``traj.volume``.
    """
    columns = ["s"] + [f"x{i}" for i in range(traj.states.shape[1])]
    rows = traj.states.tolist()
    if traj.volume is not None:
        columns.append("det")
        rows = [row + [det] for row, det in zip(rows, traj.volume.tolist())]
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns)]
    lines += [row_format % (s, *row) for s, row in zip(traj.grid.tolist(), rows)]
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return len(lines) - 1
