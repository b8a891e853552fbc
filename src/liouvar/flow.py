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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import NormalForm, ScalarExpr, as_normal_form, compile_lambda, nf_diff, nf_source
from .exterior import VectorField
from .liouville import CharacteristicDecomposition, characteristic_field


class FlowError(Exception):
    pass


class BlowupError(FlowError):
    def __init__(self, step: int):
        super().__init__(f"non-finite state encountered at step {step}")
        self.step = step


# --------------------------------------------------------------------------
# Compilation of exact expressions to fast numeric callables


def _symbol_sources(coordinates: Sequence[str], params: Mapping[str, float]) -> dict[str, str]:
    """Coordinates read the state ``s``; parameters become float literals."""
    sources = {name: repr(float(value)) for name, value in params.items()}
    sources.update((c, f"s[{i}]") for i, c in enumerate(coordinates))
    return sources


def compile_scalar(e: ScalarExpr | NormalForm, coordinates: Sequence[str],
                   params: Mapping[str, float]):
    return compile_lambda(nf_source(as_normal_form(e), _symbol_sources(coordinates, params)))


def compile_field(field: VectorField, params: Mapping[str, float]):
    sources = _symbol_sources(field.space.coordinates, params)
    return compile_lambda("[" + ", ".join(nf_source(c, sources) for c in field.nfs) + "]")


def compile_jacobian(field: VectorField, params: Mapping[str, float]):
    coordinates = field.space.coordinates
    sources = _symbol_sources(coordinates, params)
    rows = ("[" + ", ".join(nf_source(nf_diff(c, x), sources) for x in coordinates) + "]"
            for c in field.nfs)
    return compile_lambda("[" + ", ".join(rows) + "]")


# --------------------------------------------------------------------------
# Trajectories


@dataclass
class Trajectory:
    """Uniformly sampled integral curve, optionally with tangent maps."""

    coordinates: tuple[str, ...]
    grid: np.ndarray
    states: np.ndarray
    tangents: np.ndarray | None
    params: dict[str, float]
    step: float
    duration: float


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


def integrate_rk4(field: VectorField, x0: Sequence[float], h: float, T: float,
                  with_tangent: bool = False,
                  params: Mapping[str, float] | None = None) -> Trajectory:
    """Classical RK4 over [0, T].

    The step is adjusted to T / round(T/h) so the uniform grid ends
    exactly at T.  With ``with_tangent`` the variational equation
    M' = J(x) M, M(0) = I is co-integrated using the exact symbolic
    Jacobian evaluated numerically.
    """
    if not (math.isfinite(h) and math.isfinite(T)):
        raise FlowError("step and duration must be finite")
    if h <= 0 or T <= 0:
        raise FlowError("step and duration must be positive")
    params = dict(params or {})
    n = field.space.dim
    x0 = np.asarray([float(v) for v in x0], dtype=float)
    if x0.shape != (n,):
        raise FlowError(f"initial state must have {n} components")
    f = compile_field(field, params)
    jac = compile_jacobian(field, params) if with_tangent else None

    steps = max(1, round(T / h))
    h_eff = T / steps
    states = np.empty((steps + 1, n))
    states[0] = x0
    tangents = None
    if with_tangent:
        tangents = np.empty((steps + 1, n, n))
        tangents[0] = np.eye(n)

    x = x0.copy()
    M = np.eye(n) if with_tangent else None

    def rhs(state, tangent):
        dx = np.asarray(f(state.tolist()), dtype=float)
        dM = np.asarray(jac(state.tolist()), dtype=float) @ tangent if with_tangent else None
        return dx, dM

    for step in range(1, steps + 1):
        try:
            k1x, k1m = rhs(x, M)
            k2x, k2m = rhs(x + 0.5 * h_eff * k1x, M + 0.5 * h_eff * k1m if with_tangent else None)
            k3x, k3m = rhs(x + 0.5 * h_eff * k2x, M + 0.5 * h_eff * k2m if with_tangent else None)
            k4x, k4m = rhs(x + h_eff * k3x, M + h_eff * k3m if with_tangent else None)
        except OverflowError:
            raise BlowupError(step) from None
        x = x + (h_eff / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        if with_tangent:
            M = M + (h_eff / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        if not np.all(np.isfinite(x)) or (with_tangent and not np.all(np.isfinite(M))):
            raise BlowupError(step)
        states[step] = x
        if with_tangent:
            tangents[step] = M

    grid = np.arange(steps + 1) * h_eff
    return Trajectory(field.space.coordinates, grid, states, tangents, params, h_eff, T)


def volume_diagnostic(traj: Trajectory) -> float:
    """Max |det(tangent map) - 1| along the trajectory (LU determinants)."""
    if traj.tangents is None:
        raise FlowError("trajectory has no tangent maps; integrate with with_tangent=True")
    dets = np.linalg.det(traj.tangents)
    return float(np.max(np.abs(dets - 1.0)))


def invariant_drift(traj: Trajectory,
                    invariants: Iterable[ScalarExpr | NormalForm]) -> tuple[float, ...]:
    """Max |inv(x(s)) - inv(x(0))| per declared first integral."""
    drifts = []
    for inv in invariants:
        fn = compile_scalar(inv, traj.coordinates, traj.params)
        values = np.asarray([fn(row.tolist()) for row in traj.states])
        drifts.append(float(np.max(np.abs(values - values[0]))))
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
                  h: float, T: float,
                  params: Mapping[str, float] | None = None) -> SweepReport:
    """Sweep a section from seed points and report quasilinear residuals.

    Each seed is a full initial state (base coordinates, z, w).  Along an
    integral curve the base velocity equals the A-components, so the
    section's directional derivatives A^mu du/dx^mu coincide with du/ds;
    they are approximated by second-order central differences on the
    curve parameter and compared against f and g.  The residual is
    O(h^2) discretization error for exact characteristic data.
    """
    if not seeds:
        raise FlowError("at least one seed is required")
    params = dict(params or {})
    W = characteristic_field(dec)
    k = dec.k
    f_fn = compile_scalar(dec.f, dec.space.coordinates, params)
    g_fn = compile_scalar(dec.g, dec.space.coordinates, params)
    max_rz = 0.0
    max_rw = 0.0
    step = None
    for seed in seeds:
        traj = integrate_rk4(W, seed, h, T, params=params)
        step = traj.step
        z = traj.states[:, k]
        w = traj.states[:, k + 1]
        if len(z) < 3:
            raise FlowError("sweep needs at least two integration steps")
        dz = (z[2:] - z[:-2]) / (2.0 * traj.step)
        dw = (w[2:] - w[:-2]) / (2.0 * traj.step)
        interior = traj.states[1:-1]
        fv = np.asarray([f_fn(row.tolist()) for row in interior])
        gv = np.asarray([g_fn(row.tolist()) for row in interior])
        max_rz = max(max_rz, float(np.max(np.abs(dz - fv))))
        max_rw = max(max_rw, float(np.max(np.abs(dw - gv))))
    return SweepReport(max_rz, max_rw, step, T, len(seeds))


def write_trajectory_csv(traj: Trajectory, path) -> int:
    """CSV with header s,x0,...,x{n-1}[,det]; 17 significant digits."""
    n = traj.states.shape[1]
    header = "s," + ",".join(f"x{i}" for i in range(n))
    with_det = traj.tangents is not None
    if with_det:
        header += ",det"
        dets = np.linalg.det(traj.tangents)
    lines = [header]
    for i, (s, row) in enumerate(zip(traj.grid, traj.states)):
        cells = [f"{s:.17g}"] + [f"{v:.17g}" for v in row]
        if with_det:
            cells.append(f"{dets[i]:.17g}")
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    from pathlib import Path
    Path(path).write_text(text, encoding="utf-8")
    return len(lines) - 1
