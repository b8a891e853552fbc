"""Tests for the RK4 integrator, flow diagnostics, and section sweeps."""

import math
import sys

import numpy as np
import pytest

from liouvar.exterior import Space, VectorField, basis_form
from liouvar.liouville import build_extended, decompose_beta
from liouvar import flow
from liouvar.flow import (
    MAX_STEPS,
    BlowupError,
    FlowError,
    compile_field,
    compile_jacobian,
    integrate_rk4,
    invariant_drift,
    section_sweep,
    volume_diagnostic,
    write_trajectory_csv,
)
from liouvar.systems import (
    build_abc_flow,
    build_charged_particle,
    build_euler_top,
    build_hamiltonian,
)


@pytest.fixture(scope="module")
def oscillator():
    return build_hamiltonian("1/2*q^2 + 1/2*p^2", 1, name="ho")


@pytest.fixture(scope="module")
def euler_numeric():
    return build_euler_top((1, 2, 3)).bound()


# --------------------------------------------------------------------------
# Integrator


def test_oscillator_period_return(oscillator):
    traj = integrate_rk4(oscillator.field, (1.0, 0.0), 1e-3, 2 * math.pi)
    assert abs(traj.states[-1][0] - 1.0) <= 1e-9
    assert abs(traj.states[-1][1]) <= 1e-9


def test_zero_field_constant_trajectory():
    sp = Space("z", ("x1", "x2"))
    zero = VectorField(sp, (0, 0))
    traj = integrate_rk4(zero, (0.3, -0.7), 1e-2, 1.0)
    assert np.all(traj.states == traj.states[0])


def test_euler_step_halving(euler_numeric):
    coarse = integrate_rk4(euler_numeric.field, (1, 1, 1), 1e-3, 10.0)
    fine = integrate_rk4(euler_numeric.field, (1, 1, 1), 5e-4, 10.0)
    gap = np.max(np.abs(coarse.states[-1] - fine.states[-1]))
    assert gap <= 1e-8


def test_rk4_order_on_smooth_field(oscillator):
    # error against a step-halved reference scales as h^4 within a factor 2
    def endpoint_gap(h):
        a = integrate_rk4(oscillator.field, (1.0, 0.0), h, 1.0)
        b = integrate_rk4(oscillator.field, (1.0, 0.0), h / 2, 1.0)
        return np.max(np.abs(a.states[-1] - b.states[-1]))

    ratio = endpoint_gap(2e-2) / endpoint_gap(1e-2)
    assert 8.0 <= ratio <= 32.0


def test_grid_uniform_and_ends_at_duration(oscillator):
    traj = integrate_rk4(oscillator.field, (1.0, 0.0), 1e-3, 2 * math.pi)
    steps = np.diff(traj.grid)
    assert np.allclose(steps, steps[0])
    assert traj.grid[-1] == pytest.approx(2 * math.pi, abs=1e-12)


def test_blowup_reported_with_step_index():
    sp = Space("b", ("x1", "x2"))
    field = VectorField(sp, (sp.parse("1 + x1^2"), 0))
    with pytest.raises(BlowupError) as err:
        integrate_rk4(field, (1.0, 0.0), 1e-3, 2.0)
    assert err.value.step > 0


def test_bad_arguments():
    sp = Space("b", ("x1",))
    field = VectorField(sp, (1,))
    with pytest.raises(FlowError):
        integrate_rk4(field, (0.0,), -1e-3, 1.0)
    with pytest.raises(FlowError):
        integrate_rk4(field, (0.0, 0.0), 1e-3, 1.0)


@pytest.mark.parametrize("h, T, message", [
    (1e-320, 1e10, "overflows"),
    (1e-3, 1e5, "exceed the limit"),
    (1.0, MAX_STEPS + 1.0, "exceed the limit"),
])
def test_step_count_refused_before_allocation(monkeypatch, oscillator, h, T, message):
    def no_compile(*args):
        raise AssertionError("the step loop was compiled and its arrays allocated")

    monkeypatch.setattr(flow, "_compile_rk4", no_compile)
    with pytest.raises(FlowError, match=message):
        integrate_rk4(oscillator.field, (1.0, 0.0), h, T)
    dec = decompose_beta(build_extended(oscillator).dtheta)
    with pytest.raises(FlowError, match=message):
        section_sweep(dec, [(0.0, 1.0, 0.0)], h, T)


def test_step_count_at_the_limit_is_accepted():
    assert flow._grid(1.0, float(MAX_STEPS)) == (MAX_STEPS, 1.0)


def test_negative_parameter_raised_to_a_power():
    # mu^2*x1 with mu = -1 is +x1: the literal is raised as a whole
    sp = Space("p", ("x1",), ("mu",))
    field = VectorField(sp, (sp.parse("mu^2*x1"),))
    traj = integrate_rk4(field, (1.0,), 1e-2, 1.0, params={"mu": -1.0})
    reference = integrate_rk4(VectorField(sp, (sp.parse("x1"),)), (1.0,), 1e-2, 1.0)
    assert np.array_equal(traj.states, reference.states)


def _array_rk4(field, x0, h, T, with_tangent=False, params=None):
    """Reference RK4: the array formula on float64 numpy arrays."""
    f = compile_field(field, params or {})
    jac = compile_jacobian(field, params or {})
    steps = max(1, round(T / h))
    h = T / steps
    x = np.asarray(x0, dtype=float)
    M = np.eye(len(x))
    states, tangents = [x], [M]

    def rhs(s, m):
        dx = np.asarray(f(s.tolist()), dtype=float)
        return dx, (np.asarray(jac(s.tolist()), dtype=float) @ m if with_tangent else m)

    for step in range(1, steps + 1):
        try:
            k1, K1 = rhs(x, M)
            k2, K2 = rhs(x + 0.5 * h * k1, M + 0.5 * h * K1)
            k3, K3 = rhs(x + 0.5 * h * k2, M + 0.5 * h * K2)
            k4, K4 = rhs(x + h * k3, M + h * K3)
        except (OverflowError, ValueError):
            raise BlowupError(step) from None
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if with_tangent:
            M = M + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(M))):
            raise BlowupError(step)
        states.append(x)
        tangents.append(M)
    return np.array(states), np.array(tangents) if with_tangent else None


def _reference_case(system, oscillator, euler_numeric):
    """Field and parameter bindings of one bit-identity case."""
    if system == "line":
        sp = Space("line", ("x1",))
        return VectorField(sp, (sp.parse("x1 - x1^3"),)), {}
    if system == "oscillator_m2":
        ho2 = build_hamiltonian("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", 2)
        return ho2.field, {}
    if system == "charged_particle":
        cp = build_charged_particle(("0", "0", "b"), parameters=("b",))
        return cp.field, {"k": 0.7, "b": 1.3}
    return {"euler": euler_numeric.field, "abc": build_abc_flow(1, 1, 1).bound().field,
            "oscillator": oscillator.field}[system], {}


@pytest.mark.parametrize("system, x0, with_tangent", [
    ("euler", (1.0, 1.0, 1.0), False),
    ("euler", (0.3, -0.8, 0.5), True),
    ("abc", (0.3, 1.2, 2.5), True),
    ("oscillator", (1.0, 0.0), False),
    ("line", (0.5,), True),
    ("oscillator", (1.0, 0.0), True),
    ("oscillator_m2", (1.0, 0.0, 0.3, -0.4), True),
    ("charged_particle", (0.1, -0.2, 0.3, 0.5, -0.6, 0.2), True),
])
def test_integrate_rk4_equals_the_array_formula(system, x0, with_tangent, oscillator,
                                                euler_numeric):
    field, params = _reference_case(system, oscillator, euler_numeric)
    traj = integrate_rk4(field, x0, 1e-3, 2.0, with_tangent=with_tangent, params=params)
    states, tangents = _array_rk4(field, x0, 1e-3, 2.0, with_tangent, params)
    assert np.array_equal(traj.states, states)
    if with_tangent:
        assert np.array_equal(traj.tangents, tangents)
    else:
        assert traj.tangents is None


@pytest.mark.parametrize("with_tangent", [False, True])
def test_blowup_step_equals_the_array_formula(with_tangent):
    sp = Space("b", ("x1", "x2"))
    field = VectorField(sp, (sp.parse("1 + x1^2"), 0))
    with pytest.raises(BlowupError) as got:
        integrate_rk4(field, (1.0, 0.0), 1e-3, 2.0, with_tangent=with_tangent)
    with pytest.raises(BlowupError) as want:
        _array_rk4(field, (1.0, 0.0), 1e-3, 2.0, with_tangent)
    assert got.value.step == want.value.step


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_state_is_an_input_error(oscillator, value):
    with pytest.raises(FlowError, match="initial state must be finite") as err:
        integrate_rk4(oscillator.field, (value, 0.0), 1e-3, 1.0, with_tangent=True)
    assert not isinstance(err.value, BlowupError)
    dec = decompose_beta(build_extended(oscillator).dtheta)
    with pytest.raises(FlowError, match="initial state must be finite") as err:
        section_sweep(dec, [(0.0, 1.0, 0.0), (0.0, value, 0.0)], 1e-3, 1.0)
    assert not isinstance(err.value, BlowupError)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_rejected(value):
    sp = Space("p", ("x1",), ("mu",))
    field = VectorField(sp, (sp.parse("mu*x1"),))
    with pytest.raises(FlowError, match="'mu'"):
        integrate_rk4(field, (1.0,), 1e-2, 1.0, params={"mu": value})


def test_compile_jacobian_makes_no_normal_form_call(monkeypatch, euler_numeric):
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "normal_form", None) if name.startswith("liouvar") else None
        if original is not None:
            monkeypatch.setattr(module, "normal_form",
                                lambda e, _f=original: calls.append(e) or _f(e))
    jac = compile_jacobian(euler_numeric.field, {})
    assert calls == []
    # field (-x2*x3, x1*x3, -1/3*x1*x2)
    assert jac([1.0, 2.0, 3.0]) == [[0.0, -3.0, -2.0], [3.0, 0.0, 1.0], [-2 / 3, -1 / 3, 0.0]]


# --------------------------------------------------------------------------
# Volume diagnostic


def test_volume_preserved_euler(euler_numeric):
    traj = integrate_rk4(euler_numeric.field, (1, 1, 1), 1e-3, 10.0, with_tangent=True)
    assert volume_diagnostic(traj) <= 1e-6


def test_volume_preserved_abc():
    sys = build_abc_flow(1, 1, 1).bound()
    traj = integrate_rk4(sys.field, (0.1, 0.2, 0.3), 1e-3, 10.0, with_tangent=True)
    assert volume_diagnostic(traj) <= 1e-6


def test_volume_growth_linear_field():
    sp = Space("g", ("x1", "x2", "x3"))
    field = VectorField(sp, (sp.parse("x1"), 0, 0))
    traj = integrate_rk4(field, (1.0, 1.0, 1.0), 1e-3, 1.0, with_tangent=True)
    final_det = float(np.linalg.det(traj.tangents[-1]))
    assert abs(final_det - math.e) <= 1e-6


def test_volume_requires_tangent(oscillator):
    traj = integrate_rk4(oscillator.field, (1.0, 0.0), 1e-2, 1.0)
    with pytest.raises(FlowError):
        volume_diagnostic(traj)


# --------------------------------------------------------------------------
# Invariant drift


def test_euler_invariant_drift(euler_numeric):
    traj = integrate_rk4(euler_numeric.field, (1, 1, 1), 1e-3, 10.0)
    drifts = invariant_drift(traj, euler_numeric.invariants)
    assert len(drifts) == 2
    assert all(d <= 1e-8 for d in drifts)


def test_oscillator_energy_drift(oscillator):
    traj = integrate_rk4(oscillator.field, (1.0, 0.0), 1e-3, 2 * math.pi)
    (drift,) = invariant_drift(traj, oscillator.invariants)
    assert drift <= 1e-9


def test_constant_invariant_zero_drift(oscillator):
    traj = integrate_rk4(oscillator.field, (1.0, 0.0), 1e-2, 1.0)
    (drift,) = invariant_drift(traj, (1,))
    assert drift == 0.0


# --------------------------------------------------------------------------
# Section sweep


def test_sweep_oscillator_residual(oscillator):
    ext = build_extended(oscillator)
    dec = decompose_beta(ext.dtheta)
    report = section_sweep(dec, [(0.0, 1.0, 0.0)], 1e-3, 2 * math.pi)
    assert report.max_residual <= 1e-6


def test_sweep_trivial_decomposition_exact():
    sp = Space("t", ("x", "z", "w"))
    dec = decompose_beta(basis_form(sp, "z", "w"))
    report = section_sweep(dec, [(0.0, 0.4, -0.9)], 1e-2, 1.0)
    assert report.max_residual <= 1e-14


def test_sweep_second_order_convergence(oscillator):
    ext = build_extended(oscillator)
    dec = decompose_beta(ext.dtheta)
    hs = [4e-3, 2e-3, 1e-3]
    residuals = [section_sweep(dec, [(0.0, 1.0, 0.0)], h, 2.0).max_residual for h in hs]
    slope = np.polyfit(np.log(hs), np.log(residuals), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def test_sweep_euler_seed_line(euler_numeric):
    ext = build_extended(euler_numeric)
    dec = decompose_beta(ext.dtheta)
    seeds = [(0.0, 1.0, 1.0 + 0.05 * j, 1.0) for j in range(-2, 3)]
    coarse = section_sweep(dec, seeds, 1e-3, 2.0)
    fine = section_sweep(dec, seeds, 5e-4, 2.0)
    assert coarse.max_residual <= 1e-4
    ratio = coarse.max_residual / fine.max_residual
    assert 2.5 <= ratio <= 6.0


def test_sweep_needs_seeds(oscillator):
    ext = build_extended(oscillator)
    dec = decompose_beta(ext.dtheta)
    with pytest.raises(FlowError):
        section_sweep(dec, [], 1e-3, 1.0)


# --------------------------------------------------------------------------
# CSV output


def test_trajectory_csv(tmp_path, euler_numeric):
    traj = integrate_rk4(euler_numeric.field, (1, 1, 1), 1e-2, 1.0, with_tangent=True)
    path = tmp_path / "traj.csv"
    rows = write_trajectory_csv(traj, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "s,x0,x1,x2,det"
    assert rows == len(lines) - 1 == 101
    # 17 significant digits survive a float round trip
    cells = lines[-1].split(",")
    assert float(cells[0]) == pytest.approx(1.0, abs=1e-15)


def _reference_csv(traj):
    """The trajectory CSV written row by row from the numpy arrays."""
    n = traj.states.shape[1]
    lines = ["s," + ",".join(f"x{i}" for i in range(n)) + (",det" if traj.tangents is not None else "")]
    dets = np.linalg.det(traj.tangents) if traj.tangents is not None else None
    for i, (s, row) in enumerate(zip(traj.grid, traj.states)):
        cells = [f"{s:.17g}"] + [f"{v:.17g}" for v in row]
        if dets is not None:
            cells.append(f"{dets[i]:.17g}")
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("with_tangent", [True, False])
def test_trajectory_csv_bytes_match_row_by_row_writer(tmp_path, with_tangent):
    sys_ = build_abc_flow(1, 1, 1).bound()
    traj = integrate_rk4(sys_.field, (0.3, 1.2, 2.5), 1e-2, 1.0, with_tangent=with_tangent)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == _reference_csv(traj)
