"""Tests for the RK4 integrator, flow diagnostics, and section sweeps."""

import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouvar.expr import compile_source
from liouvar.exterior import Space, VectorField, basis_form
from liouvar.liouville import LiouvilleSystem, build_extended, decompose_beta
from liouvar import flow
from liouvar.flow import (
    MAX_STEPS,
    BlowupError,
    FlowError,
    compile_columns,
    compile_field,
    compile_jacobian,
    compile_scalar,
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
    load_system,
)

EULER_TOP_FILE = Path(__file__).resolve().parents[1] / "bench" / "bundled" / "euler_top.json"


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
    (1e-300, 1.0, "exceed the limit"),
])
def test_step_count_refused_before_allocation(monkeypatch, oscillator, h, T, message):
    def no_compile(*args):
        raise AssertionError("the step loop was compiled and its arrays allocated")

    monkeypatch.setattr(flow, "_compile_rk4", no_compile)
    with pytest.raises(FlowError, match=message) as err:
        integrate_rk4(oscillator.field, (1.0, 0.0), h, T)
    # the step count is named as a float, not written out in full
    assert len(str(err.value)) < 100
    dec = decompose_beta(build_extended(oscillator).dtheta)
    with pytest.raises(FlowError, match=message):
        section_sweep(dec, [(0.0, 1.0, 0.0)], h, T)


def test_step_count_at_the_limit_is_accepted():
    assert flow._grid(1.0, float(MAX_STEPS)) == (MAX_STEPS, 1.0)


def test_negative_parameter_raised_to_a_power():
    # mu^2*x1 with mu = -1 binds exactly to +x1, before any code is generated
    sp = Space("p", ("x1",), ("mu",))
    system = LiouvilleSystem("p", sp, VectorField(sp, (sp.parse("mu^2*x1"),)),
                             params={"mu": Fraction(-1)})
    field = system.bound().field
    assert field.nfs == (sp.parse("x1"),)
    traj = integrate_rk4(field, (1.0,), 1e-2, 1.0)
    reference = integrate_rk4(VectorField(sp, (sp.parse("x1"),)), (1.0,), 1e-2, 1.0)
    assert np.array_equal(traj.states, reference.states)


def _array_rk4(field, x0, h, T, with_tangent=False):
    """Reference RK4: the array formula on float64 numpy arrays."""
    f = compile_field(field)
    jac = compile_jacobian(field)
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
    """Bound field of one bit-identity case."""
    if system == "line":
        sp = Space("line", ("x1",))
        return VectorField(sp, (sp.parse("x1 - x1^3"),))
    if system == "oscillator_m2":
        ho2 = build_hamiltonian("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", 2)
        return ho2.field
    if system == "charged_particle":
        cp = build_charged_particle(("0", "0", "b"), parameters=("b",))
        return replace(cp, params={"k": Fraction(0.7), "b": Fraction(1.3)}).bound().field
    if system in ("nested", "trig_power", "power_in_atom", "parameter_atom"):
        sp = Space(system, ("x1", "x2"), ("a",))
        field = {"nested": ("sin(x1 + cos(x2))", "-1*x1*cos(x2)"),
                 "trig_power": ("cos(x1)^2", "x1*sin(x2)^3 - x2"),
                 "power_in_atom": ("sin(x1^2)^3 + x2^2", "-1*x1*x2^2"),
                 "parameter_atom": ("sin(a)*x1 + x2", "cos(a + 1)*x2 - sin(a)^2")}[system]
        field = VectorField(sp, tuple(sp.parse(c) for c in field))
        return LiouvilleSystem(system, sp, field, params={"a": Fraction(0.7)}).bound().field
    return {"euler": euler_numeric.field, "abc": build_abc_flow(1, 1, 1).bound().field,
            "oscillator": oscillator.field}[system]


@pytest.mark.parametrize("system, x0, with_tangent", [
    ("euler", (1.0, 1.0, 1.0), False),
    ("euler", (0.3, -0.8, 0.5), True),
    ("abc", (0.3, 1.2, 2.5), True),
    ("oscillator", (1.0, 0.0), False),
    ("line", (0.5,), True),
    ("oscillator", (1.0, 0.0), True),
    ("oscillator_m2", (1.0, 0.0, 0.3, -0.4), True),
    ("charged_particle", (0.1, -0.2, 0.3, 0.5, -0.6, 0.2), True),
    ("nested", (0.4, -1.1), False),
    ("nested", (0.4, -1.1), True),
    ("trig_power", (0.9, 0.2), False),
    ("trig_power", (0.9, 0.2), True),
    ("power_in_atom", (0.6, 0.4), False),
    ("power_in_atom", (0.6, 0.4), True),
    ("parameter_atom", (0.3, -0.5), False),
    ("parameter_atom", (0.3, -0.5), True),
])
def test_integrate_rk4_equals_the_array_formula(system, x0, with_tangent, oscillator,
                                                euler_numeric):
    field = _reference_case(system, oscillator, euler_numeric)
    traj = integrate_rk4(field, x0, 1e-3, 2.0, with_tangent=with_tangent)
    states, tangents = _array_rk4(field, x0, 1e-3, 2.0, with_tangent)
    assert np.array_equal(traj.states, states)
    if with_tangent:
        # the product of the step-Jacobian determinants rounds differently
        # from the LU determinant of the co-integrated map
        dets = np.linalg.det(tangents)
        assert np.all(np.abs(traj.volume - dets) <= 1e-12 * np.abs(dets))
    else:
        assert traj.volume is None


def _step_jacobian_rk4(field, x0, h, T):
    """Reference states and the Jacobians R_k of the RK4 steps from x_k,
    one step at a time, written with 2-D arrays."""
    f = compile_field(field)
    jac = compile_jacobian(field)
    steps = max(1, round(T / h))
    h = T / steps
    h2 = 0.5 * h
    h6 = h / 6.0
    x = np.asarray(x0, dtype=float)
    eye = np.eye(len(x))
    states, step_jacobians = [x], []
    for _ in range(steps):
        k1 = np.asarray(f(x.tolist()), dtype=float)
        y2 = x + h2 * k1
        k2 = np.asarray(f(y2.tolist()), dtype=float)
        y3 = x + h2 * k2
        k3 = np.asarray(f(y3.tolist()), dtype=float)
        y4 = x + h * k3
        k4 = np.asarray(f(y4.tolist()), dtype=float)
        a1, j2, j3, j4 = (np.asarray(jac(y.tolist()), dtype=float) for y in (x, y2, y3, y4))
        a2 = j2 @ (eye + h2 * a1)
        a3 = j3 @ (eye + h2 * a2)
        a4 = j4 @ (eye + h * a3)
        step = eye + h6 * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
        x = x + h6 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        states.append(x)
        step_jacobians.append(step)
    return np.array(states), np.array(step_jacobians)


@pytest.mark.parametrize("system, x0", [
    ("euler", (0.3, -0.8, 0.5)),
    ("abc", (0.3, 1.2, 2.5)),
    ("line", (0.5,)),
    ("oscillator_m2", (1.0, 0.0, 0.3, -0.4)),
    ("charged_particle", (0.1, -0.2, 0.3, 0.5, -0.6, 0.2)),
    ("nested", (0.4, -1.1)),
    ("trig_power", (0.9, 0.2)),
    ("power_in_atom", (0.6, 0.4)),
    ("parameter_atom", (0.3, -0.5)),
])
def test_tangent_maps_are_products_of_the_rk4_step_jacobians(system, x0, oscillator,
                                                             euler_numeric):
    # T = 2.5 at h = 1e-3 spans three blocks, the last one partial
    field = _reference_case(system, oscillator, euler_numeric)
    traj = integrate_rk4(field, x0, 1e-3, 2.5, with_tangent=True)
    states, step_jacobians = _step_jacobian_rk4(field, x0, 1e-3, 2.5)
    assert np.array_equal(traj.states, states)
    volume = np.cumprod(np.concatenate(([1.0], [np.linalg.det(r) for r in step_jacobians])))
    assert np.all(np.abs(traj.volume - volume) <= 1e-13 * np.abs(volume))


@pytest.mark.parametrize("with_tangent", [False, True])
def test_blowup_step_equals_the_array_formula(with_tangent):
    sp = Space("b", ("x1", "x2"))
    field = VectorField(sp, (sp.parse("1 + x1^2"), 0))
    with pytest.raises(BlowupError) as got:
        integrate_rk4(field, (1.0, 0.0), 1e-3, 2.0, with_tangent=with_tangent)
    with pytest.raises(BlowupError) as want:
        _array_rk4(field, (1.0, 0.0), 1e-3, 2.0, with_tangent)
    assert got.value.step == want.value.step


def _blowup_steps(field, x0, h, T, with_tangent):
    """The blow-up steps of ``integrate_rk4`` and of the array formula."""
    with pytest.raises(BlowupError) as got:
        integrate_rk4(field, x0, h, T, with_tangent=with_tangent)
    with pytest.raises(BlowupError) as want, np.errstate(over="ignore", invalid="ignore"):
        _array_rk4(field, x0, h, T, with_tangent)
    return got.value, want.value.step


@pytest.mark.parametrize("with_tangent", [False, True])
def test_blowup_after_the_first_block_equals_the_array_formula(with_tangent):
    sp = Space("b", ("x1", "x2"))
    field = VectorField(sp, (sp.parse("1 + x1^2"), 0))
    got, want = _blowup_steps(field, (1.0, 0.0), 2e-4, 1.0, with_tangent)
    assert got.step == want > flow.BLOCK_STEPS


def test_tangent_overflow_with_a_finite_state_is_the_first_infinite_map():
    # the state stays at 0 while the tangent map is R^k, R = 1 + 1 + 1/2 +
    # 1/6 + 1/24, which overflows at k = 713; the co-integrated formula
    # overflows earlier, in its stage products K
    sp = Space("g", ("x1",))
    field = VectorField(sp, (sp.parse("1000*x1"),))
    assert np.all(integrate_rk4(field, (0.0,), 1e-3, 1.0).states == 0.0)
    got, want = _blowup_steps(field, (0.0,), 1e-3, 1.0, True)
    assert (got.step, want) == (713, 705)
    assert str(got) == "non-finite tangent-map determinant encountered at step 713"


@pytest.mark.parametrize("components, x0, step, what", [
    # the state stays at 0 while R_0 = I + h/6*(J + 2*J(I + h/2*J) + ...)
    # overflows in J @ J, J = [[0, 1e160], [1e160, 0]]
    (("10^160*x2", "10^160*x1"), (0.0, 0.0), 1, "step Jacobian"),
    (("1 + x1^2", "0"), (1.0, 0.0), 788, "state"),
])
def test_tangent_blowup_names_what_stopped_being_finite(components, x0, step, what):
    sp = Space("g", tuple(f"x{i + 1}" for i in range(len(components))))
    field = VectorField(sp, tuple(sp.parse(c) for c in components))
    with pytest.raises(BlowupError) as err:
        integrate_rk4(field, x0, 1e-3, 2.0, with_tangent=True)
    assert str(err.value) == f"non-finite {what} encountered at step {step}"


def test_tangent_trajectory_holds_no_matrix_per_step():
    field = _reference_case("charged_particle", None, None)
    traj = integrate_rk4(field, (0.1, -0.2, 0.3, 0.5, -0.6, 0.2), 1e-2, 1.0, with_tangent=True)
    rows, n = traj.states.shape
    arrays = [value for value in vars(traj).values() if isinstance(value, np.ndarray)]
    assert n == 6 and len(arrays) == 3
    assert all(array.size <= rows * n for array in arrays)
    assert traj.volume.shape == (rows,)


def test_stage_raising_one_step_after_the_state_overflowed_reports_the_overflow():
    # x1 is finite in every stage but overflows in the update of some step;
    # sin(inf) raises ValueError in the first stage of the next step
    sp = Space("v", ("x1", "x2"))
    field = VectorField(sp, (sp.parse("x1"), sp.parse("sin(x1)")))
    got, want = _blowup_steps(field, (1e307, 0.0), 1e-3, 3.0, False)
    assert got.step == want
    raised = got.__context__
    assert isinstance(raised, BlowupError) and raised.step == want + 1
    assert isinstance(raised.__context__, ValueError)


def test_early_tangent_blowup_in_a_grid_of_max_steps_stops_within_a_block():
    # once infinite the tangent map stays so without raising, so only the
    # block check stops the loop before the end of the grid
    sp = Space("g", ("x1",))
    field = VectorField(sp, (sp.parse("1000*x1"),))
    started = time.perf_counter()
    with pytest.raises(BlowupError) as err:
        integrate_rk4(field, (0.0,), 1e-3, MAX_STEPS * 1e-3, with_tangent=True)
    assert time.perf_counter() - started < 5.0
    assert err.value.step < flow.BLOCK_STEPS


def test_rk4_source_evaluates_each_atom_once_per_stage():
    field = build_abc_flow(1, 1, 1).bound().field
    source = flow._rk4_source(field)
    loop = source.split("    for step in range(start, stop):\n")[1]
    # six distinct atoms sin(x_i), cos(x_i) in each of the four stages
    assert loop.count("sin(") == loop.count("cos(") == 12
    atoms = [line.split(" = ")[1] for line in loop.splitlines() if line.lstrip().startswith("a")]
    assert len(atoms) == 24 and len(set(atoms)) == 12
    assert "math." not in source and "isfinite" not in source and "tangent" not in source


def test_rk4_source_names_each_power_and_atom_once_per_stage():
    sp = Space("r", ("x1", "x2"), ("a",))
    field = VectorField(sp, (sp.parse("sin(a)*x2^3 + x2^3 + x1*x2^2"),
                             sp.parse("-1*x2^2 + sin(x1^2)")))
    field = LiouvilleSystem("r", sp, field, params={"a": Fraction(7, 10)}).bound().field
    head, loop = flow._rk4_source(field).split("    for step in range(start, stop):\n")
    # nothing sits between the state unpack and the loop but h2 and h6
    assert head.splitlines()[2:] == ["    x0, x1, = out[(start - 1) * 2:start * 2].tolist()",
                                     "    h2 = 0.5 * h", "    h6 = h / 6.0"]
    assigned = [line.split(" = ") for line in map(str.strip, loop.splitlines())
                if line[:1] in ("a", "p")]
    # x2^3 and x2^2 are taken once per stage although each is read twice,
    # and sin(a) of the bound parameter is evaluated in every stage
    assert assigned == [[local, source.format(s=state)] for state in "xyyy"
                        for local, source in (("p0", "pow({s}1, 3)"), ("a1", "sin(0.7)"),
                                              ("p2", "pow({s}1, 2)"), ("p3", "pow({s}0, 2)"),
                                              ("a4", "sin(p3)"))]
    assert "**" not in loop


# --------------------------------------------------------------------------
# Compiled code is kept per source text


def _euler_top_file(**overrides):
    """euler_top loaded afresh from its file and bound, as ``integrate``
    binds it with ``--param`` overrides."""
    system = load_system(EULER_TOP_FILE)
    return replace(system, params={**system.params, **overrides}).bound()


def _trajectory_bytes(traj):
    return traj.states.tobytes(), None if traj.volume is None else traj.volume.tobytes()


@pytest.mark.parametrize("with_tangent", [False, True])
def test_an_equal_field_loaded_again_reuses_the_compiled_code(with_tangent):
    first, second = _euler_top_file().field, _euler_top_file().field
    assert first is not second and first.nfs is not second.nfs
    cold = integrate_rk4(first, (1, 1, 1), 1e-2, 1.0, with_tangent)
    misses = compile_source.cache_info().misses
    warm = integrate_rk4(second, (1, 1, 1), 1e-2, 1.0, with_tangent)
    assert compile_source.cache_info().misses == misses
    assert _trajectory_bytes(warm) == _trajectory_bytes(cold)
    # the initial state, the step and the duration are arguments, not source
    other = integrate_rk4(second, (0.5, -1, 2), 2e-2, 3.0, with_tangent)
    assert compile_source.cache_info().misses == misses
    assert other.states.shape == (151, 3)


def test_bindings_compiled_one_after_the_other_do_not_leak():
    def run(mu3):
        system = _euler_top_file(mu3=mu3)
        traj = integrate_rk4(system.field, (1, 1, 1), 1e-2, 1.0, with_tangent=True)
        return _trajectory_bytes(traj), invariant_drift(traj, system.invariants)

    bindings = (Fraction(-1, 3), Fraction(-1, 2))
    warm = [run(mu3) for mu3 in bindings]
    assert warm[0] != warm[1]
    for mu3, want in zip(bindings, warm):
        compile_source.cache_clear()
        assert run(mu3) == want


def test_a_blowup_of_cached_code_is_raised_at_the_same_step():
    sp = Space("grow", ("x1", "x2"))
    field = VectorField(sp, (sp.parse("100*x1"), sp.parse("100*x2")))

    def blowup():
        with pytest.raises(BlowupError) as err:
            integrate_rk4(field, (1, 1), 1e-3, 5.0, with_tangent=True)
        return err.value.step, str(err.value)

    compile_source.cache_clear()
    cold = blowup()
    misses = compile_source.cache_info().misses
    assert misses > 0
    assert blowup() == cold == (3549, "non-finite tangent-map determinant encountered at step 3549")
    assert compile_source.cache_info().misses == misses


_COLUMN_SPACE = Space("c", ("x1", "x2"), ("a",))
_FACTORS = ("x1", "x2", "a", "sin(x1)", "cos(x2 + a)", "sin(x1*x2 - 1/3)", "cos(a)",
            "sin(x1^3 - a)")


@st.composite
def _column_forms(draw):
    """Sums of rational multiples of products of powers 1-5 of symbols,
    the parameter and sin/cos atoms; a term may be a constant."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        term = [f"{draw(st.integers(-9, 9))}/{draw(st.integers(1, 7))}"]
        for _ in range(draw(st.integers(0, 3))):
            term.append(f"{draw(st.sampled_from(_FACTORS))}^{draw(st.integers(1, 5))}")
        terms.append("*".join(term))
    return _COLUMN_SPACE.parse(" + ".join(terms))


@settings(max_examples=150, deadline=None)
@given(st.lists(_column_forms(), min_size=1, max_size=3), st.floats(-3, 3),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=20))
def test_column_values_equal_compile_scalar_row_values(nfs, a, rows):
    # the parameter is read as a third coordinate, the same on every row
    rows = [(x1, x2, a) for x1, x2 in rows]
    values = compile_columns(nfs, ("x1", "x2", "a"))(np.array(rows).T)
    for nf, column in zip(nfs, values):
        scalar = compile_scalar(nf, ("x1", "x2", "a"))
        assert np.array_equal(column, [scalar(list(row)) for row in rows])


def test_column_power_overflows_to_infinity():
    # where Python's float ** raises OverflowError, as compile_scalar's does
    sp = Space("c", ("x1",))
    columns = compile_columns([sp.parse("x1^3 + x1^2")], ("x1",))
    (value,) = columns(np.array([[1e200, -1e200, 2.0]]))
    assert value[0] == math.inf and math.isnan(value[1]) and value[2] == 12.0


def test_column_evaluator_takes_each_distinct_power_once(monkeypatch):
    sp = Space("c", ("x1", "x2"))
    nfs = [sp.parse("x1^2*sin(x2)^3 + x1^2"), sp.parse("x2 - sin(x2)^3 + x1^3")]
    powers = []
    monkeypatch.setattr(flow, "_column_power",
                        lambda base, e, _f=flow._column_power: powers.append(e) or _f(base, e))
    compile_columns(nfs, ("x1", "x2"))(np.array([[0.5, 1.5], [0.25, -2.0]]))
    assert sorted(powers) == [2, 3, 3]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_state_is_an_input_error(oscillator, value):
    with pytest.raises(FlowError, match="initial state must be finite") as err:
        integrate_rk4(oscillator.field, (value, 0.0), 1e-3, 1.0, with_tangent=True)
    assert not isinstance(err.value, BlowupError)
    dec = decompose_beta(build_extended(oscillator).dtheta)
    with pytest.raises(FlowError, match="initial state must be finite") as err:
        section_sweep(dec, [(0.0, 1.0, 0.0), (0.0, value, 0.0)], 1e-3, 1.0)
    assert not isinstance(err.value, BlowupError)


def test_compile_jacobian_makes_no_normal_form_call(monkeypatch, euler_numeric):
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "normal_form", None) if name.startswith("liouvar") else None
        if original is not None:
            monkeypatch.setattr(module, "normal_form",
                                lambda e, _f=original: calls.append(e) or _f(e))
    jac = compile_jacobian(euler_numeric.field)
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
    final_det = float(traj.volume[-1])
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
    with pytest.raises(FlowError, match="at least one seed"):
        section_sweep(dec, np.empty((0, 3)), 1e-3, 1.0)


def test_sweep_of_array_starts_equals_the_sweep_of_list_starts(oscillator):
    dec = decompose_beta(build_extended(oscillator).dtheta)
    starts = [[0.0, 1.0, 0.0], [0.0, 0.5, -0.3]]
    assert (section_sweep(dec, np.array(starts), 1e-2, 1.0)
            == section_sweep(dec, starts, 1e-2, 1.0))


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
    lines = ["s," + ",".join(f"x{i}" for i in range(n)) + (",det" if traj.volume is not None else "")]
    dets = traj.volume
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
