"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Symbolic criteria are exact (zero residual forms, no tolerances);
numeric criteria use the stated bounds.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from liouvar.expr import is_zero, nf_add, nf_mul, nf_neg, normal_form
from liouvar.exterior import (
    DiffForm,
    Space,
    VectorField,
    basis_form,
    constant_form,
    exterior_derivative,
    fields_equal,
    hodge_star,
    interior_product,
    wedge,
)
from liouvar.liouville import (
    annihilator_field,
    build_extended,
    decompose_beta,
    hodge_check,
    is_liouville,
    normalize_by_dt,
    psi_forms,
    section_residuals,
    solve_gamma,
    verify_characteristic,
)
from liouvar.systems import (
    build_abc_flow,
    build_abc_flow_variant,
    build_charged_particle,
    build_euler_top,
    build_hamiltonian,
    build_pauli_spin,
    bundled_systems,
    system_from_dict,
    system_to_dict,
)
from liouvar.flow import integrate_rk4, invariant_drift, section_sweep, volume_diagnostic
from oracles import curl3, lie_derivative


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def bundle():
    return bundled_systems()


@pytest.fixture(scope="module")
def oscillator():
    return build_hamiltonian("1/2*q^2 + 1/2*p^2", 1, name="ho")


def test_criterion_01_euler_certificate_chain():
    sys = build_euler_top()  # symbolic coefficients
    lio = is_liouville(sys)
    assert lio.passed and lio.certainty == "exact"
    rot = curl3(sys.space, [sys.gamma.get_nf((i,)) for i in range(3)])
    for got, want in zip(rot, sys.field.nfs):
        res = is_zero(nf_add(got, nf_neg(want)))
        assert res.value and res.certainty == "exact"
    ext = build_extended(sys)
    annihilation = interior_product(ext.field, ext.dtheta)
    assert annihilation.is_zero_form  # zero residual form, not a tolerance
    certs = verify_characteristic(ext)
    assert all(c.passed and c.certainty == "exact" for c in certs)
    _report(1, "rigid-body chain: flux closed, curl potential, characteristic identities (exact)")


def test_criterion_02_abc_flow():
    sys = build_abc_flow()
    residual = exterior_derivative(sys.gamma) - interior_product(sys.field, sys.omega)
    assert residual.is_zero_form
    rot = curl3(sys.space, sys.field.nfs)
    for got, want in zip(rot, sys.field.nfs):
        res = is_zero(nf_add(got, nf_neg(want)))
        assert res.value and res.certainty == "exact"
    control = is_liouville(build_abc_flow_variant())
    assert not control.passed
    _report(2, "Beltrami flow: exact potential and curl identity; control variant fails")


def test_criterion_03_charged_particle():
    sys = build_charged_particle(("0", "0", "b"), parameters=("b",))
    dgamma = exterior_derivative(sys.gamma) - interior_product(sys.field, sys.omega)
    assert dgamma.is_zero_form
    dsigma = exterior_derivative(sys.sigma) - sys.omega
    assert dsigma.is_zero_form
    _report(3, "charged particle, constant field: potentials match flux and volume (exact)")


def test_criterion_04_pauli_spin():
    ext = build_pauli_spin()  # symbolic Bx, By, Bz, kappa; anti-self-dual triple
    sp = ext.base.space
    expected = VectorField(sp, tuple(map(sp.parse, (
        "kappa*(-1*Bz*x2 + By*x3 - Bx*x4)",
        "kappa*(Bz*x1 + Bx*x3 + By*x4)",
        "kappa*(-1*By*x1 - Bx*x2 + Bz*x4)",
        "kappa*(Bx*x1 - By*x2 - Bz*x3)",
    ))))
    match = fields_equal(ext.base.field, expected)
    assert match.value and match.certainty == "exact"
    annihilation = interior_product(ext.field, ext.dtheta)
    assert annihilation.is_zero_form
    _report(4, "spin system: symplectic-gradient sum equals the linear field; Z annihilates d(theta)")


def test_criterion_05_roundtrip_uniqueness(bundle):
    for name, sys in bundle.items():
        if name == "abc_paper_verbatim":
            continue
        ext = build_extended(sys.bound())
        Z = normalize_by_dt(annihilator_field(ext.dtheta))
        match = fields_equal(Z, ext.field)
        assert match.value and match.certainty == "exact", name
    _report(5, "annihilator extraction + dt normalization reproduces d_t + X for every bundled system")


def test_criterion_06_homotopy_solver_property():
    rng = random.Random(606)
    checked = 0
    while checked < 100:
        n = rng.choice((3, 4, 5))
        space = Space("h", tuple(f"y{i}" for i in range(n)))
        idxs = list(itertools.combinations(range(n), n - 2))
        coeffs = {}
        for idx in rng.sample(idxs, k=min(2, len(idxs))):
            e = normal_form(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(0, 3)):
                e = nf_mul(e, space.parse(rng.choice(space.coordinates)))
            coeffs[idx] = e
        chi = exterior_derivative(DiffForm(space, n - 2, coeffs))
        if chi.is_zero_form:
            continue
        gamma = solve_gamma(chi)
        assert (exterior_derivative(gamma) - chi).is_zero_form
        checked += 1
    _report(6, f"homotopy potential solves {checked} random closed polynomial forms exactly")


def test_criterion_07_gauge_invariance():
    rng = random.Random(707)
    sys = build_euler_top()
    reference = build_extended(sys).dtheta
    import dataclasses
    for i in range(50):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        closed = basis_form(sys.space, rng.choice(sys.space.coordinates), coeff=coeff)
        x = sys.space.parse(rng.choice(sys.space.coordinates))
        potential = constant_form(sys.space, nf_mul(nf_mul(x, x), normal_form(coeff)))
        closed = closed + exterior_derivative(potential)
        shifted = dataclasses.replace(sys, gamma=sys.gamma + closed)
        assert build_extended(shifted).dtheta == reference
    _report(7, "50 random closed shifts of the potential leave d(theta) unchanged exactly")


def _random_poly(rng, coords):
    space = Space("poly", tuple(coords))
    e = normal_form(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    for _ in range(rng.randint(0, 2)):
        e = nf_mul(e, space.parse(rng.choice(coords)))
    return e


def _random_form(rng, space, degree):
    idxs = list(itertools.combinations(range(space.dim), degree))
    chosen = rng.sample(idxs, k=min(len(idxs), 2))
    return DiffForm(space, degree, {i: _random_poly(rng, space.coordinates) for i in chosen})


def _random_field(rng, space):
    return VectorField(space, tuple(_random_poly(rng, space.coordinates) for _ in space.coordinates))


def test_criterion_08_calculus_property_suite():
    rng = random.Random(808)
    spaces = {n: Space("c", tuple(f"y{i}" for i in range(n))) for n in (2, 3, 4)}
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        space = spaces[n]
        a = _random_form(rng, space, rng.randint(0, n - 2))
        assert exterior_derivative(exterior_derivative(a)).is_zero_form
    for _ in range(100):
        n = rng.choice((3, 4))
        space = spaces[n]
        v = _random_field(rng, space)
        p = rng.randint(1, n - 2)
        q = rng.randint(1, n - p)
        a = _random_form(rng, space, p)
        b = _random_form(rng, space, q)
        lhs = interior_product(v, wedge(a, b))
        rhs = wedge(interior_product(v, a), b) + wedge(a, interior_product(v, b)) * (-1) ** p
        assert (lhs - rhs).is_zero_form
    for _ in range(100):
        n = rng.choice((2, 3))
        space = spaces[n]
        v = _random_field(rng, space)
        a = _random_form(rng, space, rng.randint(0, n - 2))
        lhs = lie_derivative(v, exterior_derivative(a))
        rhs = exterior_derivative(lie_derivative(v, a))
        assert (lhs - rhs).is_zero_form
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        space = spaces[n]
        r = rng.randint(0, n)
        a = _random_form(rng, space, r)
        twice = hodge_star(hodge_star(a))
        assert (twice - a * (-1) ** (r * (n - r))).is_zero_form
    _report(8, "d.d, antiderivation, naturality, double duality: 100 exact instances each")


def test_criterion_09_hodge_lemma(oscillator):
    scaled = system_from_dict({**system_to_dict(build_euler_top()), "metric": ["4", "4", "4"]})
    for sys in (oscillator, build_euler_top(), scaled):
        ext = build_extended(sys)
        annihilation, _ = verify_characteristic(ext)
        cert = hodge_check(ext, annihilation)
        assert cert.passed and cert.certainty == "exact"
    _report(9, "metric duality of d(theta): Euclidean oscillator/rigid body and one scaled metric")


def test_criterion_10_numerics(oscillator, bundle):
    euler = bundle["euler_top"].bound()
    traj = integrate_rk4(euler.field, (1, 1, 1), 1e-3, 10.0, with_tangent=True)
    drifts = invariant_drift(traj, euler.invariants)
    assert all(d <= 1e-8 for d in drifts)
    assert volume_diagnostic(traj) <= 1e-6

    ho_traj = integrate_rk4(oscillator.field, (1.0, 0.0), 1e-3, 2 * math.pi)
    assert np.max(np.abs(ho_traj.states[-1] - np.array([1.0, 0.0]))) <= 1e-9

    sp = Space("ctrl", ("x1", "x2", "x3"))
    control = VectorField(sp, (sp.parse("x1"), 0, 0))
    ctraj = integrate_rk4(control, (1.0, 1.0, 1.0), 1e-3, 1.0, with_tangent=True)
    assert abs(float(ctraj.volume[-1]) - math.e) <= 1e-6

    dec = decompose_beta(build_extended(oscillator).dtheta)
    hs = [4e-3, 2e-3, 1e-3]
    residuals = [section_sweep(dec, [(0.0, 1.0, 0.0)], h, 2.0).max_residual for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(residuals), 1)[0])
    assert abs(slope - 2.0) <= 0.3
    _report(10, f"drift<=1e-8, |det-1|<=1e-6, period return<=1e-9, det~e, sweep slope {slope:.3f}")


def test_criterion_11_lemma2_and_residuals(oscillator):
    for sys in (oscillator, build_euler_top()):
        ext = build_extended(sys)
        dec = decompose_beta(ext.dtheta)
        pf = psi_forms(dec)
        assert interior_product(dec.field, pf.psi1).is_zero_form
        assert interior_product(dec.field, pf.psi2).is_zero_form
    ext = build_extended(oscillator)
    dec = decompose_beta(ext.dtheta)
    sp = ext.space
    r1, r2 = section_residuals(sp.parse("sin(t)"), sp.parse("cos(t)"), dec)
    assert r1.is_zero() and r2.is_zero()
    r1, r2 = section_residuals(sp.parse("t"), 1, dec)
    assert not r1.is_zero()
    assert r2.is_zero()
    _report(11, "vertical contractions annihilated by W; section residuals vanish exactly on the solution")
