"""Tests for the certificate pipeline: potentials, extension, characteristics."""

import functools
import importlib.util
import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import liouvar.liouville as liouville_module
from liouvar.expr import (
    DEFAULT_SEED,
    EXACT,
    ExprError,
    ZeroResult,
    is_zero,
    nf_mul,
    normal_form,
    parse_expr,
    render,
)
from liouvar.exterior import (
    DegreeError,
    DiffForm,
    GeometryError,
    Space,
    VectorField,
    basis_form,
    constant_form,
    coordinate_vector,
    exterior_derivative,
    fields_equal,
    form_is_zero,
    hodge_star,
    interior_product,
    reorder_field,
    volume_form,
    wedge,
)
from liouvar.liouville import (
    ExtendedSystem,
    ImproperPrincipleError,
    LiouvilleSystem,
    NormalizationError,
    PotentialError,
    SystemInvariantError,
    annihilator_field,
    build_extended,
    characteristic_field,
    decompose_beta,
    hodge_check,
    is_liouville,
    is_proper,
    kernel_residual,
    normalize_by_dt,
    promote_field,
    psi_forms,
    section_residuals,
    solve_gamma,
    split_chart,
    validate_system,
    verify_characteristic,
    vertical_pair,
)
from liouvar.systems import (bundled_systems, build_euler_top, build_hamiltonian, load_system,
                             system_from_dict, system_to_dict)
from test_cli import _ROTATION_R3, _WIDE_FIELD
from test_exterior import dense_interior, dense_tensor, value as dense_value


@pytest.fixture(scope="module")
def bundle():
    return bundled_systems()


@pytest.fixture(scope="module")
def oscillator():
    return build_hamiltonian("1/2*q^2 + 1/2*p^2", 1, name="ho")


@pytest.fixture(scope="module")
def euler_symbolic():
    return build_euler_top()


# --------------------------------------------------------------------------
# Liouville condition


def test_is_liouville_euler_exact(euler_symbolic):
    cert = is_liouville(euler_symbolic)
    assert cert.passed and cert.certainty == "exact"


def test_is_liouville_counterexample():
    sp = Space("c", ("x1", "x2", "x3"))
    sys = LiouvilleSystem("c", sp, VectorField(sp, (sp.parse("x1"), 0, 0)))
    cert = is_liouville(sys)
    assert not cert.passed and cert.certainty == "exact"
    assert cert.residual is not None


def test_is_liouville_trig_exact(bundle):
    cert = is_liouville(bundle["abc_flow"])
    assert cert.passed and cert.certainty == "exact"


def test_binding_a_bound_copy_makes_no_substitution(monkeypatch, bundle):
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "substitute", None) if name.startswith("liouvar") else None
        if original is not None:
            monkeypatch.setattr(module, "substitute",
                                lambda *args, _f=original: calls.append(args) or _f(*args))
    b = bundle["euler_top"].bound()
    assert calls and all(value is None for value in b.params.values())
    calls.clear()
    assert b.bound() is b
    cert = is_liouville(b)
    assert cert.passed and calls == []


# --------------------------------------------------------------------------
# Potential solving


def test_solve_gamma_constant_two_form():
    sp = Space("s", ("x1", "x2", "x3"))
    chi = basis_form(sp, "x1", "x2")
    gamma = solve_gamma(chi)
    # one-axis homotopy: the antiderivative in x1 from 0 on the index without x1
    assert gamma == DiffForm(sp, 1, {(1,): sp.parse("x1")})
    assert exterior_derivative(gamma) == chi


def test_solve_gamma_euler_flux(euler_symbolic):
    chi = interior_product(euler_symbolic.field, euler_symbolic.omega)
    gamma = solve_gamma(chi)
    assert exterior_derivative(gamma) == chi
    # homotopy representative differs from the closed-form potential by a closed form
    assert exterior_derivative(gamma - euler_symbolic.gamma).is_zero_form


def test_solve_gamma_not_closed():
    sp = Space("s", ("x1", "x2", "x3"))
    chi = DiffForm(sp, 2, {(1, 2): sp.parse("x1")})
    with pytest.raises(PotentialError):
        solve_gamma(chi)


def test_solve_gamma_non_polynomial():
    sp = Space("s", ("x1", "x2"))
    chi = DiffForm(sp, 1, {(0,): sp.parse("cos(x2)*0 + sin(x1)")})
    with pytest.raises(PotentialError, match="non-polynomial"):
        solve_gamma(chi)


_R2 = Space("s", ("x1", "x2"))


@pytest.mark.parametrize("coeffs, message, certainty", [
    # decided exactly: a polynomial closure
    ({(1,): "x1*x2"}, "input form is not closed", "exact"),
    # decided by sampling: a trig-only closure, -cos(x2) dx1^dx2
    ({(0,): "sin(x2)"}, "input form is not closed", "probabilistic"),
    # closed: d(sin(x1) dx1) is the zero form
    ({(0,): "sin(x1)"}, "non-polynomial", "exact"),
    # closed by angle addition, a sampled identity
    ({(0,): "sin(x1 + x2)", (1,): "sin(x1)*cos(x2) + cos(x1)*sin(x2)"}, "non-polynomial", "exact"),
])
def test_solve_gamma_decides_closure_before_refusing_trig(coeffs, message, certainty):
    chi = DiffForm(_R2, 1, {idx: _R2.parse(text) for idx, text in coeffs.items()})
    with pytest.raises(PotentialError, match=message) as refusal:
        solve_gamma(chi)
    assert refusal.value.certainty == certainty


def test_solve_gamma_decides_closure_at_the_callers_zero_test(bundle, monkeypatch):
    seeds = []

    def recording(form, seed):
        seeds.append(seed)
        return form_is_zero(form, seed)

    monkeypatch.setattr(liouville_module, "form_is_zero", recording)
    with pytest.raises(PotentialError, match="not closed"):
        build_extended(bundle["abc_paper_verbatim"].bound(), 7)
    assert seeds == [7]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_solve_gamma_random_closed(n):
    rng = random.Random(n)
    space = Space("s", tuple(f"y{i}" for i in range(n)))
    for _ in range(10):
        seed_coeffs = {}
        import itertools
        idxs = list(itertools.combinations(range(n), n - 2))
        for idx in rng.sample(idxs, k=min(2, len(idxs))):
            coeff = normal_form(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(0, 3)):
                coeff = nf_mul(coeff, space.parse(rng.choice(space.coordinates)))
            seed_coeffs[idx] = coeff
        chi = exterior_derivative(DiffForm(space, n - 2, seed_coeffs))
        if chi.is_zero_form:
            continue
        gamma = solve_gamma(chi)
        assert (exterior_derivative(gamma) - chi).is_zero_form


# --------------------------------------------------------------------------
# Default sigma: the potential of the volume form


def test_default_sigma_r3():
    sp = Space("s", ("x1", "x2", "x3"))
    sigma = solve_gamma(volume_form(sp))
    assert sigma == DiffForm(sp, 2, {(1, 2): sp.parse("x1")})
    assert exterior_derivative(sigma) == volume_form(sp)


def test_default_sigma_r2():
    sp = Space("s", ("q", "p"))
    assert solve_gamma(volume_form(sp)) == DiffForm(sp, 1, {(1,): sp.parse("q")})


def test_default_sigma_nonstandard_volume():
    sp = Space("s", ("x1", "x2"))
    assert solve_gamma(volume_form(sp) * 2) == DiffForm(sp, 1, {(1,): sp.parse("2*x1")})


def test_default_sigma_polynomial_density():
    sp = Space("s", ("x1", "x2", "x3"), ("a",))
    omega = volume_form(sp) * sp.parse("1 + a*x1^2*x3 - 3*x2")
    sigma = solve_gamma(omega)
    assert sigma == DiffForm(sp, 2, {(1, 2): sp.parse("x1 + 1/3*a*x1^3*x3 - 3*x1*x2")})
    assert exterior_derivative(sigma) == omega


def test_charged_particle_sigma_verified(bundle):
    sys = bundle["charged_particle_constB"]
    assert exterior_derivative(sys.sigma) == sys.omega


# --------------------------------------------------------------------------
# Extension


def test_extended_oscillator_theta(oscillator):
    ext = build_extended(oscillator)
    H = parse_expr("1/2*q^2 + 1/2*p^2", ("t", "q", "p"))
    expected = DiffForm(ext.space, 1, {(0,): H, (2,): ext.space.parse("q")})
    assert ext.theta == expected


def test_extended_euler_theta(euler_symbolic):
    ext = build_extended(euler_symbolic)
    # x1 dx2^dx3 - sum_i A_i dx^i ^ dt, written on (t, x1, x2, x3)
    sp = ext.space
    A = [parse_expr(s, sp.symbols) for s in
         ("1/2*mu2*x1*x3^2", "1/2*mu3*x2*x1^2", "1/2*mu1*x3*x2^2")]
    expected = DiffForm(sp, 2, {
        (2, 3): sp.parse("x1"),
        (0, 1): A[0],
        (0, 2): A[1],
        (0, 3): A[2],
    })
    assert ext.theta == expected


def test_extended_abc_theta(bundle):
    sys = bundle["abc_flow"]
    ext = build_extended(sys)
    sp = ext.space
    dt = basis_form(sp, "t")
    from liouvar.liouville import promote_form
    gamma_m = promote_form(sys.gamma, sp)
    sigma_m = promote_form(solve_gamma(volume_form(sys.space)), sp)
    assert ext.theta == sigma_m - wedge(gamma_m, dt)


def test_extended_requires_time_free_name():
    sp = Space("bad", ("t", "x"))
    sys = LiouvilleSystem("bad", sp, VectorField(sp, (0, 0)))
    from liouvar.exterior import GeometryError
    with pytest.raises(GeometryError):
        build_extended(sys)


# --------------------------------------------------------------------------
# Characteristic verification


def test_verify_characteristic_euler(euler_symbolic):
    ext = build_extended(euler_symbolic)
    certs = verify_characteristic(ext)
    assert all(c.passed and c.certainty == "exact" for c in certs)


def test_verify_characteristic_pauli(bundle):
    ext = build_extended(bundle["pauli_spin"].bound())
    certs = verify_characteristic(ext)
    assert all(c.passed for c in certs)


def test_verify_characteristic_perturbed_fails(euler_symbolic):
    ext = build_extended(euler_symbolic)
    bad_theta = ext.theta + DiffForm(ext.space, 2, {(1, 3): ext.space.parse("x2")})
    import dataclasses
    bad = dataclasses.replace(ext, theta=bad_theta,
                              dtheta=exterior_derivative(bad_theta))
    certs = verify_characteristic(bad)
    annihilation = [c for c in certs if c.name == "characteristic_annihilation"][0]
    assert not annihilation.passed
    assert annihilation.residual is not None and not annihilation.residual.is_zero_form


# --------------------------------------------------------------------------
# The kernel residual: one check of W = rho·Z

BENCH = Path(__file__).resolve().parents[1] / "bench"
_DENSITY_ROTATION = {"name": "rotation", **_ROTATION_R3,
                     "volume": [{"index": [1, 2, 3], "coeff": "1 + x3^2"}]}
# the wrong_theta file of the CI smoke test
_WRONG_THETA = {"name": "wrong_theta", "coordinates": ["x1", "x2"], "vector_field": ["x2", "-1*x1"],
                "theta": [{"index": [3], "coeff": "x1"}, {"index": [1], "coeff": "1/2*x1^2"}]}


@functools.cache
def _gen_system(kind, size):
    """A ``bench/gen.py`` system, loaded from the file without importing
    the bench directory."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return json.loads(gen.system_text(kind, size, random.Random(f"{kind}:{size}")))


def _perturbed_euler(seed):
    """The bad d(theta) of ``test_verify_characteristic_perturbed_fails``."""
    ext = build_extended(build_euler_top(), seed)
    bad_theta = ext.theta + DiffForm(ext.space, 2, {(1, 3): ext.space.parse("x2")})
    return replace(ext, theta=bad_theta, dtheta=exterior_derivative(bad_theta))


# abc_paper_verbatim is not volume-preserving and builds no extended system
_KERNEL_CASES = {
    **{name: lambda seed, name=name: load_system(BENCH / "bundled" / f"{name}.json", seed)
       for name in sorted(p.stem for p in (BENCH / "bundled").glob("*.json"))
       if name != "abc_paper_verbatim"},
    "perturbed_euler_top": _perturbed_euler,
    "wrong_theta": lambda seed: system_from_dict(_WRONG_THETA, seed),
    "density_rotation": lambda seed: system_from_dict(_DENSITY_ROTATION, seed),
    "wide_field": lambda seed: system_from_dict(_WIDE_FIELD, seed),
    "cubic_nambu_8": lambda seed: system_from_dict(_gen_system("cubic_nambu", 8), seed),
    "cubic_nambu_6": lambda seed: system_from_dict(_gen_system("cubic_nambu", 6), seed),
}
_FAILING = {"perturbed_euler_top", "wrong_theta"}
# a dense tensor of degree n on M = R × R^n has (n + 1)^n entries: 9^8 at n = 8
_DENSE_CASES = [name for name in _KERNEL_CASES if name != "cubic_nambu_8"]


@functools.cache
def _kernel_case(name, seed):
    seed = DEFAULT_SEED if seed is None else seed
    built = _KERNEL_CASES[name](seed)
    ext = built if isinstance(built, ExtendedSystem) else build_extended(built.bound(), seed)
    return ext, seed


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("name", list(_KERNEL_CASES))
def test_kernel_residual_decides_what_the_contraction_and_characteristic_decide(name, seed):
    """form_is_zero(R), the contraction Z ⌟ d(theta) that R replaced, and
    ``characteristic``'s W_matches_annihilator agree in value and
    certainty.  wide_field's contraction sums products X^i·X^j − X^j·X^i
    that are each over the term budget, so it is refused; the dense test
    below checks that case's verdict."""
    ext, seed = _kernel_case(name, seed)
    residual = form_is_zero(kernel_residual(ext), seed)
    if name == "wide_field":
        with pytest.raises(ExprError, match="budget"):
            interior_product(ext.field, ext.dtheta)
    else:
        assert form_is_zero(interior_product(ext.field, ext.dtheta), seed) == residual
    W = characteristic_field(decompose_beta(ext.dtheta), seed)
    try:
        matches = fields_equal(normalize_by_dt(reorder_field(W, ext.space)), ext.field, seed)
    except NormalizationError:
        # characteristic exits 1 on a W it cannot divide by W^t, such as a
        # vertical one; exact division decides that without sampling
        matches = ZeroResult(False, EXACT)
    assert residual == matches
    assert residual.value == (name not in _FAILING)
    [cert] = [c for c in verify_characteristic(ext, seed)
              if c.name == "characteristic_annihilation"]
    assert (cert.passed, cert.certainty) == (residual.value, residual.certainty)


@pytest.mark.parametrize("name", _DENSE_CASES)
def test_characteristic_annihilation_passes_where_the_dense_contraction_vanishes(name):
    """Z ⌟ d(theta) evaluated as dense tensors at three rational points,
    with no interior product, flux field or kernel residual: it is 0 up
    to rounding exactly where ``characteristic_annihilation`` passes."""
    ext, seed = _kernel_case(name, None)
    [cert] = [c for c in verify_characteristic(ext, seed)
              if c.name == "characteristic_annihilation"]
    rng = random.Random(name)
    vanishes = []
    for _ in range(3):
        point = {s: float(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                 for s in ext.space.coordinates + ext.space.parameters}
        z = np.array([dense_value(c, point) for c in ext.field.nfs])
        dtheta = dense_tensor(ext.dtheta, point)
        scale = 1 + np.abs(z).sum() * np.abs(dtheta).max()
        vanishes.append(np.abs(dense_interior(z, dtheta)).max() <= 1e-9 * scale)
    assert all(vanishes) == cert.passed
    assert any(vanishes) == cert.passed


def test_kernel_residual_is_dtheta_minus_rho_times_the_flux_of_Z():
    sp = Space("d", ("t", "x1", "x2"))
    rho = sp.parse("1 + x1^2")
    Z = VectorField(sp, (1, sp.parse("x2"), sp.parse("-1*x1")))
    dtheta = interior_product(Z, volume_form(sp)) * rho
    ext = ExtendedSystem("d", sp, Z, dtheta, dtheta)
    assert kernel_residual(ext).is_zero_form
    bad = dtheta + DiffForm(sp, 2, {(0, 2): sp.parse("x1")})
    residual = kernel_residual(replace(ext, dtheta=bad))
    assert residual == DiffForm(sp, 2, {(0, 2): sp.parse("x1")})


# --------------------------------------------------------------------------
# Annihilator and normalization


def test_annihilator_single_missing_index():
    sp = Space("a", ("y0", "y1", "y2"))
    alpha = basis_form(sp, "y1", "y2")
    Y = annihilator_field(alpha)
    assert [render(c) for c in Y.nfs] == ["1", "0", "0"]
    assert interior_product(Y, alpha).is_zero_form


def test_annihilator_oscillator(oscillator):
    ext = build_extended(oscillator)
    Y = annihilator_field(ext.dtheta)
    assert [render(c) for c in Y.nfs] == ["1", "p", "-1*q"]
    assert interior_product(Y, ext.dtheta).is_zero_form


def test_annihilator_euler_proportional_to_evolution(euler_symbolic):
    ext = build_extended(euler_symbolic)
    Y = annihilator_field(ext.dtheta)
    Z = promote_field(euler_symbolic.field, ext.space)
    assert fields_equal(Y, Z).value


def test_normalize_constant_scaling():
    sp = Space("n", ("t", "x"))
    Y = VectorField(sp, (2, sp.parse("2*x")))
    Z = normalize_by_dt(Y)
    assert [render(c) for c in Z.nfs] == ["1", "x"]


def test_normalize_polynomial_division():
    sp = Space("n", ("t", "x"))
    Y = VectorField(sp, (sp.parse("t"), sp.parse("t*x")))
    Z = normalize_by_dt(Y)
    assert [render(c) for c in Z.nfs] == ["1", "x"]


def test_normalize_vertical_rejected():
    sp = Space("n", ("t", "x"))
    with pytest.raises(NormalizationError):
        normalize_by_dt(VectorField(sp, (0, sp.parse("x"))))


def test_normalize_non_divisible_rejected():
    sp = Space("n", ("t", "x"))
    with pytest.raises(NormalizationError):
        normalize_by_dt(VectorField(sp, (sp.parse("t"), sp.parse("x"))))


# --------------------------------------------------------------------------
# Decomposition


def test_decompose_vertical_area_form():
    sp = Space("d", ("x", "z", "w"))
    beta = basis_form(sp, "z", "w")
    dec = decompose_beta(beta)
    assert [render(a) for a in dec.coefficients] == ["1"]
    assert render(dec.f) == "0" and render(dec.g) == "0"
    assert characteristic_field(dec) == VectorField(sp, (1, 0, 0))


def test_decompose_oscillator(oscillator):
    ext = build_extended(oscillator)
    dec = decompose_beta(ext.dtheta)
    assert [render(a) for a in dec.coefficients] == ["1"]
    assert render(dec.f) == "p"
    assert render(dec.g) == "-1*q"
    assert dec.recompose() == ext.dtheta


def test_decompose_euler_roundtrip(euler_symbolic):
    ext = build_extended(euler_symbolic)
    dec = decompose_beta(ext.dtheta)
    assert dec.recompose() == ext.dtheta
    W = characteristic_field(dec)
    assert fields_equal(W, annihilator_field(ext.dtheta)).value
    Z = normalize_by_dt(W)
    assert fields_equal(Z, ext.field).value


def test_decompose_permuted_verticals(euler_symbolic):
    ext = build_extended(euler_symbolic)
    dec = decompose_beta(ext.dtheta, verticals=("x1", "x3"))
    assert dec.base == ("t", "x2")
    assert dec.verticals == ("x1", "x3")
    W = characteristic_field(dec)
    from liouvar.exterior import reorder_form
    beta_perm = reorder_form(ext.dtheta, dec.space)
    assert dec.recompose() == beta_perm
    assert interior_product(W, beta_perm).is_zero_form


def test_decompose_wrong_degree():
    sp = Space("d", ("x", "z", "w"))
    with pytest.raises(DegreeError):
        decompose_beta(basis_form(sp, "z"))


# --------------------------------------------------------------------------
# Properness


def test_proper_examples(bundle):
    for name in ("euler_top", "abc_flow", "harmonic_oscillator_m1",
                 "harmonic_oscillator_m2", "pauli_spin", "nambu_rotor",
                 "charged_particle_constB", "free_particle", "hyperham_generic"):
        ext = build_extended(bundle[name].bound())
        proper = is_proper(decompose_beta(ext.dtheta))
        assert proper.value, name
        # abc_flow's d(theta) has trig atoms, but dσ = Ω puts a constant
        # coefficient in it, the base component along t: a trig-free
        # witness that the base components do not all vanish, so nothing
        # is sampled
        assert proper.certainty == "exact", name


def test_improper_form():
    sp = Space("d", ("x", "z", "w"))
    beta = basis_form(sp, "x", "z", coeff=sp.parse("x"))
    proper = is_proper(decompose_beta(beta))
    assert not proper.value and proper.certainty == "exact"
    with pytest.raises(ImproperPrincipleError):
        characteristic_field(decompose_beta(beta))


def test_proper_vertical_area():
    sp = Space("d", ("x", "z", "w"))
    assert is_proper(decompose_beta(basis_form(sp, "z", "w"))).value


def test_improper_refusal_ends_with_the_certainty_of_its_zero_tests():
    sp = Space("d", ("x", "z", "w"))
    dec = decompose_beta(basis_form(sp, "x", "z", coeff=sp.parse("x")))
    with pytest.raises(ImproperPrincipleError) as exact:
        characteristic_field(dec)
    assert exact.value.certainty == "exact" and str(exact.value).endswith(" (exact)")
    # a trig identity is decided by sampling
    dec = replace(dec, coefficients=(sp.parse("sin(x)^2 + cos(x)^2 - 1"),))
    with pytest.raises(ImproperPrincipleError) as sampled:
        characteristic_field(dec)
    assert sampled.value.certainty == "probabilistic"
    assert str(sampled.value).endswith(" (probabilistic)")


def _double_contraction_is_nonzero(beta, verticals):
    """Reference rule for properness: d_z ⌟ (d_w ⌟ beta) does not vanish
    identically, with the certainty of ``form_is_zero`` on it."""
    z, w = vertical_pair(beta.space, verticals)
    inner = interior_product(coordinate_vector(beta.space, z),
                             interior_product(coordinate_vector(beta.space, w), beta))
    vanishes = form_is_zero(inner)
    return ZeroResult(not vanishes.value, vanishes.certainty)


_XZW = Space("d", ("x", "z", "w"))
_SPLIT_FORMS = {
    "improper x dx^dz": basis_form(_XZW, "x", "z", coeff=_XZW.parse("x")),
    "vertical area": basis_form(_XZW, "z", "w"),
    # a trig identity as the only base component is decided by sampling
    "sampled identity": basis_form(_XZW, "z", "w", coeff=_XZW.parse("sin(x)^2 + cos(x)^2 - 1")),
}


def test_is_proper_agrees_with_the_double_vertical_contraction(bundle):
    betas = {name: build_extended(system.bound()).dtheta
             for name, system in bundle.items() if name != "abc_paper_verbatim"}
    betas.update(_SPLIT_FORMS)
    # H = q leaves d(theta) without a dt∧dp term: improper for (t, p)
    betas["drift"] = build_extended(build_hamiltonian("q", 1, name="drift")).dtheta
    verdicts = set()
    for name, beta in betas.items():
        for pair in itertools.permutations(beta.space.coordinates, 2):
            proper = is_proper(decompose_beta(beta, pair))
            assert proper == _double_contraction_is_nonzero(beta, pair), (name, pair)
            verdicts.add((proper.value, proper.certainty))
    # abc_flow's trig-only base components are sampled for some pairs
    assert verdicts == {(True, "exact"), (True, "probabilistic"),
                        (False, "exact"), (False, "probabilistic")}


@pytest.mark.parametrize("verticals", [("z", "z"), ("z", "v"), ("z",), ("x", "z", "w")])
def test_split_chart_and_is_proper_refuse_what_is_not_two_distinct_coordinates(verticals):
    sp = Space("d", ("x", "z", "w"))
    beta = basis_form(sp, "z", "w")
    for check in (vertical_pair, split_chart, lambda sp, v: is_proper(decompose_beta(beta, v))):
        with pytest.raises(GeometryError, match="must be two distinct coordinates"):
            check(sp, verticals)


def test_a_vertical_pair_leaves_a_base_coordinate():
    assert vertical_pair(Space("d", ("x", "z", "w"))) == ("z", "w")
    assert vertical_pair(Space("d", ("x", "z", "w")), ["x", "w"]) == ("x", "w")
    with pytest.raises(GeometryError, match="at least one base coordinate"):
        vertical_pair(Space("d", ("z", "w")))


# --------------------------------------------------------------------------
# Psi forms and section residuals


def test_psi_oscillator(oscillator):
    ext = build_extended(oscillator)
    pf = psi_forms(decompose_beta(ext.dtheta))
    # Psi_1 = dp + q dt, Psi_2 = -dq + p dt
    sp = ext.space
    assert pf.psi1 == DiffForm(sp, 1, {(2,): 1, (0,): sp.parse("q")})
    assert pf.psi2 == DiffForm(sp, 1, {(1,): -1, (0,): sp.parse("p")})


def test_psi_euler(euler_symbolic):
    """With symbolic parameters, W still annihilates both Psi forms."""
    ext = build_extended(euler_symbolic)
    dec = decompose_beta(ext.dtheta)
    pf = psi_forms(dec)
    assert not pf.psi1.is_zero_form and not pf.psi2.is_zero_form
    assert interior_product(dec.field, pf.psi1).is_zero_form
    assert interior_product(dec.field, pf.psi2).is_zero_form


def test_psi_vertical_area():
    sp = Space("d", ("x", "z", "w"))
    beta = basis_form(sp, "z", "w")
    pf = psi_forms(decompose_beta(beta))
    assert pf.psi1 == basis_form(sp, "w")
    assert pf.psi2 == -basis_form(sp, "z")


def test_W_annihilates_both_psi_forms_on_every_bundled_system(bundle):
    """The psi rows of ``verify`` are stated PASS (exact) without a zero
    test; the fact they state is that W ⌟ Psi_i vanishes identically."""
    checked = []
    for name, system in bundle.items():
        try:
            beta = build_extended(system.bound()).dtheta
        except PotentialError:
            # abc_paper_verbatim: not volume-preserving, so it has no gamma
            continue
        checked.append(name)
        dec = decompose_beta(beta)
        pf = psi_forms(dec)
        W = characteristic_field(dec)
        for psi in (pf.psi1, pf.psi2):
            assert interior_product(W, psi).is_zero_form, name
    assert len(checked) == len(bundle) - 1


def test_section_residuals_exact_solution(oscillator):
    ext = build_extended(oscillator)
    dec = decompose_beta(ext.dtheta)
    r1, r2 = section_residuals(ext.space.parse("sin(t)"), ext.space.parse("cos(t)"), dec)
    assert is_zero(r1).value and is_zero(r2).value


def test_section_residuals_non_solution(oscillator):
    ext = build_extended(oscillator)
    dec = decompose_beta(ext.dtheta)
    t = ext.space.parse("t")
    r1, r2 = section_residuals(t, 1, dec)
    assert render(r2) == "0"
    assert r1 == t


def test_section_residuals_trivial_constants():
    sp = Space("d", ("x", "z", "w"))
    dec = decompose_beta(basis_form(sp, "z", "w"))
    r1, r2 = section_residuals(Fraction(3, 2), Fraction(-7), dec)
    assert render(r1) == "0" and render(r2) == "0"


# --------------------------------------------------------------------------
# Hodge duality certificate


def test_hodge_oscillator_euclidean(oscillator):
    ext = build_extended(oscillator)
    annihilation, _ = verify_characteristic(ext)
    cert = hodge_check(ext, annihilation)
    assert cert.passed and cert.certainty == "exact"
    # independent expansion: d theta equals star(dt + p dq - q dp)
    z_flat = DiffForm(ext.space, 1, {(0,): 1, (1,): ext.space.parse("p"), (2,): ext.space.parse("-q")})
    assert ext.dtheta == hodge_star(z_flat)


def test_hodge_euler(euler_symbolic):
    ext = build_extended(euler_symbolic)
    annihilation, _ = verify_characteristic(ext)
    assert hodge_check(ext, annihilation).passed


def test_hodge_scaled_metric(euler_symbolic):
    scaled = system_from_dict({**system_to_dict(euler_symbolic), "metric": ["4", "4", "4"]})
    ext = build_extended(scaled)
    assert ext.space.metric == (1, 4, 4, 4)
    annihilation, _ = verify_characteristic(ext)
    cert = hodge_check(ext, annihilation)
    assert cert.passed and cert.certainty == "exact"


# --------------------------------------------------------------------------
# Global invariants over the bundled systems


def test_roundtrip_uniqueness_all(bundle):
    for name, sys in bundle.items():
        if name == "abc_paper_verbatim":
            continue
        b = sys.bound()
        ext = build_extended(b)
        Z = normalize_by_dt(annihilator_field(ext.dtheta))
        match = fields_equal(Z, ext.field)
        assert match.value and match.certainty == "exact", name


def test_characteristic_annihilates_everywhere(bundle):
    for name, sys in bundle.items():
        if name == "abc_paper_verbatim":
            continue
        ext = build_extended(sys.bound())
        dec = decompose_beta(ext.dtheta)
        W = characteristic_field(dec)
        from liouvar.exterior import reorder_form
        beta = reorder_form(ext.dtheta, dec.space)
        assert interior_product(W, beta).is_zero_form, name
        assert fields_equal(W, reorder_field(annihilator_field(ext.dtheta), dec.space)).value, name


def test_gauge_freedom(euler_symbolic):
    rng = random.Random(5)
    ext = build_extended(euler_symbolic)
    sp = euler_symbolic.space
    for _ in range(10):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        closed = basis_form(sp, *rng.sample(sp.coordinates, 1), coeff=coeff)
        seed0 = constant_form(sp, nf_mul(sp.parse(rng.choice(sp.coordinates)), normal_form(coeff)))
        closed = closed + exterior_derivative(seed0)
        import dataclasses
        shifted = dataclasses.replace(euler_symbolic, gamma=euler_symbolic.gamma + closed)
        ext2 = build_extended(shifted)
        assert ext2.dtheta == ext.dtheta


def test_validate_system_rejects_bad_gamma(euler_symbolic):
    import dataclasses
    bad = dataclasses.replace(
        euler_symbolic,
        gamma=euler_symbolic.gamma + basis_form(euler_symbolic.space, "x1", coeff=euler_symbolic.space.parse("x2")))
    with pytest.raises(SystemInvariantError):
        validate_system(bad)
