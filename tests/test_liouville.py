"""Tests for the certificate pipeline: potentials, extension, characteristics."""

import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import liouvar.liouville as liouville_module
from liouvar.expr import (
    ZeroResult,
    ZeroTestConfig,
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
    Certificate,
    ImproperPrincipleError,
    LiouvilleSystem,
    NormalizationError,
    PotentialError,
    SystemInvariantError,
    annihilator_field,
    build_extended,
    characteristic_field,
    decompose_beta,
    default_sigma,
    hodge_check,
    is_liouville,
    is_proper,
    normalize_by_dt,
    promote_field,
    psi_forms,
    roundtrip_characteristic,
    section_residuals,
    solve_gamma,
    split_chart,
    validate_system,
    verify_characteristic,
    vertical_pair,
)
from liouvar.systems import bundled_systems, build_euler_top, build_hamiltonian


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
    expected = DiffForm(sp, 1, {
        (0,): sp.parse("-1/2*x2"),
        (1,): sp.parse("1/2*x1"),
    })
    assert gamma == expected
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
    configs = []

    def recording(form, config):
        configs.append(config)
        return form_is_zero(form, config)

    monkeypatch.setattr(liouville_module, "form_is_zero", recording)
    config = ZeroTestConfig(seed=7)
    with pytest.raises(PotentialError, match="not closed"):
        build_extended(bundle["abc_paper_verbatim"].bound(), config)
    assert configs == [config]


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
# Default sigma


def test_default_sigma_r3():
    sp = Space("s", ("x1", "x2", "x3"))
    sigma = default_sigma(sp)
    assert sigma == DiffForm(sp, 2, {(1, 2): sp.parse("x1")})
    assert exterior_derivative(sigma) == volume_form(sp)


def test_default_sigma_r2():
    sp = Space("s", ("q", "p"))
    assert default_sigma(sp) == DiffForm(sp, 1, {(1,): sp.parse("q")})


def test_default_sigma_nonstandard_volume():
    sp = Space("s", ("x1", "x2"))
    with pytest.raises(PotentialError):
        default_sigma(sp, volume_form(sp) * 2)


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
    sigma_m = promote_form(default_sigma(sys.space), sp)
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
    Z = promote_field(euler_symbolic.field, ext.space, time_component=1)
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
    assert all(c.passed and c.certainty == "exact" for c in pf.certificates)


def test_psi_euler(euler_symbolic):
    ext = build_extended(euler_symbolic)
    pf = psi_forms(decompose_beta(ext.dtheta))
    assert all(c.passed and c.certainty == "exact" for c in pf.certificates)


def test_psi_vertical_area():
    sp = Space("d", ("x", "z", "w"))
    beta = basis_form(sp, "z", "w")
    pf = psi_forms(decompose_beta(beta))
    assert pf.psi1 == basis_form(sp, "w")
    assert pf.psi2 == -basis_form(sp, "z")
    assert all(c.passed for c in pf.certificates)


def test_psi_certificates_equal_the_direct_contraction_on_every_bundled_system(bundle):
    """psi_forms contracts W with beta once; its certificates must be those
    of contracting W with each Psi_i directly."""
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
        direct = [Certificate(f"psi{i}_annihilated_by_W", *_verdict(interior_product(W, psi)))
                  for i, psi in ((1, pf.psi1), (2, pf.psi2))]
        assert pf.certificates == direct, name
    assert len(checked) == len(bundle) - 1


def _verdict(residual):
    res = form_is_zero(residual)
    return res.value, res.certainty, None if res.value else residual


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
    cert = hodge_check(ext)
    assert cert.passed and cert.certainty == "exact"
    # independent expansion: d theta equals star(dt + p dq - q dp)
    z_flat = DiffForm(ext.space, 1, {(0,): 1, (1,): ext.space.parse("p"), (2,): ext.space.parse("-q")})
    assert ext.dtheta == hodge_star(z_flat, (1, 1, 1))


def test_hodge_euler(euler_symbolic):
    ext = build_extended(euler_symbolic)
    assert hodge_check(ext).passed


def test_hodge_scaled_metric(euler_symbolic):
    ext = build_extended(euler_symbolic)
    cert = hodge_check(ext, metric=(1, 4, 4, 4))
    assert cert.passed and cert.certainty == "exact"


def test_hodge_bad_time_entry(euler_symbolic):
    ext = build_extended(euler_symbolic)
    from liouvar.exterior import GeometryError
    with pytest.raises(GeometryError):
        hodge_check(ext, metric=(2, 1, 1, 1))


# --------------------------------------------------------------------------
# Global invariants over the bundled systems


def test_roundtrip_uniqueness_all(bundle):
    for name, sys in bundle.items():
        if name == "abc_paper_verbatim":
            continue
        b = sys.bound()
        ext = build_extended(b)
        Z = roundtrip_characteristic(ext)
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
