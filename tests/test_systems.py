"""Tests for the system builders and the JSON file format."""

import inspect
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import liouvar.systems as systems_module
from liouvar.expr import (
    differentiate, is_zero, nf_add, nf_neg, normal_form, parse_expr, render, substitute,
)
from liouvar.exterior import (
    DiffForm,
    Space,
    VectorField,
    basis_form,
    constant_form,
    exterior_derivative,
    fields_equal,
    interior_product,
    wedge,
    wedge_power,
)
from liouvar.liouville import (
    LiouvilleError,
    LiouvilleSystem,
    SystemInvariantError,
    build_extended,
    is_liouville,
    promote_form,
    verify_characteristic,
)
from liouvar.systems import (
    HyperkahlerData,
    SystemFileError,
    build_abc_flow,
    build_abc_flow_variant,
    build_charged_particle,
    build_euler_top,
    build_hamiltonian,
    build_hyperham_generic,
    build_hyperhamiltonian,
    build_nambu,
    build_pauli_spin,
    bundled_systems,
    load_system,
    save_system,
    symplectic_field,
    system_to_dict,
)
from oracles import curl3


@pytest.fixture(scope="module")
def bundle():
    return bundled_systems()


# --------------------------------------------------------------------------
# Hamiltonian builder


def test_hamiltonian_m1_field():
    sys = build_hamiltonian("1/2*q^2 + 1/2*p^2", 1)
    assert [render(c) for c in sys.field.nfs] == ["p", "-1*q"]
    assert sys.gamma.degree == 0
    assert sys.gamma.get_nf(()) == parse_expr("1/2*p^2 + 1/2*q^2", ("q", "p"))


def test_hamiltonian_m2_flux_factorization():
    sys = build_hamiltonian("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", 2)
    space = sys.space
    omega = basis_form(space, "q1", "p1") + basis_form(space, "q2", "p2")
    H = parse_expr("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", space.symbols)
    dH = DiffForm(space, 1, {(i,): c for i, c in enumerate(
        map(space.parse, ("q1", "p1", "q2", "p2")))})
    zeta = omega  # omega^(m-1)/(m-1)! with m = 2
    assert interior_product(sys.field, sys.omega) == wedge(dH, zeta)


def test_hamiltonian_theta_product_form():
    # theta equals (rho + H dt) ∧ zeta
    sys = build_hamiltonian("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", 2)
    ext = build_extended(sys)
    sp = ext.space
    from liouvar.systems import canonical_potential, canonical_symplectic
    rho = promote_form(canonical_potential(sys.space, 2), sp)
    zeta = promote_form(canonical_symplectic(sys.space, 2), sp)
    H = promote_form(constant_form(sys.space, sys.invariants[0]), sp)
    dt = basis_form(sp, "t")
    product = wedge(rho + wedge(H, dt), zeta)
    assert ext.theta == product


def test_hamiltonian_rejects_degenerate():
    sp = Space("bad", ("q", "p"))
    degenerate = DiffForm(sp, 2, {})
    with pytest.raises(LiouvilleError):
        symplectic_field(degenerate, sp.parse("q"))


def _random_symplectic(rng, space):
    """A constant 2-form with rational entries on every pair dx_i ∧ dx_j,
    redrawn until its top power is nonzero."""
    n = space.dim
    while True:
        omega = DiffForm(space, 2, {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                    for i in range(n) for j in range(i + 1, n)})
        if not wedge_power(omega, n // 2).is_zero_form:
            return omega


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_symplectic_field_solves_the_interior_equation(m, seed):
    rng = random.Random(100 * m + seed)
    space = Space("sym", tuple(f"x{i}" for i in range(1, 2 * m + 1)))
    omega = _random_symplectic(rng, space)
    H = space.parse(" + ".join(
        f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}*{a}*{b}^{rng.randint(1, 3)}"
        for a, b in zip(space.coordinates, space.coordinates[1:] + space.coordinates[:1])))
    dH = DiffForm(space, 1, {(i,): differentiate(H, x) for i, x in enumerate(space.coordinates)})
    X = symplectic_field(omega, H)
    assert interior_product(X, omega) == dH


def test_symplectic_field_rejects_a_form_with_vanishing_top_power():
    sp = Space("bad4", ("q1", "q2", "p1", "p2"))
    with pytest.raises(LiouvilleError, match="top power vanishes"):
        symplectic_field(basis_form(sp, "q1", "q2"), sp.parse("q1*p1"))


@pytest.mark.parametrize("build, calls", [
    (build_hyperham_generic, 3),
    (lambda: build_hamiltonian("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", 2), 1),
])
def test_builders_take_each_symplectic_forms_powers_once(monkeypatch, build, calls):
    powers = []
    take = systems_module.wedge_power

    def recording(omega, k):
        powers.append(k)
        return take(omega, k)

    monkeypatch.setattr(systems_module, "wedge_power", recording)
    build()
    assert len(powers) == calls, powers


# --------------------------------------------------------------------------
# Nambu builder


def test_nambu_rotor_field(bundle):
    sys = bundle["nambu_rotor"]
    assert [render(c) for c in sys.field.nfs] == ["x2", "-1*x1", "0"]


def test_nambu_degenerate_pair():
    sys = build_nambu(["x1*x2", "x1*x2"], name="degenerate")
    assert sys.field.is_zero


def test_nambu_reproduces_rigid_body():
    # Quadratic invariants generate the rigid-body field up to -I1*I2*I3
    E = "1/2*x1^2 + x2^2 + 3/2*x3^2"
    M2 = "1/2*x1^2 + 2*x2^2 + 9/2*x3^2"
    nam = build_nambu([E, M2], name="rigid")
    top = build_euler_top((1, 2, 3)).bound()
    expected = top.field * Fraction(-6)
    assert nam.field.nfs == expected.nfs
    assert is_liouville(nam).passed


# --------------------------------------------------------------------------
# Hyperhamiltonian builder


def _pauli_triple(space):
    x = [space.parse(c) for c in space.coordinates]
    omegas = (
        basis_form(space, "x1", "x3") + basis_form(space, "x2", "x4"),
        basis_form(space, "x4", "x1") + basis_form(space, "x2", "x3"),
        basis_form(space, "x2", "x1") + basis_form(space, "x3", "x4"),
    )
    potentials = (
        DiffForm(space, 1, {(2,): x[0], (3,): x[1]}),
        DiffForm(space, 1, {(0,): x[3], (2,): x[1]}),
        DiffForm(space, 1, {(0,): x[1], (3,): x[2]}),
    )
    return omegas, potentials


def test_hyperhamiltonian_zero_hamiltonians():
    space = Space("h0", ("x1", "x2", "x3", "x4"))
    omegas, potentials = _pauli_triple(space)
    zero = normal_form(0)
    data = HyperkahlerData(space, omegas, (zero, zero, zero), potentials)
    ext = build_hyperhamiltonian(data)
    assert ext.base.field.is_zero
    assert [render(c) for c in ext.field.nfs] == ["1", "0", "0", "0", "0"]


def test_hyperhamiltonian_single_matches_canonical():
    space = Space("h1", ("x1", "x2", "x3", "x4"))
    omegas, potentials = _pauli_triple(space)
    H = parse_expr("1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2 + 1/2*x4^2", space.symbols)
    zero = normal_form(0)
    data = HyperkahlerData(space, omegas, (H, zero, zero), potentials)
    ext = build_hyperhamiltonian(data)
    # omega_1 is canonical under (q1,p1,q2,p2) = (x1,x3,x2,x4)
    ham = build_hamiltonian("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", 2)
    relabel = {"q1": "x1", "p1": "x3", "q2": "x2", "p2": "x4"}
    mapped = [render(c) for c in ham.field.nfs]
    for target, comp in zip(("x1", "x3", "x2", "x4"), mapped):
        got = ext.base.field.nfs[space.position(target)]
        want = parse_expr(comp, ham.space.symbols)
        want = substitute(want, {k: space.parse(v) for k, v in relabel.items()})
        assert got == want


def test_hyperham_generic_passes():
    ext = build_hyperham_generic()
    assert all(c.passed for c in verify_characteristic(ext))


# --------------------------------------------------------------------------
# Rigid body builder


def test_euler_symbolic_potential():
    sys = build_euler_top()
    residual = exterior_derivative(sys.gamma) - interior_product(sys.field, sys.omega)
    assert residual.is_zero_form


def test_euler_numeric_mu_values():
    sys = build_euler_top((1, 2, 3))
    assert sys.params["mu1"] == Fraction(-1)
    assert sys.params["mu2"] == Fraction(1)
    assert sys.params["mu3"] == Fraction(-1, 3)


def test_euler_spherical_top_is_static():
    sys = build_euler_top((2, 2, 2))
    assert sys.bound().field.is_zero


def test_euler_zero_inertia_rejected():
    with pytest.raises(LiouvilleError):
        build_euler_top((0, 1, 2))


def test_euler_curl_certificate():
    sys = build_euler_top()
    A = [sys.gamma.get_nf((i,)) for i in range(3)]
    assert curl3(sys.space, A) == sys.field.nfs


def test_euler_invariants_conserved():
    sys = build_euler_top((1, 2, 3)).bound()
    for inv in sys.invariants:
        assert is_zero(sys.field.apply_to_nf(inv)).value


# --------------------------------------------------------------------------
# Beltrami flow builder


def test_abc_flux_matches_expected_expansion():
    sys = build_abc_flow()
    flux = interior_product(sys.field, sys.omega)
    sp = sys.space
    expected = DiffForm(sp, 2, {
        (0, 1): parse_expr("C*sin(x2) + B*cos(x1)", sp.symbols),
        (0, 2): parse_expr("-1*B*sin(x1) - A*cos(x3)", sp.symbols),
        (1, 2): parse_expr("A*sin(x3) + C*cos(x2)", sp.symbols),
    })
    assert flux == expected
    assert exterior_derivative(sys.gamma) == flux


def test_builders_take_no_parameter_values():
    # parameter values enter a system through its params, and nowhere else
    def names(builder):
        return list(inspect.signature(builder).parameters)

    assert names(build_abc_flow) == names(build_abc_flow_variant) == names(build_pauli_spin) == []
    assert names(build_charged_particle) == ["B", "parameters", "name"]
    assert names(build_hamiltonian) == ["hamiltonian", "m", "name"]
    assert names(build_nambu) == ["hamiltonians", "name"]
    assert not hasattr(systems_module, "_bind")


def test_abc_zero_parameters_zero_field():
    sys = replace(build_abc_flow(), params=dict.fromkeys("ABC", Fraction(0))).bound()
    assert sys.field.is_zero


def test_abc_beltrami_property():
    sys = build_abc_flow()
    rot = curl3(sys.space, sys.field.nfs)
    for got, want in zip(rot, sys.field.nfs):
        assert is_zero(nf_add(got, nf_neg(want))).value


def test_abc_variant_not_liouville():
    sys = build_abc_flow_variant()
    cert = is_liouville(sys)
    assert not cert.passed
    assert sys.gamma is None


# --------------------------------------------------------------------------
# Charged particle builder


def test_charged_particle_constant_field_antiderivatives():
    sys = build_charged_particle(("0", "0", "b"), parameters=("b",))
    sp = sys.space
    # expected gamma: gamma_1 - [F_a v2] w2^w3 - [G_a v1] w3^w1 with
    # F_a = k b x1 and G_a = -k b x2
    omega_i = [basis_form(sp, f"x{i}", f"v{i}") for i in (1, 2, 3)]
    pair = [wedge(omega_i[1], omega_i[2]), wedge(omega_i[2], omega_i[0]), wedge(omega_i[0], omega_i[1])]
    gamma1 = (pair[0] * sp.parse("1/2*v1^2") + pair[1] * sp.parse("1/2*v2^2")
              + pair[2] * sp.parse("1/2*v3^2"))
    gamma2 = pair[0] * sp.parse("k*b*x1*v2") + pair[1] * sp.parse("-1*k*b*x2*v1")
    assert sys.gamma == gamma1 - gamma2
    assert exterior_derivative(sys.gamma) == interior_product(sys.field, sys.omega)


def test_charged_particle_free_motion():
    sys = build_charged_particle(("0", "0", "0"), name="free")
    sp = sys.space
    # gamma reduces to gamma_1 and its derivative is v^i (d_i . Omega)
    dg = exterior_derivative(sys.gamma)
    flux = DiffForm(sp, 5, {})
    for i in range(3):
        e_i = VectorField(sp, tuple(1 if j == i else 0 for j in range(6)))
        flux = flux + interior_product(e_i, sys.omega) * sp.parse(f"v{i + 1}")
    assert dg == flux


def test_charged_particle_divergence_warning():
    sys = build_charged_particle(("0", "0", "c*x3"), parameters=("c",), name="divfield")
    assert sys.warnings and "divergence" in sys.warnings[0]
    # still a valid build: the potential matches the flux
    assert exterior_derivative(sys.gamma) == interior_product(sys.field, sys.omega)
    clean = build_charged_particle(("c*x2", "0", "0"), parameters=("c",), name="clean")
    assert not clean.warnings


def test_charged_particle_velocity_dependence_rejected():
    with pytest.raises(LiouvilleError):
        build_charged_particle(("v1", "0", "0"))


def test_charged_particle_trig_rejected():
    with pytest.raises(LiouvilleError):
        build_charged_particle(("sin(x1)", "0", "0"))


def test_charged_particle_volume_is_product_form():
    sys = build_charged_particle(("0", "0", "0"), name="vol")
    assert sys.omega.get_nf(tuple(range(6))) == normal_form(-1)


# --------------------------------------------------------------------------
# Pauli builder


def test_pauli_axis_field_pattern():
    ext = build_pauli_spin()
    values = {"Bx": 0, "By": 0, "Bz": 1, "kappa": 1}
    b = replace(ext.base, params={p: Fraction(v) for p, v in values.items()}).bound()
    assert [render(c) for c in b.field.nfs] == ["-1*x2", "x1", "x4", "-1*x3"]


def test_pauli_zero_field():
    ext = build_pauli_spin()
    values = {"Bx": 0, "By": 0, "Bz": 0, "kappa": 1}
    assert replace(ext.base, params={p: Fraction(v) for p, v in values.items()}).bound().field.is_zero


def test_pauli_symbolic_matches_linear_system(bundle):
    sys = bundle["pauli_spin"]
    sp = sys.space
    expected = VectorField(sp, tuple(map(sp.parse, (
        "kappa*(-1*Bz*x2 + By*x3 - Bx*x4)",
        "kappa*(Bz*x1 + Bx*x3 + By*x4)",
        "kappa*(-1*By*x1 - Bx*x2 + Bz*x4)",
        "kappa*(Bx*x1 - By*x2 - Bz*x3)",
    ))))
    match = fields_equal(sys.field, expected)
    assert match.value and match.certainty == "exact"


def test_pauli_norm_invariant(bundle):
    sys = bundle["pauli_spin"]
    assert len(sys.invariants) == 1
    assert is_zero(sys.field.apply_to_nf(sys.invariants[0])).value


# --------------------------------------------------------------------------
# Declared invariants across all builders


def test_all_bundled_invariants_conserved(bundle):
    for name, sys in bundle.items():
        b = sys.bound()
        for inv in b.invariants:
            assert is_zero(b.field.apply_to_nf(inv)).value, (name, render(inv))


def test_all_bundled_liouville(bundle):
    for name, sys in bundle.items():
        cert = is_liouville(sys.bound())
        if name == "abc_paper_verbatim":
            assert not cert.passed
        else:
            assert cert.passed and cert.certainty == "exact", name


# --------------------------------------------------------------------------
# File format


def test_save_load_round_trip(bundle, tmp_path):
    for name, sys in bundle.items():
        path = tmp_path / f"{name}.json"
        save_system(sys, path)
        first = path.read_text(encoding="utf-8")
        loaded = load_system(path)
        save_system(loaded, path)
        assert path.read_text(encoding="utf-8") == first, name


def test_system_files_write_rationals_as_the_renderer_does(tmp_path):
    # ints, negatives, p/q and 0, in the parameters and in the metric
    sys = build_euler_top((2, 2, -3))
    space = Space("m", sys.space.coordinates, sys.space.parameters, (1, Fraction(-1, 4), 9))
    sys = LiouvilleSystem(sys.name, space, VectorField(space, sys.field.nfs), params=sys.params)
    data = system_to_dict(sys)
    assert data["parameters"] == {"I1": "2", "I2": "2", "I3": "-3",
                                  "mu1": "5/2", "mu2": "-5/2", "mu3": "0"}
    assert data["metric"] == ["1", "-1/4", "9"]
    path = tmp_path / "rationals.json"
    save_system(sys, path)
    loaded = load_system(path)
    assert loaded.params == sys.params and loaded.space.metric == space.metric


def test_load_rejects_bad_gamma(bundle, tmp_path):
    data = system_to_dict(bundle["euler_top"])
    data["gamma"][0]["coeff"] = "x1"
    path = tmp_path / "bad_gamma.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemInvariantError) as err:
        load_system(path)
    assert "residual" in str(err.value)


def test_load_rejects_undeclared_symbol(tmp_path):
    data = {
        "name": "bad",
        "coordinates": ["x1", "x2"],
        "parameters": {},
        "vector_field": ["x1", "zz"],
        "invariants": [],
    }
    path = tmp_path / "bad_sym.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemFileError):
        load_system(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"name": "x"}), encoding="utf-8")
    with pytest.raises(SystemFileError):
        load_system(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(SystemFileError):
        load_system(path)


def test_load_rejects_bad_parameter_value(bundle, tmp_path):
    data = system_to_dict(bundle["euler_top"])
    data["parameters"]["I1"] = "1/0"
    path = tmp_path / "bad_param.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemFileError):
        load_system(path)


def test_load_parses_each_distinct_text_once(bundle, tmp_path):
    path = tmp_path / "oscillator.json"
    save_system(bundle["harmonic_oscillator_m1"], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    # the potential and the invariant are the same text, H
    assert data["gamma"][0]["coeff"] == data["invariants"][0]
    loaded = load_system(path)
    assert loaded.gamma.get_nf(()) is loaded.invariants[0]
    assert loaded.invariants[0] == bundle["harmonic_oscillator_m1"].invariants[0]


def test_load_keeps_texts_over_the_extended_space_apart(bundle, tmp_path):
    data = system_to_dict(bundle["pauli_spin"])
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_system(path).theta == bundle["pauli_spin"].theta
    # "t" parses in theta, which is read first, but not in a later invariant
    # or in the field
    data["theta"].append({"index": [1, 2, 3], "coeff": "t"})
    for key, edit in (("invariants", ["t"]), ("vector_field", ["t"] + data["vector_field"][1:])):
        path.write_text(json.dumps({**data, key: edit}), encoding="utf-8")
        with pytest.raises(SystemFileError, match="undeclared identifier 't'"):
            load_system(path)


def test_theta_round_trip(bundle, tmp_path):
    path = tmp_path / "pauli.json"
    save_system(bundle["pauli_spin"], path)
    loaded = load_system(path)
    assert loaded.theta == bundle["pauli_spin"].theta
    ext = build_extended(loaded.bound())
    assert all(c.passed for c in verify_characteristic(ext))
