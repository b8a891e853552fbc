"""Unit tests for sparse forms, fields, and the flat exterior calculus."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouvar.expr import (
    ExprError,
    NormalForm,
    differentiate,
    nf_add,
    nf_mul,
    nf_neg,
    normal_form,
    substitute,
)
from liouvar.exterior import (
    CoordMap,
    DegreeError,
    DiffForm,
    GeometryError,
    MetricError,
    Space,
    SpaceMismatchError,
    VectorField,
    basis_form,
    constant_form,
    coordinate_vector,
    deserialize_field,
    deserialize_form,
    exterior_derivative,
    form_is_zero,
    hodge_star,
    interior_product,
    lie_derivative,
    pullback,
    reorder_field,
    reorder_form,
    reordered_space,
    serialize_field,
    serialize_form,
    volume_form,
    wedge,
)
from liouvar.flow import compile_scalar

R3 = Space("R3", ("x1", "x2", "x3"))
R4 = Space("R4", ("x1", "x2", "x3", "x4"))


def random_poly(rng, coords, max_terms=2, max_deg=2):
    space = Space("poly", tuple(coords))
    out = normal_form(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    for _ in range(rng.randint(0, max_deg)):
        out = nf_mul(out, space.parse(rng.choice(coords)))
    for _ in range(rng.randint(0, max_terms - 1)):
        term = normal_form(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            term = nf_mul(term, space.parse(rng.choice(coords)))
        out = nf_add(out, term)
    return out


def value(nf, point):
    """Float value of a coefficient at ``point``, a {coordinate: float} map."""
    return compile_scalar(nf, tuple(point), {})(list(point.values()))


def random_form(rng, space, degree, entries=2):
    idxs = list(itertools.combinations(range(space.dim), degree))
    chosen = rng.sample(idxs, k=min(len(idxs), entries))
    return DiffForm(space, degree, {i: random_poly(rng, space.coordinates) for i in chosen})


def random_field(rng, space):
    return VectorField(space, tuple(random_poly(rng, space.coordinates) for _ in space.coordinates))


# --------------------------------------------------------------------------
# Dense-tensor oracle: wedge as the alternation of the tensor product


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def dense_tensor(form, point):
    n = form.space.dim
    if form.degree == 0:
        return np.array(value(form.get_nf(()), point))
    T = np.zeros((n,) * form.degree)
    for idx, c in form.nfs.items():
        v = value(c, point)
        for perm in itertools.permutations(range(len(idx))):
            T[tuple(idx[p] for p in perm)] = _perm_sign(perm) * v
    return T


def dense_wedge(A, p, B, q, n):
    if p == 0:
        return float(A) * B
    if q == 0:
        return float(B) * A
    C = np.zeros((n,) * (p + q))
    for K in itertools.product(range(n), repeat=p + q):
        total = 0.0
        for perm in itertools.permutations(range(p + q)):
            KP = tuple(K[i] for i in perm)
            total += _perm_sign(perm) * A[KP[:p]] * B[KP[p:]]
        C[K] = total / (math.factorial(p) * math.factorial(q))
    return C


@pytest.mark.parametrize("seed", range(6))
def test_wedge_matches_dense_alternation_oracle(seed):
    rng = random.Random(seed)
    p_deg, q_deg = rng.choice([(1, 1), (1, 2), (2, 2), (2, 1)])
    a = random_form(rng, R4, p_deg)
    b = random_form(rng, R4, q_deg)
    point = {c: rng.uniform(-1, 1) for c in R4.coordinates}
    got = dense_tensor(wedge(a, b), point)
    want = dense_wedge(dense_tensor(a, point), p_deg, dense_tensor(b, point), q_deg, 4)
    assert np.allclose(got, want, atol=1e-12)


def test_wedge_square_of_two_form():
    # dx1∧dx3 + dx2∧dx4 squared gives -2 dx1∧dx2∧dx3∧dx4
    w1 = basis_form(R4, "x1", "x3") + basis_form(R4, "x2", "x4")
    sq = wedge(w1, w1)
    assert sq.nfs == {(0, 1, 2, 3): normal_form(-2)}
    point = {c: 0.0 for c in R4.coordinates}
    oracle = dense_wedge(dense_tensor(w1, point), 2, dense_tensor(w1, point), 2, 4)
    assert np.allclose(dense_tensor(sq, point), oracle)


def test_wedge_self_annihilates():
    dx1 = basis_form(R3, "x1")
    assert wedge(dx1, dx1).is_zero_form


def test_wedge_antisymmetry():
    dx1, dx2 = basis_form(R3, "x1"), basis_form(R3, "x2")
    assert wedge(dx1, dx2) == -wedge(dx2, dx1)


def test_wedge_bilinear_and_associative():
    rng = random.Random(3)
    for _ in range(10):
        a = random_form(rng, R3, 1)
        b = random_form(rng, R3, 1)
        c = random_form(rng, R3, 1)
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_degree_overflow():
    with pytest.raises(DegreeError):
        wedge(volume_form(R3), basis_form(R3, "x1"))


def test_wedge_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        wedge(basis_form(R3, "x1"), basis_form(R4, "x1"))


# --------------------------------------------------------------------------
# Exterior derivative


def test_d_of_standard_sigma():
    sigma = DiffForm(R3, 2, {(1, 2): R3.parse("x1")})
    assert exterior_derivative(sigma) == volume_form(R3)


@pytest.mark.parametrize("seed", range(8))
def test_dd_zero(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    space = Space("S", tuple(f"y{i}" for i in range(n)))
    k = rng.randint(0, n - 2)
    a = random_form(rng, space, k)
    assert exterior_derivative(exterior_derivative(a)).is_zero_form


def test_d_top_degree_rejected():
    with pytest.raises(DegreeError):
        exterior_derivative(volume_form(R3))


# --------------------------------------------------------------------------
# Interior product


def test_interior_flux_components():
    sp = Space("E", ("x1", "x2", "x3"), ("mu1", "mu2", "mu3"))
    f = [sp.parse("mu1*x2*x3"), sp.parse("mu2*x3*x1"), sp.parse("mu3*x1*x2")]
    X = VectorField(sp, tuple(f))
    flux = interior_product(X, volume_form(sp))
    assert flux.get_nf((1, 2)) == f[0]
    assert flux.get_nf((0, 2)) == nf_neg(f[1])
    assert flux.get_nf((0, 1)) == f[2]


@pytest.mark.parametrize("seed", range(6))
def test_interior_twice_vanishes(seed):
    rng = random.Random(seed)
    v = random_field(rng, R4)
    a = random_form(rng, R4, rng.randint(2, 4))
    assert interior_product(v, interior_product(v, a)).is_zero_form


def test_interior_with_time_like_form():
    M = Space("M", ("t", "q", "p"))
    Z = VectorField(M, (1, M.parse("p"), M.parse("-q")))
    dt = basis_form(M, "t")
    assert interior_product(Z, dt).get_nf(()) == normal_form(1)


def test_interior_degree_zero_rejected():
    with pytest.raises(DegreeError):
        interior_product(coordinate_vector(R3, "x1"), constant_form(R3))


@pytest.mark.parametrize("seed", range(6))
def test_interior_antiderivation(seed):
    rng = random.Random(100 + seed)
    v = random_field(rng, R4)
    p_deg = rng.randint(1, 2)
    q_deg = rng.randint(1, 2)
    a = random_form(rng, R4, p_deg)
    b = random_form(rng, R4, q_deg)
    lhs = interior_product(v, wedge(a, b))
    sign = (-1) ** p_deg
    rhs = wedge(interior_product(v, a), b) + wedge(a, interior_product(v, b)) * sign
    assert form_is_zero(lhs - rhs).value


_COEFF_TEXTS = ("1", "-1", "x1", "-2/3*x2*x4", "sin(x1)", "3/7*cos(x2 - x3)*x4",
                "x3^2 + 1/5", "x2*sin(x1 + cos(x4))")


@st.composite
def _trig_coefficients(draw):
    return R4.parse(" + ".join(draw(st.lists(st.sampled_from(_COEFF_TEXTS), min_size=1, max_size=3))))


@st.composite
def _trig_forms(draw, min_degree=2):
    degree = draw(st.integers(min_degree, R4.dim))
    indices = list(itertools.combinations(range(R4.dim), degree))
    chosen = draw(st.lists(st.sampled_from(indices), unique=True, min_size=1, max_size=4))
    return DiffForm(R4, degree, {idx: draw(_trig_coefficients()) for idx in chosen})


@settings(max_examples=80, deadline=None)
@given(st.lists(_trig_coefficients(), min_size=4, max_size=4), _trig_forms(),
       st.sampled_from(R4.coordinates))
def test_interior_products_anticommute(components, beta, z):
    """i_V i_dz beta = -i_dz i_V beta, exactly, with trig coefficients."""
    V = VectorField(R4, components)
    d_z = coordinate_vector(R4, z)
    assert interior_product(V, interior_product(d_z, beta)) == \
        -interior_product(d_z, interior_product(V, beta))


# --------------------------------------------------------------------------
# Lie derivative


def test_lie_divergence_free_field_preserves_volume():
    sp = Space("E", ("x1", "x2", "x3"), ("mu1", "mu2", "mu3"))
    X = VectorField(sp, (sp.parse("mu1*x2*x3"), sp.parse("mu2*x3*x1"), sp.parse("mu3*x1*x2")))
    assert lie_derivative(X, volume_form(sp)).is_zero_form


def test_lie_on_function_is_directional_derivative():
    X = VectorField(R3, (R3.parse("x2"), R3.parse("-x1"), 0))
    f = R3.parse("x1*x1 + x2")
    got = lie_derivative(X, constant_form(R3, f)).get_nf(())
    assert got == X.apply_to_nf(f) == R3.parse("2*x1*x2 - x1")


def test_lie_linear_growth_field():
    # div(x1 d_1) = 1, so the volume form is reproduced
    X = VectorField(R3, (R3.parse("x1"), 0, 0))
    assert lie_derivative(X, volume_form(R3)) == volume_form(R3)
    # oracle: L_X vol = div(X) vol for any field
    rng = random.Random(11)
    for _ in range(5):
        Y = random_field(rng, R3)
        div = nf_add(*(differentiate(comp, coord) for comp, coord in zip(Y.nfs, R3.coordinates)))
        assert lie_derivative(Y, volume_form(R3)) == volume_form(R3) * div


@pytest.mark.parametrize("seed", range(5))
def test_lie_naturality(seed):
    rng = random.Random(200 + seed)
    v = random_field(rng, R3)
    a = random_form(rng, R3, rng.randint(0, 1))
    lhs = lie_derivative(v, exterior_derivative(a))
    rhs = exterior_derivative(lie_derivative(v, a))
    assert form_is_zero(lhs - rhs).value


# --------------------------------------------------------------------------
# Pullback


def test_pullback_chain_rule():
    B = Space("B", ("t",))
    E = Space("E", ("q",))
    phi = CoordMap(B, E, {"q": B.parse("sin(t)")})
    got = pullback(phi, basis_form(E, "q"))
    assert got == DiffForm(B, 1, {(0,): B.parse("cos(t)")})


@pytest.mark.parametrize("seed", range(5))
def test_pullback_commutes_with_d(seed):
    rng = random.Random(300 + seed)
    B = Space("B", ("u", "v"))
    E = Space("E", ("a", "b"))
    phi = CoordMap(B, E, {
        "a": random_poly(rng, B.coordinates),
        "b": random_poly(rng, B.coordinates),
    })
    form = random_form(rng, E, 1, entries=1)
    lhs = pullback(phi, exterior_derivative(form))
    rhs = exterior_derivative(pullback(phi, form))
    assert form_is_zero(lhs - rhs).value


def test_pullback_section_residual_shape():
    # beta of the split shape pulled back along a graph section gives
    # [A du_w/dx - g] * base volume for the first vertical contraction
    E = Space("E", ("x", "z", "w"))
    A = E.parse("z")
    g = E.parse("x*w")
    beta = DiffForm(E, 2, {(1, 2): A, (0, 1): g})
    psi1 = interior_product(coordinate_vector(E, "z"), beta)
    B = Space("B", ("x",))
    u_z = B.parse("x*x")
    u_w = B.parse("x^3")
    phi = CoordMap(B, E, {"x": B.parse("x"), "z": u_z, "w": u_w})
    got = pullback(phi, psi1)
    section = {"z": u_z, "w": u_w}
    expected = nf_add(nf_mul(substitute(A, section), differentiate(u_w, "x")),
                      nf_neg(substitute(g, section)))
    assert got.get_nf((0,)) == expected == B.parse("2*x^4")


def test_pullback_missing_component():
    B = Space("B", ("t",))
    E = Space("E", ("q", "p"))
    with pytest.raises(GeometryError):
        CoordMap(B, E, {"q": B.parse("t")})


# --------------------------------------------------------------------------
# Hodge star


def test_hodge_basis_r3():
    assert hodge_star(basis_form(R3, "x1"), (1, 1, 1)) == basis_form(R3, "x2", "x3")
    assert hodge_star(constant_form(R3), (1, 1, 1)) == volume_form(R3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hodge_double_application_on_basis(n):
    space = Space("S", tuple(f"y{i}" for i in range(n)), metric=tuple(Fraction(1) for _ in range(n)))
    for r in range(n + 1):
        for idx in itertools.combinations(range(n), r):
            a = DiffForm(space, r, {idx: 1})
            twice = hodge_star(hodge_star(a))
            sign = (-1) ** (r * (n - r))
            assert twice == a * sign


@pytest.mark.parametrize("seed", range(4))
def test_hodge_double_application_random(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(2, 4)
    space = Space("S", tuple(f"y{i}" for i in range(n)))
    r = rng.randint(0, n)
    a = random_form(rng, space, r)
    twice = hodge_star(hodge_star(a, (1,) * n), (1,) * n)
    assert form_is_zero(twice - a * (-1) ** (r * (n - r))).value


def test_hodge_scaled_metric():
    # *(dx1) with metric diag(4,4,4): sqrt|g| = 8, index raised by 1/4
    got = hodge_star(basis_form(R3, "x1"), (4, 4, 4))
    assert got == basis_form(R3, "x2", "x3") * Fraction(2)


def test_hodge_missing_metric():
    with pytest.raises(MetricError):
        hodge_star(basis_form(R3, "x1"))


def test_hodge_non_square_determinant():
    with pytest.raises(MetricError):
        hodge_star(basis_form(R3, "x1"), (2, 1, 1))


# --------------------------------------------------------------------------
# Storage invariants, reordering, serialization


def test_no_zero_coefficients_stored():
    rng = random.Random(17)
    for _ in range(10):
        a = random_form(rng, R3, 1)
        b = random_form(rng, R3, 1)
        for result in (a + b, a - a, wedge(a, b), exterior_derivative(a)):
            for _idx, c in result.nfs.items():
                assert not c.is_zero()


def test_reorder_round_trip_and_sign():
    new_space = reordered_space(R3, ("x2", "x1", "x3"))
    a = basis_form(R3, "x1", "x2")
    moved = reorder_form(a, new_space)
    assert moved == basis_form(new_space, "x1", "x2")
    assert moved.nfs == {(0, 1): normal_form(-1)}
    back = reorder_form(moved, R3)
    assert back == a


def test_reorder_commutes_with_wedge():
    rng = random.Random(23)
    new_space = reordered_space(R4, ("x3", "x1", "x4", "x2"))
    a = random_form(rng, R4, 1)
    b = random_form(rng, R4, 2)
    lhs = reorder_form(wedge(a, b), new_space)
    rhs = wedge(reorder_form(a, new_space), reorder_form(b, new_space))
    assert lhs == rhs


def test_reorder_field_components():
    X = VectorField(R3, tuple(map(R3.parse, ("x1", "x2", "x3"))))
    new_space = reordered_space(R3, ("x3", "x1", "x2"))
    Y = reorder_field(X, new_space)
    assert serialize_field(Y) == ["x3", "x1", "x2"]


def test_serialize_round_trip():
    rng = random.Random(29)
    a = random_form(rng, R4, 2)
    data = serialize_form(a)
    assert deserialize_form(R4, 2, data) == a
    X = random_field(rng, R4)
    assert deserialize_field(R4, serialize_field(X)) == X


def test_multi_index_validation():
    with pytest.raises(GeometryError):
        DiffForm(R3, 2, {(1, 1): 1})
    with pytest.raises(GeometryError):
        DiffForm(R3, 2, {(2, 1): 1})
    with pytest.raises(DegreeError):
        DiffForm(R3, 4, {})


@pytest.mark.parametrize("idx, message", [
    ((0,), "multi-index (0,) does not match degree 2"),
    ((0, 1, 2), "multi-index (0, 1, 2) does not match degree 2"),
    ((-1, 2), "multi-index (-1, 2) out of range"),
    ((0, 3), "multi-index (0, 3) out of range"),
    ((1, 1), "multi-index (1, 1) must be strictly increasing"),
    ((2, 1), "multi-index (2, 1) must be strictly increasing"),
    ((3, 1), "multi-index (3, 1) out of range"),
])
def test_multi_index_errors_name_the_first_failed_check(idx, message):
    with pytest.raises(GeometryError) as info:
        DiffForm(R3, 2, {idx: 1})
    assert str(info.value) == message


def test_undeclared_coefficient_symbols_rejected():
    nope = Space("other", ("x1", "nope")).parse("x1*nope + nope")
    with pytest.raises(GeometryError) as info:
        DiffForm(R3, 1, {(0,): nope})
    assert str(info.value) == "coefficient uses symbols ['nope'] not declared in space 'R3'"
    with pytest.raises(GeometryError) as info:
        VectorField(R3, (1, nope, 0))
    assert str(info.value) == "component uses symbols ['nope'] not declared in space 'R3'"
    with pytest.raises(GeometryError) as info:
        basis_form(R3, "x1") * nope
    assert str(info.value) == "coefficient uses symbols ['nope'] not declared in space 'R3'"


_SCALARS = [(R3.parse("2/3*x1"), "2/3*x1"), (-3, "-3"), (Fraction(5, 2), "5/2")]


@pytest.mark.parametrize("scalar, text", _SCALARS)
def test_constructors_and_scaling_take_normal_forms_and_rationals(scalar, text):
    nf = R3.parse(text)
    assert normal_form(scalar) == nf
    assert DiffForm(R3, 1, {(0,): scalar}).get_nf((0,)) == nf
    assert VectorField(R3, (scalar, 0, 1)).nfs == (nf, normal_form(0), normal_form(1))
    assert (basis_form(R3, "x2") * scalar).get_nf((1,)) == nf
    assert (scalar * basis_form(R3, "x2")).get_nf((1,)) == nf


@pytest.mark.parametrize("bad", [1.5, "x1", None])
def test_constructors_and_scaling_refuse_other_scalars(bad):
    message = f"cannot interpret {bad!r} as a scalar expression"
    for attempt in (lambda: normal_form(bad),
                    lambda: DiffForm(R3, 1, {(0,): bad}),
                    lambda: VectorField(R3, (bad, 0, 0)),
                    lambda: basis_form(R3, "x1") * bad):
        with pytest.raises(ExprError) as info:
            attempt()
        assert str(info.value) == message


def test_normal_form_returns_a_normal_form_itself():
    nf = R3.parse("x1 - sin(x2)")
    assert normal_form(nf) is nf
    assert isinstance(normal_form(7), NormalForm) and normal_form(0).is_zero()
