"""Unit tests for sparse forms, fields, and the flat exterior calculus."""

import itertools
import math
import random
import re
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liouvar.expr as expr_module
from liouvar.expr import (
    ExprError,
    NormalForm,
    ZeroResult,
    differentiate,
    is_zero,
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
    fields_equal,
    flux_field,
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


def dense_from(n, degree, component):
    """Antisymmetric array with T[I] = component(I) on each increasing I."""
    T = np.zeros((n,) * degree)
    for idx in itertools.combinations(range(n), degree):
        v = component(idx)
        for perm in itertools.permutations(range(degree)):
            T[tuple(idx[p] for p in perm)] = _perm_sign(perm) * v
    return T


def dense_tensor(form, point):
    """Components of ``form`` at ``point``, read only through ``get_nf``."""
    return dense_from(form.space.dim, form.degree, lambda idx: value(form.get_nf(idx), point))


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


def dense_interior(v, A):
    """(v ⌟ A)_J = sum_i v^i A_{iJ}."""
    return np.tensordot(v, A, axes=(0, 0))


def dense_derivative(form, point):
    """(dA)_{i0..ik} = sum_j (-1)^j d_{i_j} A_{i0..(no i_j)..ik}, built from
    the partial derivatives of each coefficient."""
    n, k = form.space.dim, form.degree
    partials = [dense_from(n, k, lambda idx, x=x: value(differentiate(form.get_nf(idx), x), point))
                for x in form.space.coordinates]
    C = np.zeros((n,) * (k + 1))
    for K in itertools.product(range(n), repeat=k + 1):
        C[K] = sum((-1) ** j * partials[K[j]][K[:j] + K[j + 1:]] for j in range(k + 1))
    return C


def dense_hodge(A, k, metric):
    """(⋆A)_J = sqrt|det g| / k! * sum_I A^I eps_{IJ}, with the indices of A
    raised by the diagonal metric g."""
    n = len(metric)
    inverse = np.array([1 / float(x) for x in metric])
    for axis in range(k):
        A = A * inverse.reshape([n if i == axis else 1 for i in range(k)])
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = _perm_sign(perm)
    scale = math.sqrt(abs(math.prod(float(x) for x in metric))) / math.factorial(k)
    return scale * np.tensordot(A, eps, axes=(list(range(k)), list(range(k))))


def dense_reorder(A, k, old, new):
    """The same tensor with its axes indexed in the ``new`` coordinate order."""
    perm = [old.index(c) for c in new]
    return A[np.ix_(*[perm] * k)] if k else A


def _oracle_point(rng, space):
    return {c: rng.uniform(-1, 1) for c in space.coordinates}


@pytest.mark.parametrize("space", [R3, R4], ids=["R3", "R4"])
@pytest.mark.parametrize("seed", range(4))
def test_wedge_matches_dense_alternation_oracle_in_every_degree(space, seed):
    rng = random.Random(500 + seed)
    point = _oracle_point(rng, space)
    for p_deg in range(space.dim + 1):
        for q_deg in range(space.dim + 1 - p_deg):
            a = random_form(rng, space, p_deg, entries=3)
            b = random_form(rng, space, q_deg, entries=3)
            got = dense_tensor(wedge(a, b), point)
            want = dense_wedge(dense_tensor(a, point), p_deg, dense_tensor(b, point), q_deg, space.dim)
            assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("space", [R3, R4], ids=["R3", "R4"])
@pytest.mark.parametrize("seed", range(4))
def test_interior_product_matches_dense_contraction_oracle(space, seed):
    rng = random.Random(600 + seed)
    point = _oracle_point(rng, space)
    for k in range(1, space.dim + 1):
        v = random_field(rng, space)
        a = random_form(rng, space, k, entries=3)
        got = dense_tensor(interior_product(v, a), point)
        want = dense_interior(np.array([value(c, point) for c in v.nfs]), dense_tensor(a, point))
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("space", [R3, R4], ids=["R3", "R4"])
@pytest.mark.parametrize("seed", range(4))
def test_exterior_derivative_matches_dense_antisymmetrised_gradient(space, seed):
    rng = random.Random(700 + seed)
    point = _oracle_point(rng, space)
    for k in range(space.dim):
        a = random_form(rng, space, k, entries=3)
        got = dense_tensor(exterior_derivative(a), point)
        assert np.allclose(got, dense_derivative(a, point), atol=1e-12)


@pytest.mark.parametrize("space", [R3, R4], ids=["R3", "R4"])
@pytest.mark.parametrize("seed", range(4))
def test_hodge_star_matches_dense_levi_civita_contraction(space, seed):
    rng = random.Random(800 + seed)
    point = _oracle_point(rng, space)
    # square entries, so |det g| is a rational square
    metric = tuple(rng.choice([1, -1, 4, -4, Fraction(1, 9), Fraction(9, 4)]) for _ in space.coordinates)
    for k in range(space.dim + 1):
        a = random_form(rng, space, k, entries=3)
        got = dense_tensor(hodge_star(a, metric), point)
        assert np.allclose(got, dense_hodge(dense_tensor(a, point), k, metric), atol=1e-12)


@pytest.mark.parametrize("space", [R3, R4], ids=["R3", "R4"])
@pytest.mark.parametrize("seed", range(4))
def test_reorder_form_matches_dense_axis_permutation(space, seed):
    rng = random.Random(900 + seed)
    point = _oracle_point(rng, space)
    order = list(space.coordinates)
    rng.shuffle(order)
    new_space = reordered_space(space, order)
    for k in range(space.dim + 1):
        a = random_form(rng, space, k, entries=3)
        got = dense_tensor(reorder_form(a, new_space), {c: point[c] for c in new_space.coordinates})
        want = dense_reorder(dense_tensor(a, point), k, space.coordinates, new_space.coordinates)
        assert np.allclose(got, want, atol=1e-12)


def test_wedge_square_of_two_form():
    # dx1∧dx3 + dx2∧dx4 squared gives -2 dx1∧dx2∧dx3∧dx4
    w1 = basis_form(R4, "x1", "x3") + basis_form(R4, "x2", "x4")
    sq = wedge(w1, w1)
    assert sq == DiffForm(R4, 4, {(0, 1, 2, 3): -2})
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


@pytest.mark.parametrize("coordinates, parameters, message", [
    (("1", "x2"), (), "name '1' is not an identifier"),
    (("", "x2"), (), "name '' is not an identifier"),
    (("x 1", "x2"), (), "name 'x 1' is not an identifier"),
    (("x1", "x2"), ("mu ",), "name 'mu ' is not an identifier"),
    (("x1", "x2"), ("_a",), "name '_a' is not an identifier"),
    (("x1", "x2"), ("\u00b2a",), "name '\u00b2a' is not an identifier"),
    (("x1", "cos"), (), "'cos' is a reserved function name"),
])
def test_space_refuses_a_name_that_is_not_one_identifier_token(coordinates, parameters, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}"):
        Space("S", coordinates, parameters)


def test_space_accepts_unicode_and_underscore_identifiers():
    assert Space("S", ("x_1", "\u03b8"), ("mu_2",)).symbols == ("x_1", "\u03b8", "mu_2")


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
    assert flux_field(flux) == X


_FACTOR_TEXTS = ("1", "1", "sin(x1)", "cos(x2 - x3)", "x2*sin(x1 + cos(x3))")


def random_coefficient(rng, space):
    """A random polynomial, times a sin/cos factor more often than not."""
    return nf_mul(random_poly(rng, space.coordinates), space.parse(rng.choice(_FACTOR_TEXTS)))


@pytest.mark.parametrize("space", [R3, R4], ids=["R3", "R4"])
@pytest.mark.parametrize("seed", range(4))
def test_flux_field_inverts_the_contraction_with_the_volume_form(space, seed):
    rng = random.Random(900 + seed)
    vol = volume_form(space)
    X = VectorField(space, tuple(random_coefficient(rng, space) for _ in space.coordinates))
    assert flux_field(interior_product(X, vol)) == X
    indices = list(itertools.combinations(range(space.dim), space.dim - 1))
    chosen = rng.sample(indices, k=rng.randint(1, len(indices)))
    alpha = DiffForm(space, space.dim - 1, {i: random_coefficient(rng, space) for i in chosen})
    assert interior_product(flux_field(alpha), vol) == alpha


def test_flux_field_of_the_zero_form_is_zero_and_other_degrees_are_refused():
    assert flux_field(DiffForm(R3, 2, {})).is_zero
    for degree in (0, 1, 3):
        with pytest.raises(DegreeError, match="needs a degree-2 form, got degree"):
            flux_field(DiffForm(R3, degree, {}))


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
    assert moved == DiffForm(new_space, 2, {(0, 1): -1})
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


class _ListKeyed(Mapping):
    """Coefficients keyed by multi-indices given as lists, which no dict
    can hold."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __iter__(self):
        return (idx for idx, _c in self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, idx):
        return next(c for i, c in self.pairs if list(i) == list(idx))


def test_multi_indices_as_lists_and_tuples_make_one_form():
    space = Space("s", ("x1", "x2", "x3"))
    x3 = space.parse("x3")
    from_lists = DiffForm(space, 2, _ListKeyed([([1, 2], x3), ([0, 1], 2)]))
    from_tuples = DiffForm(space, 2, {(0, 1): 2, (1, 2): x3})
    assert from_lists == from_tuples
    assert [entry["index"] for entry in serialize_form(from_lists)] == [[1, 2], [2, 3]]
    # an index valid for one degree is refused for another
    for coeffs, degree, message in (({(0, 1): 1}, 1, "multi-index (0, 1) does not match degree 1"),
                                    (_ListKeyed([([2, 1], 1)]), 2,
                                     "multi-index (2, 1) must be strictly increasing")):
        with pytest.raises(GeometryError) as info:
            DiffForm(space, degree, coeffs)
        assert str(info.value) == message


def test_mask_keys_and_position_keys_make_one_form():
    x3 = R4.parse("x3")
    from_masks = DiffForm(R4, 2, {0b1001: x3, 0b0110: 2})
    from_tuples = DiffForm(R4, 2, {(0, 3): x3, (1, 2): 2})
    assert from_masks == from_tuples and hash(from_masks) == hash(from_tuples)
    assert from_masks.get_nf(0b1001) == from_masks.get_nf((0, 3)) == x3
    # entries leave in multi-index order, not in mask order
    assert serialize_form(from_masks) == [{"index": [1, 4], "coeff": "x3"},
                                          {"index": [2, 3], "coeff": "2"}]
    assert repr(from_masks) == "DiffForm(R4, deg=2: [x3] dx1^x4 + [2] dx2^x3)"


@pytest.mark.parametrize("mask, message", [
    (0b001, "multi-index mask 1 does not match degree 2"),
    (0b111, "multi-index mask 7 does not match degree 2"),
    (0b1001, "multi-index mask 9 out of range"),
    (-3, "multi-index mask -3 out of range"),
])
def test_mask_keys_outside_the_degree_or_the_space_are_refused(mask, message):
    with pytest.raises(GeometryError) as info:
        DiffForm(R3, 2, {mask: 1})
    assert str(info.value) == message
    form = DiffForm(R3, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    with pytest.raises(GeometryError) as info:
        form.get_nf(mask)
    assert str(info.value) == message


def test_get_nf_refuses_an_index_out_of_order():
    form = basis_form(R3, "x1", "x2")
    with pytest.raises(GeometryError) as info:
        form.get_nf((1, 0))
    assert str(info.value) == "multi-index (1, 0) must be strictly increasing"
    assert form.get_nf((0, 1)) == normal_form(1)


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


# --------------------------------------------------------------------------
# Aggregate zero tests: a trig-free nonzero coefficient decides at once

# Coefficient pieces: trig-free ones, trig ones, and trig identities whose
# normal form is nonzero although they vanish.  "x1" and "-x1" cancel.
_PIECES = (
    "x1", "-x1", "x2*x3 - 1/2", "3",
    "sin(x1)", "x2*cos(x3)", "sin(x1 + x2) + 1",
    "sin(x1)^2 + cos(x1)^2 - 1",
    "x3*(sin(x2)^2 + cos(x2)^2 - 1)",
    "sin(x1 - x2) - sin(x1)*cos(x2) + cos(x1)*sin(x2)",
    "sin(2*x3) - 2*sin(x3)*cos(x3)",
)
_coefficients = st.lists(st.sampled_from(_PIECES), max_size=2).map(
    lambda texts: R3.parse(" + ".join(f"({t})" for t in texts) or "0"))
_triples = st.lists(_coefficients, min_size=3, max_size=3)


def _exact_expected(nfs):
    """A trig-free nonzero coefficient exists, or none carries trig."""
    nonzero = [c for c in nfs if not c.is_zero()]
    return any(not c.has_trig() for c in nonzero) or not any(c.has_trig() for c in nonzero)


@settings(max_examples=80, deadline=None)
@given(_triples)
def test_form_is_zero_agrees_with_is_zero_and_is_exact_on_a_trig_free_witness(coeffs):
    a = DiffForm(R3, 1, {(i,): c for i, c in enumerate(coeffs)})
    res = form_is_zero(a)
    assert res.value == all(is_zero(c).value for c in a.nfs.values())
    assert (res.certainty == "exact") == _exact_expected(a.nfs.values())


@settings(max_examples=80, deadline=None)
@given(_triples, _triples)
def test_fields_equal_agrees_with_is_zero_and_is_exact_on_a_trig_free_witness(base, delta):
    u = VectorField(R3, tuple(base))
    v = VectorField(R3, tuple(nf_add(b, d) for b, d in zip(base, delta)))
    differences = [nf_add(a, nf_neg(b)) for a, b in zip(u.nfs, v.nfs)]
    res = fields_equal(u, v)
    assert res.value == all(is_zero(d).value for d in differences)
    assert (res.certainty == "exact") == _exact_expected(differences)


def test_a_trig_free_witness_compiles_nothing(monkeypatch):
    compiled = []
    original = expr_module.compile_lambda
    monkeypatch.setattr(expr_module, "compile_lambda",
                        lambda body: compiled.append(body) or original(body))
    trig, poly = R3.parse("sin(x3)"), R3.parse("x1*x2")
    # the trig coefficient comes first in index order
    assert form_is_zero(DiffForm(R3, 1, {(0,): trig, (1,): poly})) == ZeroResult(False, "exact")
    assert fields_equal(VectorField(R3, (trig, poly, 0)),
                        VectorField(R3, (0, 0, 0))) == ZeroResult(False, "exact")
    assert compiled == []
    # without the witness the trig coefficient is sampled
    assert form_is_zero(DiffForm(R3, 1, {(0,): trig})) == ZeroResult(False, "probabilistic")
    assert fields_equal(VectorField(R3, (trig, 0, 0)),
                        VectorField(R3, (0, 0, 0))) == ZeroResult(False, "probabilistic")
    assert len(compiled) == 2
