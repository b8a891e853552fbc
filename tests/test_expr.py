"""Unit tests for the exact scalar-expression kernel."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liouvar.expr import (
    MAX_NESTING,
    Const,
    Cos,
    Neg,
    ParseError,
    Power,
    Product,
    Sin,
    Sum,
    Symbol,
    UnboundSymbolError,
    UndeclaredSymbolError,
    ZeroTestConfig,
    differentiate,
    evaluate,
    NF_ONE,
    NormalForm,
    _monomial_sort_key,
    from_normal,
    is_zero,
    nf_add,
    nf_diff,
    nf_divide,
    nf_mul,
    nf_neg,
    nf_pow,
    nf_scale,
    nf_sum_of_products,
    normal_form,
    normalize,
    parse_expr,
    parse_rational,
    render,
    substitute,
)
from liouvar.exterior import DiffForm, Space, exterior_derivative
from liouvar.flow import compile_scalar
from liouvar.liouville import solve_gamma

try:
    import sympy
except ImportError:  # the sympy cross-checks below are skipped
    sympy = None

SYMS = ("x1", "x2", "x3", "mu1", "mu2", "mu3", "t", "q", "p")


def q(text):
    return parse_expr(text, SYMS)


# --------------------------------------------------------------------------
# Parsing


def test_parse_product():
    e = q("mu1*x2*x3")
    assert isinstance(e, Product)
    assert render(e) == "mu1*x2*x3"


def test_parse_additive_identity():
    assert normalize(q("sin(x3) + 0")) == normalize(q("sin(x3)"))


def test_parse_ring_identity_is_zero():
    assert render(normalize(q("x1^2 - x1*x1"))) == "0"


def test_parse_rationals_and_power():
    e = q("1/2*x1^2 - 3*x2")
    assert evaluate(e, {"x1": 2.0, "x2": 1.0}) == pytest.approx(-1.0)


def test_parse_nested_trig_and_parens():
    e = q("sin(x1 + cos(x2))^2")
    v = evaluate(e, {"x1": 0.3, "x2": 0.7})
    assert v == pytest.approx(math.sin(0.3 + math.cos(0.7)) ** 2)


def test_parse_leading_minus_binds_atom():
    # '-x1^2' applies the unary minus to the atom, then squares
    assert render(normalize(q("-x1^2"))) == "x1^2"
    assert render(normalize(q("-1*x1^2"))) == "-1*x1^2"


def test_parse_undeclared_identifier():
    with pytest.raises(UndeclaredSymbolError) as err:
        parse_expr("x1 + bogus", ("x1",))
    assert err.value.position == 5


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        q("x1 + * x2")
    assert err.value.position == 5


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("sin(", ")"), ("-", "")])
def test_parse_nesting_limit(opening, closing):
    def nested(depth):
        return opening * depth + "x1" + closing * depth

    assert normal_form(q(nested(MAX_NESTING))).free_symbols() == {"x1"}
    with pytest.raises(ParseError, match="nesting") as err:
        q(nested(MAX_NESTING + 1))
    assert err.value.position == len(opening) * MAX_NESTING
    with pytest.raises(ParseError, match="nesting"):
        q(nested(3000))


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        q("x1 )")


def test_parse_bad_exponent():
    with pytest.raises(ParseError):
        q("x1^0")


def test_parse_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1") == Fraction(-1)


# --------------------------------------------------------------------------
# Differentiation


def test_diff_product_rule():
    assert render(differentiate(q("mu1*x2*x3"), "x2")) == "mu1*x3"


def test_diff_sine():
    assert differentiate(q("sin(x1)"), "x1") == normalize(Cos(Symbol("x1")))


def test_diff_parameter_constant():
    # d/dx2 of (1/2) mu2 x1 x3^2 treats parameters and other coords as constants
    a1 = q("1/2*mu2*x1*x3^2")
    assert render(differentiate(a1, "x2")) == "0"


def test_diff_power_rule():
    assert render(differentiate(q("x1^3"), "x1")) == "3*x1^2"


def test_diff_chain_rule():
    e = differentiate(q("cos(x1^2)"), "x1")
    expected = normalize(Const(Fraction(-2)) * Symbol("x1") * Sin(Power(Symbol("x1"), 2)))
    assert e == expected


# --------------------------------------------------------------------------
# Zero testing


def test_is_zero_exact_commutator():
    res = is_zero(q("x1*x2 - x2*x1"))
    assert res.value and res.certainty == "exact"


def test_is_zero_pythagorean_probabilistic():
    res = is_zero(q("sin(x1)^2 + cos(x1)^2 - 1"))
    assert res.value and res.certainty == "probabilistic"


def test_is_zero_nonzero_monomial_exact():
    res = is_zero(q("mu1*x2*x3"))
    assert not res.value and res.certainty == "exact"


def test_is_zero_trig_nonzero():
    res = is_zero(q("sin(x1) + 1/2"))
    assert not res.value and res.certainty == "probabilistic"


def test_is_zero_small_nonzero_is_not_zero():
    # the tolerance scales with the term magnitudes, not with 1 + |value|
    res = is_zero(Const(Fraction(1, 10**12)) * Sin(Symbol("x")))
    assert not res.value and res.certainty == "probabilistic"


def test_is_zero_accepts_a_normal_form():
    for text in ("sin(x1)^2 + cos(x1)^2 - 1", "sin(x1) + 1/2", "x1*x2 - x2*x1", "mu1*x2"):
        assert is_zero(normal_form(q(text))) == is_zero(q(text))


def test_is_zero_deterministic_and_seed_sensitive():
    e = q("sin(x1)^2 + cos(x1)^2 - 1")
    first = is_zero(e)
    second = is_zero(e)
    assert first == second
    other = is_zero(e, ZeroTestConfig(seed=99))
    assert other.value  # verdict stable under reseeding


# --------------------------------------------------------------------------
# Evaluation


def test_evaluate_product():
    assert evaluate(q("x1*x2*x3"), {"x1": 1, "x2": 2, "x3": 3}) == 6.0


def test_evaluate_sin_zero():
    assert evaluate(q("sin(x1)"), {"x1": 0.0}) == 0.0


def test_evaluate_rigid_body_component():
    # mu1 = (I2 - I3)/I1 = -1 for moments (1, 2, 3)
    assert evaluate(q("mu1*x2*x3"), {"mu1": -1.0, "x1": 1, "x2": 1, "x3": 1}) == -1.0


def test_evaluate_unbound():
    with pytest.raises(UnboundSymbolError):
        evaluate(q("x1 + x2"), {"x1": 1.0})


# --------------------------------------------------------------------------
# Substitution


def test_substitute_into_square():
    e = substitute(normal_form(q("q^2")), {"q": normal_form(Sin(Symbol("t")))})
    assert e == normal_form(q("sin(t)^2"))


def test_substitute_identity():
    e = normal_form(q("x1*x2 + sin(x3)"))
    assert substitute(e, {"x1": normal_form(Symbol("x1"))}) == e


def test_substitute_simultaneous_swap():
    e = normal_form(q("q - p"))
    swapped = substitute(e, {"q": normal_form(Symbol("p")), "p": normal_form(Symbol("q"))})
    assert swapped == normal_form(q("p - q"))


def test_substitute_parameter_expansion():
    syms = SYMS + ("I2", "I3", "I1r")
    f1 = normal_form(parse_expr("mu1*x2*x3", syms))
    replacement = normal_form(parse_expr("(I2 - I3)*I1r", syms))
    out = substitute(f1, {"mu1": replacement})
    assert out == normal_form(parse_expr("(I2 - I3)*I1r*x2*x3", syms))


def test_substitute_inside_trig_arguments():
    e = normal_form(q("q*sin(2*q + p)^2 - cos(p)"))
    out = substitute(e, {"q": normal_form(q("t - 1")), "p": normal_form(Const(0))})
    assert out == normal_form(q("(t - 1)*sin(2*t - 2)^2 - 1"))


# --------------------------------------------------------------------------
# Properties


_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polynomials(draw, symbols=("x1", "x2"), max_terms=3, max_factors=3, trig=False):
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        expr = Const(draw(_small_rationals))
        for _ in range(draw(st.integers(0, max_factors))):
            expr = expr * Symbol(draw(st.sampled_from(symbols)))
        if trig and draw(st.booleans()):
            inner = Symbol(draw(st.sampled_from(symbols)))
            expr = expr * (Sin(inner) if draw(st.booleans()) else Cos(inner))
        terms.append(expr)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


@settings(max_examples=40, deadline=None)
@given(polynomials(trig=True))
def test_normalize_idempotent(e):
    once = normalize(e)
    assert normalize(once) == once


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_leibniz_rule(a, b):
    d = lambda e: differentiate(e, "x1")
    residual = d(a * b) - (d(a) * b + a * d(b))
    res = is_zero(residual)
    assert res.value and res.certainty == "exact"


@settings(max_examples=40, deadline=None)
@given(polynomials(trig=True))
def test_mixed_partials_commute(e):
    d12 = differentiate(differentiate(e, "x1"), "x2")
    d21 = differentiate(differentiate(e, "x2"), "x1")
    assert is_zero(d12 - d21).value


@settings(max_examples=40, deadline=None)
@given(polynomials(trig=True))
def test_evaluate_agrees_with_normalized(e):
    rng = random.Random(7)
    point = {s: rng.uniform(-2, 2) for s in ("x1", "x2")}
    v1 = evaluate(e, point)
    v2 = evaluate(normalize(e), point)
    assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(polynomials(trig=True))
def test_render_parse_round_trip(e):
    text = render(e)
    back = parse_expr(text, SYMS)
    assert normal_form(back) == normal_form(e)


def test_power_matches_repeated_product():
    base = q("x1 - 2*x2 + sin(x1)")
    for k in range(1, 8):
        assert normal_form(Power(base, k)) == normal_form(Product((base,) * k))


_leaves = st.one_of(_small_rationals.map(Const), st.sampled_from(("x1", "x2")).map(Symbol))


def _compound(children):
    groups = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        groups.map(Sum), groups.map(Product), children.map(Neg),
        st.tuples(children, st.integers(1, 3)).map(lambda t: Power(*t)),
        children.map(Sin), children.map(Cos))


expressions = st.recursive(_leaves, _compound, max_leaves=8)


def _to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Symbol):
        return sympy.Symbol(e.name)
    if isinstance(e, Sum):
        return sympy.Add(*(_to_sympy(t) for t in e.terms))
    if isinstance(e, Product):
        return sympy.Mul(*(_to_sympy(f) for f in e.factors))
    if isinstance(e, Power):
        return _to_sympy(e.base) ** e.exponent
    if isinstance(e, Neg):
        return -_to_sympy(e.arg)
    return (sympy.sin if isinstance(e, Sin) else sympy.cos)(_to_sympy(e.arg))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(expressions)
def test_normal_form_and_derivative_match_sympy(e):
    reference = _to_sympy(e)
    assert sympy.expand(_to_sympy(normalize(e)) - reference) == 0
    for v in ("x1", "x2"):
        derivative = sympy.diff(reference, sympy.Symbol(v))
        assert sympy.expand(_to_sympy(differentiate(e, v)) - derivative) == 0


@settings(max_examples=80, deadline=None)
@given(st.one_of(expressions, polynomials(trig=True)), st.floats(-2, 2), st.floats(-2, 2))
def test_compiled_normal_form_matches_tree_evaluation(e, a, b):
    # bit for bit up to the sign of zero (a tree sum starts from 0.0); with
    # x2 as a parameter its value is compiled in as a float literal
    nf = normal_form(e)
    want = evaluate(from_normal(nf), {"x1": a, "x2": b})
    assert compile_scalar(nf, ("x1", "x2"), {})([a, b]) == want
    assert compile_scalar(nf, ("x1",), {"x2": b})([a]) == want


# --------------------------------------------------------------------------
# Exact division


def test_divide_exact():
    num = normal_form(q("x1^2*x2 + x1*x2^2"))
    den = normal_form(q("x1*x2"))
    quotient = nf_divide(num, den)
    assert quotient == normal_form(q("x1 + x2"))


def test_divide_by_constant():
    num = normal_form(q("2*x1 + 4"))
    den = normal_form(q("2"))
    assert nf_divide(num, den) == normal_form(q("x1 + 2"))


def test_divide_not_divisible():
    assert nf_divide(normal_form(q("x1 + 1")), normal_form(q("x2"))) is None


def test_divide_with_trig_atoms():
    num = normal_form(q("sin(x1)*x2 + sin(x1)"))
    den = normal_form(q("sin(x1)"))
    assert nf_divide(num, den) == normal_form(q("x2 + 1"))


# --------------------------------------------------------------------------
# Normal-form invariants


def _assert_canonical(nf):
    """Nonzero int or non-integral Fraction coefficients, sorted distinct
    atoms with positive exponents, terms in strict canonical order; sin/cos
    arguments are canonical normal forms themselves."""
    for m, c in nf.terms:
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1), c
        atoms = [a for a, _e in m]
        assert all(a < b for a, b in zip(atoms, atoms[1:])), m
        for (kind, payload), e in m:
            assert type(e) is int and e >= 1
            if kind:
                assert isinstance(payload, NormalForm) and not payload.is_zero()
                _assert_canonical(payload)
    keys = [_monomial_sort_key(m) for m, _c in nf.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_trig_atom_holds_the_argument_normal_form():
    nf = normal_form(q("sin(x1 + 1/2)"))
    ((((kind, payload), e),), c), = nf.terms
    assert payload == normal_form(q("x1 + 1/2")) and (e, c) == (1, 1)
    assert isinstance(payload, NormalForm)


def test_normal_form_is_immutable_and_keeps_its_derived_values():
    nf = normal_form(q("x1*sin(x2 + cos(x3)) + 1/3"))
    with pytest.raises(AttributeError):
        nf.terms = ()
    assert nf.sort_key() is nf.sort_key()
    assert nf.free_symbols() is nf.free_symbols() == {"x1", "x2", "x3"}
    assert hash(nf) == hash(normal_form(q("1/3 + sin(cos(x3) + x2)*x1")))


def test_integral_coefficients_are_ints():
    nf = normal_form(q("2*x1 + 1/2*x2 + 1/2*x2 - 3"))
    assert [c for _m, c in nf.terms] == [2, 1, -3]
    assert [type(c) for _m, c in nf.terms] == [int, int, int]
    assert nf_scale(normal_form(q("3/2*x1")), Fraction(2, 3)).terms[0][1] == 1


@pytest.mark.parametrize("text", ["0", "7", "-2/3", "4/2"])
def test_constant_value_is_a_fraction(text):
    value = normal_form(q(text)).constant_value()
    assert type(value) is Fraction and value == parse_rational(text)
    assert type(NF_ONE.constant_value()) is Fraction


def test_divide_keeps_denominators_exact():
    num = normal_form(q("1/3*x1*x2 + 1/3*x1"))
    assert nf_divide(num, normal_form(q("3*x1"))) == normal_form(q("1/9*x2 + 1/9"))
    third = nf_divide(normal_form(q("x1")), normal_form(q("3")))
    assert third.terms[0][1] == Fraction(1, 3) and type(third.terms[0][1]) is Fraction


_rational_forms = polynomials(symbols=("x1", "x2", "x3"), trig=True)


@settings(max_examples=60, deadline=None)
@given(_rational_forms, _rational_forms, _rational_forms)
def test_kernel_results_are_canonical(a, b, c):
    na, nb, nc = normal_form(a), normal_form(b), normal_form(c)
    for nf in (na, nf_add(na, nb), nf_mul(na, nb), nf_pow(nc, 3), nf_diff(nf_mul(na, nc), "x1"),
               nf_scale(na, Fraction(3, 2)), nf_neg(nb),
               substitute(na, {"x2": nc, "x3": nb}),
               nf_sum_of_products((1, na, nb), (-1, nb, nc), (1, nc, NF_ONE))):
        _assert_canonical(nf)


@settings(max_examples=60, deadline=None)
@given(st.one_of(expressions, _rational_forms))
def test_render_parse_round_trip_keeps_equality_and_hash(e):
    nf = normal_form(e)
    back = normal_form(parse_expr(render(nf), SYMS))
    assert back == nf and hash(back) == hash(nf)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), _rational_forms, _rational_forms),
                min_size=1, max_size=4))
def test_sum_of_products_equals_sum_of_signed_products(products):
    triples = [(sign, normal_form(a), normal_form(b)) for sign, a, b in products]
    expected = nf_add(*(nf_mul(a, b) if sign > 0 else nf_neg(nf_mul(a, b))
                        for sign, a, b in triples))
    assert nf_sum_of_products(*triples) == expected


@settings(max_examples=60, deadline=None)
@given(polynomials(symbols=("x1", "x2", "x3")), polynomials(symbols=("x1", "x2", "x3")))
def test_divide_recovers_a_rational_factor(a, b):
    na, nb = normal_form(a), normal_form(b)
    if nb.is_zero():
        return
    quotient = nf_divide(nf_mul(na, nb), nb)
    assert quotient == na
    _assert_canonical(quotient)


@settings(max_examples=30, deadline=None)
@given(st.lists(polynomials(symbols=("x1", "x2", "x3")), min_size=3, max_size=3))
def test_solve_gamma_exact_with_denominators(coefficients):
    space = Space("r3", ("x1", "x2", "x3"))
    chi = exterior_derivative(DiffForm(space, 1, {(i,): c for i, c in enumerate(coefficients)}))
    if chi.is_zero_form:
        return
    gamma = solve_gamma(chi)
    assert exterior_derivative(gamma) == chi
    for nf in gamma.nfs.values():
        _assert_canonical(nf)
