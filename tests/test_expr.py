"""Unit tests for the exact scalar-expression kernel."""

import ast
import functools
import itertools
import math
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import liouvar.expr as expr_module
import liouvar.liouville as liouville_module
from liouvar.expr import (
    EXACT,
    MAX_COEFF_BITS,
    MAX_NESTING,
    MAX_TERMS,
    ExprError,
    ParseError,
    UnboundSymbolError,
    UndeclaredSymbolError,
    ZeroResult,
    differentiate,
    NF_ONE,
    NF_ZERO,
    NormalForm,
    _COS,
    _SIN,
    _SYM,
    _monomial_sort_key,
    _power_terms_bound,
    _trig_nf,
    compile_rows,
    compile_source,
    is_zero,
    nf_add,
    nf_antiderivative,
    nf_divide,
    nf_mul,
    nf_neg,
    nf_pow,
    nf_scale,
    nf_sum_of_products,
    nf_program,
    nf_term,
    normal_form,
    parse_expr,
    parse_rational,
    render,
    substitute,
)
from liouvar.exterior import DiffForm, Space, exterior_derivative, index_positions
from liouvar.flow import compile_scalar
from liouvar.liouville import solve_gamma

try:
    import sympy
except ImportError:  # the sympy cross-checks below are skipped
    sympy = None

SYMS = ("x1", "x2", "x3", "mu1", "mu2", "mu3", "t", "q", "p")


def q(text):
    return parse_expr(text, SYMS)


def _sym(name):
    """The normal form of a symbol, built without the parser."""
    return nf_term((((_SYM, name), 1),), 1)


def _evaluate(nf, bindings):
    """IEEE-double value of ``nf``: the reference the compiled code is
    tested against.

    Each term multiplies, left to right from 1.0, its coefficient (left
    out when it is 1 and the term has atoms) and its atoms, a raised atom
    as ``value ** exponent``; the terms are summed left to right from 0.0.
    A term or a sum of one item is that item, not multiplied or added.
    """
    terms = []
    for m, c in nf.terms:
        factors = [float(c)] if c != 1 or not m else []
        for (kind, payload), e in m:
            if kind == _SYM:
                base = float(bindings[payload])
            else:
                base = (math.sin if kind == _SIN else math.cos)(_evaluate(payload, bindings))
            factors.append(base if e == 1 else base ** e)
        if len(factors) == 1:
            terms.append(factors[0])
            continue
        product = 1.0
        for f in factors:
            product *= f
        terms.append(product)
    if len(terms) == 1:
        return terms[0]
    total = 0.0
    for t in terms:
        total += t
    return total


# --------------------------------------------------------------------------
# Parsing


def test_parse_product():
    e = q("mu1*x2*x3")
    assert isinstance(e, NormalForm)
    ((monomial, coeff),) = e.terms
    assert [atom for atom, _e in monomial] == [(0, "mu1"), (0, "x2"), (0, "x3")] and coeff == 1
    assert render(e) == "mu1*x2*x3"


def test_parse_additive_identity():
    assert q("sin(x3) + 0") == q("sin(x3)")


def test_parse_ring_identity_is_zero():
    assert render(q("x1^2 - x1*x1")) == "0"


def test_parse_rationals_and_power():
    e = q("1/2*x1^2 - 3*x2")
    assert _evaluate(e, {"x1": 2.0, "x2": 1.0}) == pytest.approx(-1.0)


def test_parse_nested_trig_and_parens():
    e = q("sin(x1 + cos(x2))^2")
    v = _evaluate(e, {"x1": 0.3, "x2": 0.7})
    assert v == pytest.approx(math.sin(0.3 + math.cos(0.7)) ** 2)


def test_parse_leading_minus_binds_atom():
    # '-x1^2' applies the unary minus to the atom, then squares
    assert render(q("-x1^2")) == "x1^2"
    assert render(q("-1*x1^2")) == "-1*x1^2"


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

    assert q(nested(MAX_NESTING)).free_symbols() == {"x1"}
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


# Error class, message and position of malformed inputs; the same as the
# per-character tokenizer this parser replaced reported for each of them.
_MALFORMED = [
    ("", ParseError, "unexpected end of input (at position 0)"),
    ("   ", ParseError, "unexpected end of input (at position 3)"),
    ("x1 +", ParseError, "unexpected end of input (at position 4)"),
    ("x1 )", ParseError, "unexpected trailing input (at position 3)"),
    ("(x1", ParseError, "expected ')' (at position 3)"),
    ("x1 + * x2", ParseError, "unexpected token '*' (at position 5)"),
    ("x1^0", ParseError, "exponent must be a positive integer (at position 3)"),
    ("x1^-1", ParseError, "exponent must be a positive integer (at position 3)"),
    ("x1^x2", ParseError, "exponent must be a positive integer (at position 3)"),
    ("x1^(2)", ParseError, "exponent must be a positive integer (at position 3)"),
    ("1/0", ParseError, "denominator must be a positive integer (at position 2)"),
    ("1/x1", ParseError, "denominator must be a positive integer (at position 2)"),
    ("1/-2", ParseError, "denominator must be a positive integer (at position 2)"),
    ("2/", ParseError, "denominator must be a positive integer (at position 2)"),
    ("x1 x2", ParseError, "unexpected trailing input (at position 3)"),
    ("bogus", UndeclaredSymbolError, "undeclared identifier 'bogus' (at position 0)"),
    ("x1 + bogus", UndeclaredSymbolError, "undeclared identifier 'bogus' (at position 5)"),
    ("y + @", ParseError, "unexpected character '@' (at position 4)"),
    ("x1 $ y", ParseError, "unexpected character '$' (at position 3)"),
    ("sin x1", ParseError, "expected '(' after sin (at position 4)"),
    ("sin(x1", ParseError, "expected ')' (at position 6)"),
    ("cos()", ParseError, "unexpected token ')' (at position 4)"),
    ("sin", ParseError, "expected '(' after sin (at position 3)"),
    ("_x", ParseError, "unexpected character '_' (at position 0)"),
    ("x_1", UndeclaredSymbolError, "undeclared identifier 'x_1' (at position 0)"),
    ("x1.5", ParseError, "unexpected character '.' (at position 2)"),
    ("x1*", ParseError, "unexpected end of input (at position 3)"),
    ("-", ParseError, "unexpected end of input (at position 1)"),
    ("sin(x1))", ParseError, "unexpected trailing input (at position 7)"),
    ("x1^2^3", ParseError, "unexpected trailing input (at position 4)"),
    ("1/2/3", ParseError, "unexpected trailing input (at position 3)"),
    ("x1^1/2", ParseError, "unexpected trailing input (at position 4)"),
    ("\u00e9", UndeclaredSymbolError, "undeclared identifier '\u00e9' (at position 0)"),
    ("x1 \u00d7 x2", ParseError, "unexpected character '\u00d7' (at position 3)"),
    ("cos(\u00e9)", UndeclaredSymbolError, "undeclared identifier '\u00e9' (at position 4)"),
    ("x1\u00b2", UndeclaredSymbolError, "undeclared identifier 'x1\u00b2' (at position 0)"),
    ("\u00bd", ParseError, "unexpected character '\u00bd' (at position 0)"),
    ("\u216b", ParseError, "unexpected character '\u216b' (at position 0)"),
    ("\uff581", UndeclaredSymbolError, "undeclared identifier '\uff581' (at position 0)"),
    ("x1 \u00b2", ParseError, "unexpected trailing input (at position 3)"),
    # products of declared symbols, which the parser folds into one
    # monomial: each error is the one of parsing every factor on its own
    ("x1*x2^0", ParseError, "exponent must be a positive integer (at position 6)"),
    ("x1*y", UndeclaredSymbolError, "undeclared identifier 'y' (at position 3)"),
    ("x1*x2^", ParseError, "exponent must be a positive integer (at position 6)"),
    ("x1^2*x3^-1", ParseError, "exponent must be a positive integer (at position 8)"),
    ("x1*x2^x3", ParseError, "exponent must be a positive integer (at position 6)"),
    ("x1*x2*", ParseError, "unexpected end of input (at position 6)"),
    ("x1*x2 x3", ParseError, "unexpected trailing input (at position 6)"),
    ("x1*x2^2^3", ParseError, "unexpected trailing input (at position 7)"),
    ("x1*0*y", UndeclaredSymbolError, "undeclared identifier 'y' (at position 5)"),
]


@pytest.mark.parametrize("text, error, message", _MALFORMED)
def test_parse_errors_keep_class_message_and_position(text, error, message):
    with pytest.raises(ParseError) as err:
        q(text)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("text, expected", [
    ("\u0663*x1", "3*x1"), ("\uff11 + x1", "x1 + 1"), ("x1^\u0663", "x1^3"),
    ("--x1", "x1"), ("\tx1\n", "x1"), ("x1\u00a0+\u00a0x2", "x1 + x2"), ("2^2", "4"),
    ("(1/2)^2", "1/4"), ("x1 + 1 /2", "x1 + 1/2"),
])
def test_parse_accepts_unicode_decimal_digits_and_whitespace(text, expected):
    assert render(q(text)) == expected


@pytest.mark.parametrize("text, message", [
    ("x1^\u00b2", "number with a digit that is not decimal (at position 3)"),
    ("\u00b2x1", "number with a digit that is not decimal (at position 0)"),
    ("x1^" + "7" * 5000, "number with too many digits (at position 3)"),
    ("7" * 5000 + "*x1", "number with too many digits (at position 0)"),
    ("1/" + "7" * 5000, "number with too many digits (at position 2)"),
])
def test_parse_refuses_number_tokens_int_cannot_read(text, message):
    with pytest.raises(ParseError) as err:
        q(text)
    assert str(err.value) == message


def test_a_reserved_name_among_the_symbols_is_still_read_as_its_function():
    assert parse_expr("x1*cos(x1)", ["cos", "x1"]) == parse_expr("x1*cos(x1)", ["x1"])
    with pytest.raises(ParseError) as err:
        parse_expr("x1*cos", ["cos", "x1"])
    assert str(err.value) == "expected '(' after cos (at position 6)"


_PRODUCT_SYMBOLS = st.sampled_from(("x1", "x2", "mu1"))
_SMALL_SUMS = st.lists(_PRODUCT_SYMBOLS | st.integers(1, 3).map(str) | st.just("-1*x2"),
                       min_size=1, max_size=3).map(" + ".join)
_PRODUCT_FACTORS = st.one_of(
    _PRODUCT_SYMBOLS,
    st.builds("{}^{}".format, _PRODUCT_SYMBOLS, st.integers(1, 4)),
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 9)),
    st.builds("{}({})".format, st.sampled_from(("sin", "cos")), _SMALL_SUMS),
    _SMALL_SUMS.map("({})".format),
    st.builds("({})^{}".format, _SMALL_SUMS, st.integers(1, 3)),
    _PRODUCT_SYMBOLS.map("-{}".format),
    st.just("(x1 - x1)"),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PRODUCT_FACTORS, min_size=1, max_size=6), st.sampled_from(("*", " * ")))
def test_parsed_product_equals_the_product_of_its_factors_parsed_alone(factors, sep):
    """Symbols, symbol powers, integers, p/q, sin/cos of small sums,
    parenthesised sums and their powers, negated symbols and a zero factor:
    the product's normal form is the ``nf_mul`` fold of its factors'."""
    got = q(sep.join(factors))
    assert got == functools.reduce(nf_mul, [q(f) for f in factors])
    _assert_canonical(got)


def test_parse_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1") == Fraction(-1)


# --------------------------------------------------------------------------
# Differentiation


def test_diff_product_rule():
    assert render(differentiate(q("mu1*x2*x3"), "x2")) == "mu1*x3"


def test_diff_sine():
    assert differentiate(q("sin(x1)"), "x1") == _trig_nf(_COS, _sym("x1"))


def test_diff_parameter_constant():
    # d/dx2 of (1/2) mu2 x1 x3^2 treats parameters and other coords as constants
    a1 = q("1/2*mu2*x1*x3^2")
    assert render(differentiate(a1, "x2")) == "0"


def test_diff_power_rule():
    assert render(differentiate(q("x1^3"), "x1")) == "3*x1^2"


def test_diff_chain_rule():
    e = differentiate(q("cos(x1^2)"), "x1")
    x1 = _sym("x1")
    assert e == nf_mul(nf_mul(normal_form(-2), x1), _trig_nf(_SIN, nf_pow(x1, 2)))


def test_differentiate_keeps_each_derivative_on_its_normal_form():
    text = "x1^2*sin(x1*x2) + mu1*cos(x2 - x1)^2 + x2"
    nf, twin = q(text), q(text)
    assert nf == twin and nf is not twin
    first = {v: differentiate(nf, v) for v in ("x1", "x2", "mu1")}
    assert len(set(first.values())) == 3
    # the twin takes its derivatives in the opposite order
    for v in ("mu1", "x2", "x1"):
        assert differentiate(nf, v) is first[v]
        assert differentiate(twin, v) == first[v]
        assert differentiate(twin, v) is differentiate(twin, v)
    # a symbol that is not free gives zero, and a constant keeps no table
    const = q("3/4")
    assert differentiate(nf, "x3").is_zero() and differentiate(const, "x1").is_zero()
    assert not hasattr(const, "_derivs")


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
    res = is_zero(nf_scale(q("sin(x1)"), Fraction(1, 10**12)))
    assert not res.value and res.certainty == "probabilistic"


def test_is_zero_accepts_a_normal_form():
    assert is_zero(q("x1*x2 - x2*x1")) == is_zero(0) == ZeroResult(True, EXACT)
    assert is_zero(q("mu1*x2")) == is_zero(Fraction(1, 3)) == ZeroResult(False, EXACT)
    with pytest.raises(ExprError, match="cannot interpret 0.0 as a scalar expression"):
        is_zero(0.0)


def test_is_zero_deterministic_and_seed_sensitive():
    e = q("sin(x1)^2 + cos(x1)^2 - 1")
    first = is_zero(e)
    second = is_zero(e)
    assert first == second
    other = is_zero(e, 99)
    assert other.value  # verdict stable under reseeding


@pytest.mark.parametrize("text, seed, point", [
    ("x2^2000*sin(x1)", 2, 1),     # the power overflows: OverflowError
    ("x2^2000*sin(x1)", 3, 3),     # after two points whose power underflows to 0
    ("x2^2000*sin(x1)", 4, 1),
    ("x2^2000*sin(x1)", 8, 1),
    ("sin(10^300*x1^40)", 2, 1),   # sin of an infinite argument: ValueError
])
def test_is_zero_refuses_a_sample_point_beyond_the_float_range(text, seed, point):
    with pytest.raises(ExprError, match=f"float range at sample point {point} of 32 "
                                        rf"\(seed {seed}\)"):
        is_zero(q(text), seed)


def test_is_zero_keeps_a_nonzero_point_found_before_any_overflow():
    # the default seed's first point is finite and shows the value nonzero
    assert is_zero(q("x2^2000*sin(x1)")) == ZeroResult(False, "probabilistic")


def test_is_zero_does_not_count_an_infinite_point_as_a_zero_point():
    # at seed 1 the first point is x1 = -1.46..., x2 = 1.39..., where the
    # one term 1e308 * x1**40 * sin(x2) is inf by multiplication and no
    # operation raises; abs(inf) > REL_TOL * inf is False, so counting such
    # a point as a zero point would report this nonzero expression as zero
    with pytest.raises(ExprError, match="float range at sample point 1 of 32"):
        is_zero(q("10^308*x1^40*sin(x2)"), 1)


# --------------------------------------------------------------------------
# Evaluation: compiled normal forms


def test_evaluate_product():
    assert compile_scalar(q("x1*x2*x3"), ("x1", "x2", "x3"))([1, 2, 3]) == 6.0


def test_evaluate_sin_zero():
    assert compile_scalar(q("sin(x1)"), ("x1",))([0.0]) == 0.0


def test_evaluate_rigid_body_component():
    # mu1 = (I2 - I3)/I1 = -1 for moments (1, 2, 3), bound before compiling
    bound = substitute(q("mu1*x2*x3"), {"mu1": normal_form(-1)})
    assert compile_scalar(bound, ("x1", "x2", "x3"))([1, 1, 1]) == -1.0


def test_evaluate_unbound():
    with pytest.raises(UnboundSymbolError):
        compile_scalar(q("x1 + x2"), ("x1",))


def test_a_program_writes_each_shared_atom_and_power_once():
    assignments, sources = nf_program([q("sin(x1)^2 + x2"), q("x1*sin(x1)^2 - cos(sin(x1))")],
                                      {"x1": "s[0]", "x2": "s[1]"})
    assert assignments == ["a0 = sin(s[0])", "p1 = pow(a0, 2)", "a2 = cos(a0)"]
    assert sources == ["(p1 + s[1])", "((s[0] * p1) + (-1.0 * a2))"]


_SHARED_FACTORS = ("x1", "x2", "sin(x1)", "cos(x2 - 1/3)", "sin(x1*x2 + cos(x2 - 1/3))")


@st.composite
def _sharing_forms(draw):
    """Sums of rational multiples of products of powers 1-4 of a few
    symbols and sin/cos atoms, so that forms drawn together share atoms
    and powers; a term may be a constant."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        term = [f"{draw(st.integers(-9, 9))}/{draw(st.integers(1, 7))}"]
        for _ in range(draw(st.integers(0, 3))):
            term.append(f"{draw(st.sampled_from(_SHARED_FACTORS))}^{draw(st.integers(1, 4))}")
        terms.append("*".join(term))
    return q(" + ".join(terms))


@settings(max_examples=100, deadline=None)
@given(st.lists(_sharing_forms(), min_size=2, max_size=4), st.floats(-2, 2), st.floats(-2, 2))
def test_compiled_rows_match_tree_evaluation_of_each_row(nfs, a, b):
    # bit for bit up to the sign of zero, as in the test above
    rows = compile_rows(nfs, {"x1": "s[0]", "x2": "s[1]"}, sin=math.sin, cos=math.cos)
    assert rows([a, b]) == [_evaluate(nf, {"x1": a, "x2": b}) for nf in nfs]


def _calls_by_function(tree, names):
    """``(name, enclosing function, first argument)`` of each call of one of
    ``names`` in ``tree``."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in names:
            found.append((node.func.id, function, node.args[0]))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_generated_code_runs_only_through_compile_source():
    package = Path(expr_module.__file__).parent
    calls = [call for path in sorted(package.glob("*.py"))
             for call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")),
                                            {"exec", "eval", "compile"})]
    assert sorted((name, function) for name, function, _arg in calls) == [
        ("compile", "compile_source"), ("exec", "_compile_rk4"), ("exec", "compile_rows")]
    for name, _function, arg in calls:
        if name == "exec":
            assert isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
            assert arg.func.id == "compile_source"


def test_compile_source_keeps_the_codes_of_the_last_maxsize_sources():
    maxsize = compile_source.cache_info().maxsize
    compile_source.cache_clear()
    for i in range(maxsize + 1):
        code = compile_source(f"x = {i}\n")
    assert code.co_filename == "<string>"
    info = compile_source.cache_info()
    assert info.currsize == maxsize and info.misses == maxsize + 1
    # the least recently compiled source was dropped, the latest is kept
    compile_source(f"x = {maxsize}\n")
    assert compile_source.cache_info().misses == maxsize + 1
    compile_source("x = 0\n")
    assert compile_source.cache_info().misses == maxsize + 2


# --------------------------------------------------------------------------
# Substitution


def test_substitute_into_square():
    e = substitute(q("q^2"), {"q": q("sin(t)")})
    assert e == q("sin(t)^2")


def test_substitute_identity():
    e = q("x1*x2 + sin(x3)")
    assert substitute(e, {"x1": _sym("x1")}) == e


def test_substitute_simultaneous_swap():
    e = q("q - p")
    swapped = substitute(e, {"q": _sym("p"), "p": _sym("q")})
    assert swapped == q("p - q")


def test_substitute_parameter_expansion():
    syms = SYMS + ("I2", "I3", "I1r")
    f1 = parse_expr("mu1*x2*x3", syms)
    replacement = parse_expr("(I2 - I3)*I1r", syms)
    out = substitute(f1, {"mu1": replacement})
    assert out == parse_expr("(I2 - I3)*I1r*x2*x3", syms)


def test_substitute_inside_trig_arguments():
    e = q("q*sin(2*q + p)^2 - cos(p)")
    out = substitute(e, {"q": q("t - 1"), "p": normal_form(0)})
    assert out == q("(t - 1)*sin(2*t - 2)^2 - 1")


# --------------------------------------------------------------------------
# Properties


_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polynomials(draw, symbols=("x1", "x2"), max_terms=3, max_factors=3, trig=False):
    """Sums of rational multiples of symbol products, with an optional
    sin/cos factor, built by the kernel."""
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        term = normal_form(draw(_small_rationals))
        for _ in range(draw(st.integers(0, max_factors))):
            term = nf_mul(term, _sym(draw(st.sampled_from(symbols))))
        if trig and draw(st.booleans()):
            inner = _sym(draw(st.sampled_from(symbols)))
            term = nf_mul(term, _trig_nf(_SIN if draw(st.booleans()) else _COS, inner))
        terms.append(term)
    return nf_add(*terms)


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_leibniz_rule(a, b):
    d = lambda e: differentiate(e, "x1")
    residual = nf_add(d(nf_mul(a, b)), nf_neg(nf_add(nf_mul(d(a), b), nf_mul(a, d(b)))))
    res = is_zero(residual)
    assert res.value and res.certainty == "exact"


@settings(max_examples=40, deadline=None)
@given(polynomials(trig=True))
def test_mixed_partials_commute(e):
    d12 = differentiate(differentiate(e, "x1"), "x2")
    d21 = differentiate(differentiate(e, "x2"), "x1")
    assert is_zero(nf_add(d12, nf_neg(d21))).value


@settings(max_examples=40, deadline=None)
@given(polynomials(trig=True), polynomials(trig=True))
def test_evaluate_agrees_with_normalized(a, b):
    # a kernel sum or product evaluates to the sum or product of its operands
    rng = random.Random(7)
    point = {s: rng.uniform(-2, 2) for s in ("x1", "x2")}
    va, vb = _evaluate(a, point), _evaluate(b, point)
    assert _evaluate(nf_add(a, b), point) == pytest.approx(va + vb, rel=1e-9, abs=1e-9)
    assert _evaluate(nf_mul(a, b), point) == pytest.approx(va * vb, rel=1e-9, abs=1e-9)
    assert _evaluate(nf_pow(a, 3), point) == pytest.approx(va ** 3, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(polynomials(trig=True))
def test_render_parse_round_trip(e):
    text = render(e)
    back = parse_expr(text, SYMS)
    assert back == e


def test_power_matches_repeated_product():
    base = q("x1 - 2*x2 + sin(x1)")
    for k in range(1, 8):
        assert nf_pow(base, k) == functools.reduce(nf_mul, [base] * k)


def _cases(depth):
    """Generated expressions: the text in the parser's grammar, a function
    that builds its normal form from the same structure with ``nf_add``,
    ``nf_mul``, ``nf_pow``, ``nf_neg`` and ``_trig_nf``, and the same
    expression in Python syntax, parenthesised so that Python's
    precedence reads it as the grammar does, for sympy.

    The grammar covers sums of products of powers of numbers, p/q
    rationals, symbols, parentheses, sin/cos calls and unary minus, nested
    ``depth`` deep.  The normal form is built on demand, since a power or
    a product may be over the kernel's term budget.
    """
    leaves = [
        st.integers(0, 12).map(lambda n: (str(n), lambda: normal_form(n), str(n))),
        st.tuples(st.integers(0, 12), st.integers(1, 6)).map(
            lambda t: (f"{t[0]}/{t[1]}", lambda: normal_form(Fraction(*t)), f"({t[0]}/{t[1]})")),
        st.sampled_from(("x1", "x2", "mu1")).map(lambda n: (n, lambda: _sym(n), n)),
    ]
    if depth == 0:
        atom = st.one_of(*leaves)
    else:
        inner = _cases(depth - 1)
        atom = st.one_of(
            *leaves,
            inner.map(lambda c: (f"({c[0]})", c[1], f"({c[2]})")),
            inner.map(lambda c: (f"sin({c[0]})", lambda: _trig_nf(_SIN, c[1]()), f"sin({c[2]})")),
            inner.map(lambda c: (f"cos({c[0]})", lambda: _trig_nf(_COS, c[1]()), f"cos({c[2]})")),
            st.one_of(*leaves).map(lambda c: ("-" + c[0], lambda: nf_neg(c[1]()), f"(-{c[2]})")),
            inner.map(lambda c: (f"-({c[0]})", lambda: nf_neg(c[1]()), f"(-({c[2]}))")))

    def power(t):
        (text, build, py), k = t
        if not k:
            return text, build, py
        return f"{text}^{k}", lambda: nf_pow(build(), k), f"({py})**{k}"

    factor = st.tuples(atom, st.integers(0, 2)).map(power)

    def product(fs):
        builds = [f[1] for f in fs]
        return ("*".join(f[0] for f in fs),
                lambda: functools.reduce(nf_mul, [b() for b in builds]),
                "*".join(f[2] for f in fs))

    term = st.lists(factor, min_size=1, max_size=2).map(product)

    def join(parts):
        (text, build, py), rest = parts
        builds = [build]
        for sign, (t_text, t_build, t_py) in rest:
            text += f" {sign} {t_text}"
            py += f" {sign} {t_py}"
            builds.append(t_build if sign == "+" else lambda b=t_build: nf_neg(b()))
        return text, lambda: nf_add(*(b() for b in builds)), py

    return st.tuples(term, st.lists(st.tuples(st.sampled_from("+-"), term), max_size=1)).map(join)


def _built(case):
    """The normal form of a generated case; cases over the term budget are
    rejected (the refusals are tested below)."""
    try:
        return case[1]()
    except ExprError:
        assume(False)


def _to_sympy(nf):
    """The sympy expression of a normal form, term by term."""
    total = sympy.Integer(0)
    for m, c in nf.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for (kind, payload), e in m:
            if kind == _SYM:
                base = sympy.Symbol(payload)
            else:
                base = (sympy.sin if kind == _SIN else sympy.cos)(_to_sympy(payload))
            term *= base ** e
        total += term
    return total


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(_cases(2))
def test_normal_form_and_derivative_match_sympy(case):
    nf = _built(case)
    reference = sympy.sympify(case[2])
    assert sympy.expand(_to_sympy(nf) - reference) == 0
    for v in ("x1", "x2"):
        derivative = sympy.diff(reference, sympy.Symbol(v))
        assert sympy.expand(_to_sympy(differentiate(nf, v)) - derivative) == 0


@settings(max_examples=80, deadline=None)
@given(st.one_of(_cases(2).map(_built), polynomials(trig=True)), st.floats(-2, 2), st.floats(-2, 2))
def test_compiled_normal_form_matches_tree_evaluation(nf, a, b):
    # bit for bit up to the sign of zero (the reference sum starts from
    # 0.0); coordinate i reads s[i] in whatever order the coordinates come
    want = _evaluate(nf, {"x1": a, "x2": b, "mu1": 0.5})
    assert compile_scalar(nf, ("x1", "x2", "mu1"))([a, b, 0.5]) == want
    assert compile_scalar(nf, ("mu1", "x2", "x1"))([0.5, b, a]) == want


@settings(max_examples=150, deadline=None)
@given(_cases(2))
def test_parse_equals_normal_form_of_the_same_tree(case):
    want = _built(case)
    nf = q(case[0])
    assert nf == want
    _assert_canonical(nf)


def test_parse_shares_equal_trig_arguments_through_one_table():
    atoms = {}
    a = parse_expr("x2*sin(x1 + 1) + cos(x1 + 1)", SYMS, atoms)
    b = parse_expr("sin(1 + x1)^2", SYMS, atoms)
    payloads = [payload for nf in (a, b) for m, _c in nf.terms for (kind, payload), _e in m if kind]
    assert len(payloads) == 3 and all(p is payloads[0] for p in payloads)
    assert list(atoms) == [payloads[0]]
    # without a table the arguments are equal objects, not one object
    c, d = q("sin(x1 + 1)"), q("sin(x1 + 1)")
    assert c == d and c.terms[0][0][0][0][1] is not d.terms[0][0][0][0][1]


def test_space_keeps_its_symbol_set_out_of_comparisons():
    space = Space("s", ("x1", "x2"), ("mu1",))
    assert space.symbol_set == frozenset(("x1", "x2", "mu1"))
    assert space == Space("s", ("x1", "x2"), ("mu1",)) and "symbol_set" not in repr(space)
    assert space.parse("mu1*x2 + x1") == q("x1 + mu1*x2")


# --------------------------------------------------------------------------
# Term budget


def test_product_beyond_the_term_budget_is_refused():
    wide = nf_add(*(q(f"x1^{k}") for k in range(1, 101)))
    narrow = nf_add(*(q(f"x2^{k}") for k in range(1, MAX_TERMS // 100 + 1)))
    assert len(nf_mul(wide, narrow).terms) == MAX_TERMS
    with pytest.raises(ExprError, match="budget"):
        nf_mul(wide, nf_add(narrow, q("x3")))
    # a constant factor only scales
    assert nf_mul(q("2"), nf_mul(wide, narrow)) == nf_scale(nf_mul(wide, narrow), 2)


@pytest.mark.parametrize("t, k", [(2, 1), (2, 5), (3, 4), (5, 2), (4, 30), (2, MAX_TERMS - 1)])
def test_power_terms_bound_is_the_multinomial_count(t, k):
    exact, bound = comb(t + k - 1, k), _power_terms_bound(t, k)
    assert bound == exact if exact <= MAX_TERMS else MAX_TERMS < bound <= exact


@pytest.mark.parametrize("text, exponent", [("x1 + x2", MAX_TERMS), ("x1 + x2 + x3", 200),
                                            ("x1 + x2", 10**30)])
def test_power_beyond_the_term_budget_is_refused_before_multiplying(monkeypatch, text, exponent):
    base = q(text)

    def no_multiplication(a, b):
        raise AssertionError("nf_pow multiplied before checking its bound")

    monkeypatch.setattr(expr_module, "nf_mul", no_multiplication)
    with pytest.raises(ExprError, match="budget"):
        nf_pow(base, exponent)


def test_power_within_its_bound_is_refused_by_the_product_rule():
    """``(x1 + x2)^8000`` has at most 8001 terms, so ``nf_pow`` starts
    multiplying; the squaring of the 129-term power is the product refused."""
    assert _power_terms_bound(2, 8000) == 8001 <= MAX_TERMS
    with pytest.raises(ExprError, match="^product of 16641 term products exceeds the budget "
                                        "of 10000 term products$"):
        nf_pow(q("x1 + x2"), 8000)


def test_power_within_the_budget_and_one_term_powers():
    assert nf_pow(q("x1 + 1"), 3) == q("x1^3 + 3*x1^2 + 3*x1 + 1")
    assert nf_pow(q("-2/3*x1*sin(x2)"), 3) == q("-8/27*x1^3*sin(x2)^3")
    big = nf_pow(q("x1"), 10**6)
    assert big.terms[0][0] == (((0, "x1"), 10**6),) and big.terms[0][1] == 1
    big = nf_pow(q("2*x1"), MAX_COEFF_BITS // 2)
    assert big.terms[0][0] == (((0, "x1"), MAX_COEFF_BITS // 2),)
    assert big.terms[0][1] == 2 ** (MAX_COEFF_BITS // 2)


# --------------------------------------------------------------------------
# Exact division


def test_divide_exact():
    num = q("x1^2*x2 + x1*x2^2")
    den = q("x1*x2")
    quotient = nf_divide(num, den)
    assert quotient == q("x1 + x2")


def test_divide_by_constant():
    num = q("2*x1 + 4")
    den = q("2")
    assert nf_divide(num, den) == q("x1 + 2")


def test_divide_not_divisible():
    assert nf_divide(q("x1 + 1"), q("x2")) is None


def test_divide_with_trig_atoms():
    num = q("sin(x1)*x2 + sin(x1)")
    den = q("sin(x1)")
    assert nf_divide(num, den) == q("x2 + 1")


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
    nf = q("sin(x1 + 1/2)")
    ((((kind, payload), e),), c), = nf.terms
    assert payload == q("x1 + 1/2") and (e, c) == (1, 1)
    assert isinstance(payload, NormalForm)


def test_normal_form_is_immutable_and_keeps_its_derived_values():
    nf = q("x1*sin(x2 + cos(x3)) + 1/3")
    with pytest.raises(AttributeError):
        nf.terms = ()
    assert nf.sort_key() is nf.sort_key()
    assert nf.free_symbols() is nf.free_symbols() == {"x1", "x2", "x3"}
    assert hash(nf) == hash(q("1/3 + sin(cos(x3) + x2)*x1"))


def test_integral_coefficients_are_ints():
    nf = q("2*x1 + 1/2*x2 + 1/2*x2 - 3")
    assert [c for _m, c in nf.terms] == [2, 1, -3]
    assert [type(c) for _m, c in nf.terms] == [int, int, int]
    assert nf_scale(q("3/2*x1"), Fraction(2, 3)).terms[0][1] == 1


@pytest.mark.parametrize("text", ["0", "7", "-2/3", "4/2"])
def test_constant_value_is_a_fraction(text):
    value = q(text).constant_value()
    assert type(value) is Fraction and value == parse_rational(text)
    assert type(NF_ONE.constant_value()) is Fraction


def test_divide_keeps_denominators_exact():
    num = q("1/3*x1*x2 + 1/3*x1")
    assert nf_divide(num, q("3*x1")) == q("1/9*x2 + 1/9")
    third = nf_divide(q("x1"), q("3"))
    assert third.terms[0][1] == Fraction(1, 3) and type(third.terms[0][1]) is Fraction


_rational_forms = polynomials(symbols=("x1", "x2", "x3"), trig=True)


@settings(max_examples=60, deadline=None)
@given(_rational_forms, _rational_forms, _rational_forms)
def test_kernel_results_are_canonical(a, b, c):
    for nf in (a, nf_add(a, b), nf_mul(a, b), nf_pow(c, 3), differentiate(nf_mul(a, c), "x1"),
               nf_scale(a, Fraction(3, 2)), nf_neg(b),
               substitute(a, {"x2": c, "x3": b}),
               nf_sum_of_products((1, a, b), (-1, b, c), (1, c, NF_ONE))):
        _assert_canonical(nf)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_cases(2).map(_built), _rational_forms))
def test_render_parse_round_trip_keeps_equality_and_hash(nf):
    back = parse_expr(render(nf), SYMS)
    assert back == nf and hash(back) == hash(nf)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), _rational_forms, _rational_forms),
                min_size=1, max_size=4))
def test_sum_of_products_equals_sum_of_signed_products(products):
    expected = nf_add(*(nf_mul(a, b) if sign > 0 else nf_neg(nf_mul(a, b))
                        for sign, a, b in products))
    assert nf_sum_of_products(*products) == expected


@settings(max_examples=60, deadline=None)
@given(polynomials(symbols=("x1", "x2", "x3")), polynomials(symbols=("x1", "x2", "x3")))
def test_divide_recovers_a_rational_factor(a, b):
    if b.is_zero():
        return
    quotient = nf_divide(nf_mul(a, b), b)
    assert quotient == a
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


@settings(max_examples=60, deadline=None)
@given(polynomials(symbols=("x1", "x2", "x3")), st.sampled_from(("x1", "x2", "x3")))
def test_antiderivative_inverts_the_derivative_from_zero(f, x):
    F = nf_antiderivative(f, x)
    assert differentiate(F, x) == f
    assert substitute(F, {x: NF_ZERO}) == NF_ZERO
    _assert_canonical(F)


def test_antiderivative_refuses_trig():
    with pytest.raises(ExprError, match="non-polynomial"):
        nf_antiderivative(q("x2*sin(x1)"), "x2")


def _reference_solve_gamma(chi):
    """The radial homotopy as a sum of products: each term c m dx^I of
    coordinate degree d becomes the one-term normal form c / (k + d) m, and
    every output coefficient is one ``nf_sum_of_products`` over the products
    +-x^(i_j) * (c / (k + d) m)."""
    space = chi.space
    k = chi.degree
    coords = set(space.coordinates)
    position_nf = [space.parse(c) for c in space.coordinates]
    acc = {}
    for K, c in chi.nfs.items():
        for mono, coeff in c.terms:
            coord_degree = sum(e for (kind, payload), e in mono
                               if kind == _SYM and payload in coords)
            term = nf_term(mono, Fraction(coeff, k + coord_degree))
            for j, pos in enumerate(index_positions(K)):
                acc.setdefault(K ^ (1 << pos), []).append(
                    (-1 if j % 2 else 1, position_nf[pos], term))
    return DiffForm(space, k - 1, {K: nf_sum_of_products(*products)
                                   for K, products in acc.items()})


@st.composite
def _closed_forms(draw):
    """chi = d(alpha) on R3 to R5, alpha of any degree below n, with
    Fraction coefficients over the coordinates and the parameters a and b,
    which do not count towards a monomial's coordinate degree."""
    n = draw(st.integers(3, 5))
    coords = tuple(f"x{i}" for i in range(1, n + 1))
    space = Space(f"r{n}", coords, ("a", "b"))
    degree = draw(st.integers(0, n - 1))
    indices = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), degree))),
                            min_size=1, max_size=3, unique=True))
    return exterior_derivative(DiffForm(space, degree, {
        idx: draw(polynomials(symbols=coords + ("a", "b"), max_terms=4)) for idx in indices}))


@settings(max_examples=150, deadline=None)
@given(_closed_forms())
def test_solve_gamma_matches_the_radial_reference_up_to_a_closed_form(chi):
    gamma = solve_gamma(chi)
    assert exterior_derivative(gamma) == chi
    assert exterior_derivative(gamma - _reference_solve_gamma(chi)).is_zero_form
    # the first coordinate leaves every index at the first step
    assert not any(K & 1 for K in gamma.nfs)
    for nf in gamma.nfs.values():
        _assert_canonical(nf)


def test_solve_gamma_multiplies_no_normal_forms(monkeypatch):
    space = Space("r4", ("x1", "x2", "x3", "x4"), ("a",))
    chi = exterior_derivative(DiffForm(space, 2, {
        (0, 1): space.parse("a*x3^2*x4 - 1/3*x1"),
        (1, 3): space.parse("x1*x2*x3 + 2/5*a"),
        (2, 3): space.parse("a^2*x1*x2 - 7*x4^3"),
    }))
    # chi = 2a x3 x4 dx123 + (a x3^2 + x2 x3) dx124 + a^2 x2 dx134
    # + (a^2 x1 - x1 x2) dx234: the components in dx1 integrate in x1, and
    # dx234 vanishes at x1 = 0
    want = DiffForm(space, 2, {
        (1, 2): space.parse("2*a*x1*x3*x4"),
        (1, 3): space.parse("a*x1*x3^2 + x1*x2*x3"),
        (2, 3): space.parse("a^2*x1*x2"),
    })
    # the closure check differentiates chi's coefficients, which keep their
    # derivatives: taken here, they are not taken again inside solve_gamma
    assert exterior_derivative(chi).is_zero_form

    def refuse(*_args):
        raise AssertionError("the one-axis homotopy multiplied normal forms")

    monkeypatch.setattr(expr_module, "_int_sum", refuse)
    monkeypatch.setattr(expr_module, "nf_sum_of_products", refuse)
    monkeypatch.setattr(liouville_module, "nf_sum_of_products", refuse)
    gamma = solve_gamma(chi)
    assert gamma == want


# --------------------------------------------------------------------------
# The integer product kernel against the Fraction reference


def _reference_freeze(acc):
    """The kernel's output step before integer views: drop zeros, store
    integral coefficients as ints, sort the terms canonically."""
    items = [(m, c if type(c) is int or c.denominator != 1 else c.numerator)
             for m, c in acc.items() if c]
    items.sort(key=lambda term: (-sum(e for _a, e in term[0]), term[0]))
    return NormalForm(tuple(items))


def _reference_mono_mul(m1, m2):
    exps = dict(m1)
    for atom, e in m2:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items()))


def _accumulate_product(acc, sign, a, b):
    """One Fraction (or int) product per pair of terms, summed into ``acc``."""
    for m1, c1 in a.terms:
        if sign < 0:
            c1 = -c1
        for m2, c2 in b.terms:
            m = _reference_mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2


def _reference_sum_of_products(*products):
    acc = {}
    for sign, a, b in products:
        _accumulate_product(acc, sign, a, b)
    return _reference_freeze(acc)


def _reference_add(*forms):
    return _reference_sum_of_products(*((1, f, NF_ONE) for f in forms))


def _reference_diff(nf, v):
    """Power rule on symbols, chain rule through sin/cos, in Fractions."""
    acc = {}
    for m, c in nf.terms:
        for i, (atom, e) in enumerate(m):
            kind, payload = atom
            if kind == 0 and payload != v:
                continue
            rest = m[:i] + ((atom, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
            if kind == 0:
                acc[rest] = acc.get(rest, 0) + c * e
                continue
            du = _reference_diff(payload, v)
            outer = (2 if kind == 1 else 1, payload)
            term = NormalForm(((_reference_mono_mul(rest, ((outer, 1),)), c * e),))
            _accumulate_product(acc, 1 if kind == 1 else -1, term, du)
    return _reference_freeze(acc)


_KERNEL_ATOMS = tuple(q(text).terms[0][0][0][0]
                      for text in ("x1", "x2", "x3", "sin(x1)", "cos(x2 + 1/3)",
                                   "sin(2*x1 - 3/7*x3*cos(x2))"))


@st.composite
def _kernel_forms(draw, max_terms=4):
    """Canonical normal forms with denominators up to 7 and trig atoms,
    nested ones included; sometimes a constant such as 1 or -1."""
    if draw(st.integers(0, 5)) == 0:
        return q(draw(st.sampled_from(("0", "1", "-1", "7", "-2/7"))))
    acc = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = {}
        for atom in draw(st.lists(st.sampled_from(_KERNEL_ATOMS), max_size=3)):
            exps[atom] = exps.get(atom, 0) + draw(st.integers(1, 3))
        m = tuple(sorted(exps.items()))
        acc[m] = acc.get(m, 0) + Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
    return _reference_freeze(acc)


def _assert_same_terms(got, want):
    assert got.terms == want.terms
    assert [type(c) for _m, c in got.terms] == [type(c) for _m, c in want.terms]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), _kernel_forms(), _kernel_forms()),
                min_size=1, max_size=4))
def test_kernel_equals_the_fraction_reference_term_for_term(products):
    _assert_same_terms(nf_sum_of_products(*products), _reference_sum_of_products(*products))
    for _sign, a, b in products:
        _assert_same_terms(nf_mul(a, b), _reference_sum_of_products((1, a, b)))
        for v in ("x1", "x2", "x3"):
            _assert_same_terms(differentiate(a, v), _reference_diff(a, v))
    forms = [f for _sign, a, b in products for f in (a, b)]
    _assert_same_terms(nf_add(*forms), _reference_add(*forms))
    _assert_same_terms(nf_add(forms[0]), _reference_add(forms[0]))
    assert nf_add(forms[0]) is forms[0]
    for nf in forms:
        _assert_canonical(nf)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), _kernel_forms(), _kernel_forms()),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=6))
def test_commuted_and_negated_copies_equal_the_fraction_reference(products, copies):
    """Each copy of a drawn product is ``(s, b, a)``, ``(-s, -a, b)`` or
    ``(s, -b, -a)``: commuted, negated, or both."""
    products = list(products)
    for index, how in copies:
        s, a, b = products[index % len(products)]
        products.append((s, b, a) if how == 0 else (-s, nf_neg(a), b) if how == 1
                        else (s, nf_neg(b), nf_neg(a)))
    _assert_same_terms(nf_sum_of_products(*products), _reference_sum_of_products(*products))


def test_sum_of_products_is_refused_on_its_raw_term_pairs(monkeypatch):
    """Commuted products are counted like any others, so a sum whose
    products would cancel is refused before anything is multiplied."""
    wide = q(" + ".join(f"x1^{k}" for k in range(1, 101)))
    other = q(" + ".join(f"x2^{k}" for k in range(1, 101)))
    assert len(wide.terms) * len(other.terms) == MAX_TERMS

    def fail(m1, m2):
        raise AssertionError("multiplied a sum over the budget")

    monkeypatch.setattr(expr_module, "_mono_mul", fail)
    with pytest.raises(ExprError, match="sum of 2 products of 20000 term products exceeds "
                                        "the budget"):
        nf_sum_of_products((1, wide, other), (-1, other, wide))


def test_int_view_scales_coefficients_to_their_lcm():
    nf = q("1/2*x1 + 2/3*x2 + 5")
    D, pairs = nf.int_view()
    assert D == 6 and [n for _m, n in pairs] == [3, 4, 30]
    assert [m for m, _n in pairs] == [m for m, _c in nf.terms]
    integral = q("2*x1 - 3")
    assert integral.int_view() == (1, integral.terms)


def test_unit_side_returns_the_other_operand_itself():
    a = q("2/3*x1*sin(x2) - x3")
    one, minus_one = q("1"), q("-1")
    assert nf_mul(one, a) is a and nf_mul(a, NF_ONE) is a
    assert nf_sum_of_products((1, one, a)) is a and nf_sum_of_products((1, a, NF_ONE)) is a
    assert nf_sum_of_products((-1, minus_one, a)) is a and nf_sum_of_products((-1, a, minus_one)) is a
    negated = nf_sum_of_products((1, minus_one, a))
    assert negated == nf_neg(a) == nf_mul(a, minus_one) == nf_sum_of_products((-1, one, a))
    # a negation keeps the free symbols already computed
    symbols = a.free_symbols()
    assert nf_neg(a).free_symbols() is symbols


def _product_outcome(entry, a, b):
    try:
        return entry(a, b)
    except ExprError as exc:
        return str(exc)


_ONE_PRODUCT_ENTRIES = (nf_mul, lambda a, b: nf_sum_of_products((1, a, b)))


def test_nf_mul_is_the_one_product_case_of_the_sum_of_products():
    a = q("2/3*x1*sin(x2) - x3")
    b = q("-1/7*x2^2*cos(x1 + x3) + x1 + 5")
    wide = q(" + ".join(f"x1^{k}" for k in range(1, 101)))
    wider = nf_add(wide, q("x2"))
    cases = [(a, b), (b, a), (wide, wide), (q("3/4"), a), (a, q("-2")), (q("x2"), wide),
             (wide, wider), (wider, wide)]
    for x, y in cases:
        got, want = (_product_outcome(entry, x, y) for entry in _ONE_PRODUCT_ENTRIES)
        if isinstance(want, str):
            assert got == want and "budget of 10000 term products" in want
        else:
            _assert_same_terms(got, want)
    for entry in _ONE_PRODUCT_ENTRIES:
        # the shortcuts return the same objects through either entry
        assert entry(NF_ZERO, a) is NF_ZERO and entry(a, NF_ZERO) is NF_ZERO
        assert entry(NF_ONE, a) is a and entry(a, q("1")) is a
        assert entry(q("-1"), a) == nf_neg(a)


def test_a_constant_side_is_a_scaling_outside_the_term_budget():
    big = nf_add(*(nf_term((((_SYM, "x1"), k),), 1) for k in range(1, MAX_TERMS + 2)))
    assert len(big.terms) == MAX_TERMS + 1
    for entry in _ONE_PRODUCT_ENTRIES:
        assert entry(q("2"), big) == nf_scale(big, 2)
        assert entry(big, q("-3/2")) == nf_scale(big, Fraction(-3, 2))
        assert entry(NF_ONE, big) is big
    # in a sum too, a product with a constant side is not counted
    got = nf_sum_of_products((1, q("2"), big), (1, q("x2"), q("x3")))
    assert got == nf_add(nf_scale(big, 2), q("x2*x3"))
    with pytest.raises(ExprError, match="budget"):
        nf_mul(q("x2"), big)


def test_sum_of_products_beyond_the_term_budget_is_refused_before_multiplying(monkeypatch):
    wide = q(" + ".join(f"x1^{k}" for k in range(1, 101)))
    assert len(wide.terms) == 100 and MAX_TERMS == 100 * 100

    def fail(products):
        raise AssertionError("multiplied a sum of products beyond the budget")

    wider = nf_add(wide, q("x2"))
    with monkeypatch.context() as patched:
        patched.setattr(expr_module, "_int_sum", fail)
        with pytest.raises(ExprError, match="^sum of 2 products of 10001 term products "
                                            "exceeds the budget of 10000 term products$"):
            nf_sum_of_products((1, wide, wide), (1, q("x2"), q("x3")))
        with pytest.raises(ExprError, match="^product of 10100 term products "
                                            "exceeds the budget of 10000 term products$"):
            nf_sum_of_products((1, wide, wider))
    assert len(nf_sum_of_products((1, wide, wide)).terms) == 199


def test_power_of_a_one_term_base_beyond_the_coefficient_budget_is_refused():
    with pytest.raises(ExprError, match=f"budget of {MAX_COEFF_BITS} bits"):
        q("(2*x1)^20000")
    with pytest.raises(ExprError, match="budget"):
        nf_pow(q("1/3*x2"), MAX_COEFF_BITS)
    # a unit coefficient stays a unit whatever the power
    assert nf_pow(q("-x1"), 100001) == q("-1*x1^100001")


def test_coefficient_too_large_for_a_float_is_refused_by_the_emitter():
    with pytest.raises(ExprError, match="too large for a float"):
        nf_program([q("7" * 401 + "*x2")], {"x2": "s[0]"})
    with pytest.raises(ExprError, match="too large for a float"):
        nf_program([q("7" * 401 + "/3")], {})
    # in a sin/cos argument, written as a local
    with pytest.raises(ExprError, match="too large for a float"):
        nf_program([q("x2"), q("sin(7" + "7" * 400 + "/3)")], {"x2": "s[0]"})
    # a large numerator over a large denominator is a representable float
    assert nf_program([q("7" * 401 + "/" + "3" * 401)], {}) == ([], [repr(float(Fraction(7, 3)))])
