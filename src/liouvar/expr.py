"""Exact scalar-expression algebra: rationals plus sin/cos atoms.

Expressions are immutable trees built from rational constants, named
symbols, sums, products, positive integer powers, sine and cosine.  A
canonical sum-of-monomials normal form makes equality decidable for the
polynomial subring; expressions containing trigonometric atoms fall back
to a seeded probabilistic zero test whose parameters are fixed and
reported alongside every verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping

Rational = Fraction

EXACT = "exact"
PROBABILISTIC = "probabilistic"


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredSymbolError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"undeclared identifier '{name}'", position)
        self.name = name


class UnboundSymbolError(ExprError):
    pass


class DivisionError(ExprError):
    pass


# --------------------------------------------------------------------------
# Expression tree


class ScalarExpr:
    """Immutable expression node; arithmetic operators build new trees."""

    __slots__ = ()

    def __add__(self, other):
        other = _coerce_operand(other)
        return Sum((self, other)) if other is not None else NotImplemented

    def __radd__(self, other):
        other = _coerce_operand(other)
        return Sum((other, self)) if other is not None else NotImplemented

    def __sub__(self, other):
        other = _coerce_operand(other)
        return Sum((self, Neg(other))) if other is not None else NotImplemented

    def __rsub__(self, other):
        other = _coerce_operand(other)
        return Sum((other, Neg(self))) if other is not None else NotImplemented

    def __mul__(self, other):
        other = _coerce_operand(other)
        return Product((self, other)) if other is not None else NotImplemented

    def __rmul__(self, other):
        other = _coerce_operand(other)
        return Product((other, self)) if other is not None else NotImplemented

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent: int):
        return Power(self, exponent)

    def free_symbols(self) -> frozenset[str]:
        raise NotImplementedError

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Const(ScalarExpr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

    def free_symbols(self):
        return frozenset()


@dataclass(frozen=True, slots=True)
class Symbol(ScalarExpr):
    name: str

    def free_symbols(self):
        return frozenset((self.name,))


@dataclass(frozen=True, slots=True)
class Sum(ScalarExpr):
    terms: tuple[ScalarExpr, ...]

    def free_symbols(self):
        return frozenset().union(*(t.free_symbols() for t in self.terms)) if self.terms else frozenset()


@dataclass(frozen=True, slots=True)
class Product(ScalarExpr):
    factors: tuple[ScalarExpr, ...]

    def free_symbols(self):
        return frozenset().union(*(f.free_symbols() for f in self.factors)) if self.factors else frozenset()


@dataclass(frozen=True, slots=True)
class Power(ScalarExpr):
    base: ScalarExpr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise ExprError(f"power exponent must be a positive integer, got {self.exponent!r}")

    def free_symbols(self):
        return self.base.free_symbols()


@dataclass(frozen=True, slots=True)
class Sin(ScalarExpr):
    arg: ScalarExpr

    def free_symbols(self):
        return self.arg.free_symbols()


@dataclass(frozen=True, slots=True)
class Cos(ScalarExpr):
    arg: ScalarExpr

    def free_symbols(self):
        return self.arg.free_symbols()


@dataclass(frozen=True, slots=True)
class Neg(ScalarExpr):
    arg: ScalarExpr

    def free_symbols(self):
        return self.arg.free_symbols()


def _coerce_operand(value) -> ScalarExpr | None:
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    return None


def as_expr(value) -> ScalarExpr:
    coerced = _coerce_operand(value)
    if coerced is None:
        raise ExprError(f"cannot interpret {value!r} as a scalar expression")
    return coerced


def add_all(terms: Iterable[ScalarExpr]) -> ScalarExpr:
    terms = tuple(as_expr(t) for t in terms)
    if not terms:
        return Const(Fraction(0))
    if len(terms) == 1:
        return terms[0]
    return Sum(terms)


def mul_all(factors: Iterable[ScalarExpr]) -> ScalarExpr:
    factors = tuple(as_expr(f) for f in factors)
    if not factors:
        return Const(Fraction(1))
    if len(factors) == 1:
        return factors[0]
    return Product(factors)


# --------------------------------------------------------------------------
# Normal form: sum of monomials over atoms (symbols, sin(.), cos(.))

_SYM, _SIN, _COS = 0, 1, 2

# Atom encodings: (_SYM, name) | (_SIN, arg) | (_COS, arg) where arg is the
# NormalForm of the argument.  Monomials are tuples of (atom, exponent)
# sorted by atom; a NormalForm holds a sorted tuple of (monomial,
# coefficient).  A coefficient is an int when it is integral and a Fraction
# otherwise, never a float and never zero.

_exponent = itemgetter(1)
_set = object.__setattr__


def _atom_sort_key(atom):
    kind, payload = atom
    return atom if kind == _SYM else (kind, payload.sort_key())


def _monomial_sort_key(monomial):
    return (-sum(map(_exponent, monomial)), tuple((_atom_sort_key(a), e) for a, e in monomial))


def _terms_sort_key(terms):
    return tuple((_monomial_sort_key(m), (c.numerator, c.denominator)) for m, c in terms)


def _term_order(term):
    """Canonical order of the terms of a normal form: by descending degree,
    then by the monomial, whose atoms compare by their sort keys."""
    monomial = term[0]
    return (-sum(map(_exponent, monomial)), monomial)


def _coeff(c):
    """``c`` as stored: an int when integral, else a Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class NormalForm:
    """Canonical representation: pairwise-distinct monomials, no zeros.

    Immutable.  Its hash, its canonical sort key and its free symbols are
    computed on first use and kept on the object, so a normal form that is
    the argument of a sin/cos atom is hashed and ordered once.  Normal forms
    are ordered by their sort keys, which is the order of atoms inside a
    monomial.
    """

    __slots__ = ("terms", "_hash", "_key", "_symbols")

    def __init__(self, terms: tuple):
        _set(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("NormalForm is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self.terms))
            return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"NormalForm(terms={self.terms!r})"

    def sort_key(self) -> tuple:
        """Canonical order key, computed once."""
        try:
            return self._key
        except AttributeError:
            _set(self, "_key", _terms_sort_key(self.terms))
            return self._key

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0][0]:
            return Fraction(self.terms[0][1])
        raise ExprError("normal form is not constant")

    def has_trig(self) -> bool:
        return any(kind != _SYM for m, _ in self.terms for (kind, _p), _e in m)

    def free_symbols(self) -> frozenset[str]:
        """Names of the symbols in the terms and in sin/cos arguments,
        computed once."""
        try:
            return self._symbols
        except AttributeError:
            pass
        out: set[str] = set()
        for m, _ in self.terms:
            for (kind, payload), _e in m:
                if kind == _SYM:
                    out.add(payload)
                else:
                    out |= payload.free_symbols()
        _set(self, "_symbols", frozenset(out))
        return self._symbols


def _freeze(acc: dict) -> NormalForm:
    # drops the zeros and stores each coefficient as ``_coeff`` does, inline
    items = [(m, c if type(c) is int or c.denominator != 1 else c.numerator)
             for m, c in acc.items() if c]
    items.sort(key=_term_order)
    return NormalForm(tuple(items))


def _acc_add(acc: dict, monomial, coeff) -> None:
    prev = acc.get(monomial)
    acc[monomial] = coeff if prev is None else prev + coeff


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for atom, e in m2:
        prev = exps.get(atom)
        exps[atom] = e if prev is None else prev + e
    return tuple(sorted(exps.items()))


def nf_term(monomial, coeff) -> NormalForm:
    """The one-term normal form ``coeff * monomial``; zero when coeff is 0."""
    return NormalForm(((monomial, _coeff(coeff)),)) if coeff else NF_ZERO


def nf_add(*forms: NormalForm) -> NormalForm:
    """Sum of any number of normal forms, sorted once."""
    acc: dict = {}
    for f in forms:
        for m, c in f.terms:
            _acc_add(acc, m, c)
    return _freeze(acc)


def nf_neg(a: NormalForm) -> NormalForm:
    return NormalForm(tuple((m, -c) for m, c in a.terms))


def nf_scale(a: NormalForm, factor) -> NormalForm:
    """``factor * a`` for a rational factor (an int or a Fraction)."""
    if factor == 0:
        return NF_ZERO
    if factor == 1:
        return a
    return NormalForm(tuple((m, _coeff(c * factor)) for m, c in a.terms))


def _accumulate_product(acc: dict, sign: int, a: NormalForm, b: NormalForm) -> None:
    get = acc.get
    for m1, c1 in a.terms:
        if sign < 0:
            c1 = -c1
        for m2, c2 in b.terms:
            m = _mono_mul(m1, m2)
            prev = get(m)
            acc[m] = c1 * c2 if prev is None else prev + c1 * c2


def nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    if a.is_constant():
        return nf_scale(b, a.terms[0][1]) if a.terms else NF_ZERO
    if b.is_constant():
        return nf_scale(a, b.terms[0][1]) if b.terms else NF_ZERO
    acc: dict = {}
    _accumulate_product(acc, 1, a, b)
    return _freeze(acc)


def nf_sum_of_products(*products: tuple[int, NormalForm, NormalForm]) -> NormalForm:
    """Sum of ``sign * a * b`` over ``(sign, a, b)`` triples, sign +1 or -1.

    Every product is accumulated into one dict and the sum is sorted once,
    where ``nf_add`` of ``nf_mul`` results would sort every product and
    then the sum again.
    """
    acc: dict = {}
    for sign, a, b in products:
        _accumulate_product(acc, sign, a, b)
    return _freeze(acc)


def nf_pow(a: NormalForm, exponent: int) -> NormalForm:
    """Binary powering, exponent >= 1."""
    result = None
    base = a
    while True:
        if exponent & 1:
            result = base if result is None else nf_mul(result, base)
        exponent >>= 1
        if not exponent:
            return result
        base = nf_mul(base, base)


NF_ZERO = NormalForm(())
NF_ONE = NormalForm((((), 1),))


def _trig_nf(kind: int, arg: NormalForm) -> NormalForm:
    """sin(arg) or cos(arg) as a normal form; sin(0) = 0 and cos(0) = 1."""
    if arg.is_zero():
        return NF_ZERO if kind == _SIN else NF_ONE
    return NormalForm((((((kind, arg), 1),), 1),))


def normal_form(e: ScalarExpr) -> NormalForm:
    if isinstance(e, Const):
        return nf_term((), e.value)
    if isinstance(e, Symbol):
        return NormalForm((((((_SYM, e.name), 1),), 1),))
    if isinstance(e, Sum):
        return nf_add(*(normal_form(t) for t in e.terms))
    if isinstance(e, Product):
        if not e.factors:
            return NF_ONE
        acc = normal_form(e.factors[0])
        for f in e.factors[1:]:
            acc = nf_mul(acc, normal_form(f))
        return acc
    if isinstance(e, Power):
        return nf_pow(normal_form(e.base), e.exponent)
    if isinstance(e, Neg):
        return nf_neg(normal_form(e.arg))
    if isinstance(e, Sin):
        return _trig_nf(_SIN, normal_form(e.arg))
    if isinstance(e, Cos):
        return _trig_nf(_COS, normal_form(e.arg))
    raise ExprError(f"unknown expression node {type(e).__name__}")


def as_normal_form(value) -> NormalForm:
    """``value`` itself when it is a normal form, else the normal form of
    the expression (or rational) it denotes."""
    return value if isinstance(value, NormalForm) else normal_form(as_expr(value))


def _atom_expr(atom) -> ScalarExpr:
    kind, payload = atom
    if kind == _SYM:
        return Symbol(payload)
    arg = from_normal(payload)
    return Sin(arg) if kind == _SIN else Cos(arg)


def from_normal(nf: NormalForm) -> ScalarExpr:
    if not nf.terms:
        return Const(Fraction(0))
    terms = []
    for m, c in nf.terms:
        factors: list[ScalarExpr] = []
        if c != 1 or not m:
            factors.append(Const(c))
        for atom, e in m:
            base = _atom_expr(atom)
            factors.append(base if e == 1 else Power(base, e))
        terms.append(mul_all(factors))
    return add_all(terms)


def normalize(e: ScalarExpr) -> ScalarExpr:
    """Canonical rebuild; normalize(normalize(e)) is structurally stable."""
    return from_normal(normal_form(e))


# --------------------------------------------------------------------------
# Differentiation (partial; any symbol other than the target is constant)


def nf_diff(nf: NormalForm, v: str) -> NormalForm:
    """Partial derivative taken monomial by monomial.

    Symbol atoms follow the power rule; sin(u) and cos(u) follow the chain
    rule, d sin(u) = cos(u) du and d cos(u) = -sin(u) du.
    """
    if v not in nf.free_symbols():
        return NF_ZERO
    acc: dict = {}
    for m, c in nf.terms:
        for i, (atom, e) in enumerate(m):
            kind, payload = atom
            if kind == _SYM and payload != v:
                continue
            rest = m[:i] + ((atom, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
            if kind == _SYM:
                _acc_add(acc, rest, c * e)
                continue
            du = nf_diff(payload, v)
            if du.is_zero():
                continue
            if kind == _SIN:
                outer, sign = (_COS, payload), 1
            else:
                outer, sign = (_SIN, payload), -1
            _accumulate_product(acc, sign, nf_term(_mono_mul(rest, ((outer, 1),)), c * e), du)
    return _freeze(acc)


def differentiate(e: ScalarExpr, v: str) -> ScalarExpr:
    """Exact partial derivative with respect to the coordinate ``v``."""
    return from_normal(nf_diff(normal_form(e), v))


# --------------------------------------------------------------------------
# Evaluation (the tree reference) and substitution


def evaluate(e: ScalarExpr, bindings: Mapping[str, float]) -> float:
    """IEEE-double evaluation of a tree, left-to-right association.

    The reference that the compiled normal-form evaluator is tested against.
    """
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Symbol):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol '{e.name}'") from None
    if isinstance(e, Sum):
        total = 0.0
        for t in e.terms:
            total += evaluate(t, bindings)
        return total
    if isinstance(e, Product):
        total = 1.0
        for f in e.factors:
            total *= evaluate(f, bindings)
        return total
    if isinstance(e, Power):
        return evaluate(e.base, bindings) ** e.exponent
    if isinstance(e, Sin):
        return math.sin(evaluate(e.arg, bindings))
    if isinstance(e, Cos):
        return math.cos(evaluate(e.arg, bindings))
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    raise ExprError(f"unknown expression node {type(e).__name__}")


def substitute(nf: NormalForm, mapping: Mapping[str, NormalForm]) -> NormalForm:
    """Simultaneous substitution of symbols by normal forms."""
    if mapping.keys().isdisjoint(nf.free_symbols()):
        return nf
    terms = []
    for m, c in nf.terms:
        kept = tuple((atom, e) for atom, e in m if atom[0] == _SYM and atom[1] not in mapping)
        term = NormalForm(((kept, c),))
        for (kind, payload), e in m:
            if kind != _SYM:
                image = _trig_nf(kind, substitute(payload, mapping))
            elif payload in mapping:
                image = mapping[payload]
            else:
                continue
            term = nf_mul(term, nf_pow(image, e))
        terms.append(term)
    return nf_add(*terms)


# --------------------------------------------------------------------------
# Numeric code generation: the one evaluator of normal forms


def nf_term_sources(nf: NormalForm, symbols: Mapping[str, str]) -> list[str]:
    """Python source of each term of ``nf``, evaluated in IEEE doubles.

    A term reads ``c * atom * (atom)**e * ...`` left to right, without the
    factor ``c`` when it is 1; sin/cos atoms call ``math.sin``/``math.cos``
    on the ``nf_source`` of their argument.  ``symbols`` maps each free
    symbol to the source of its value.  A raised atom is parenthesised, so
    a negative literal such as ``-1.0`` is raised as a whole.
    """
    out = []
    for m, c in nf.terms:
        factors = [repr(float(c))] if c != 1 or not m else []
        for (kind, payload), e in m:
            if kind == _SYM:
                try:
                    base = symbols[payload]
                except KeyError:
                    raise UnboundSymbolError(f"unbound symbol '{payload}'") from None
            else:
                name = "math.sin(" if kind == _SIN else "math.cos("
                base = name + nf_source(payload, symbols) + ")"
            factors.append(base if e == 1 else f"({base})**{e}")
        out.append(factors[0] if len(factors) == 1 else "(" + " * ".join(factors) + ")")
    return out


def nf_source(nf: NormalForm, symbols: Mapping[str, str]) -> str:
    """Python source of ``nf``: its terms summed left to right.

    The sum is written ``(t1 + t2 + ...)``; starting it from the first term
    rather than from 0 keeps the sign of a lone ``-0.0``.
    """
    terms = nf_term_sources(nf, symbols)
    if not terms:
        return "0.0"
    return terms[0] if len(terms) == 1 else "(" + " + ".join(terms) + ")"


def compile_lambda(body: str):
    """``lambda s: <body>`` with ``math`` in scope."""
    return eval(f"lambda s: {body}", {"math": math})


# --------------------------------------------------------------------------
# Zero testing


@dataclass(frozen=True, slots=True)
class ZeroTestConfig:
    """Sampling parameters for the probabilistic zero test."""

    seed: int = 314159
    points: int = 32
    low: float = -2.0
    high: float = 2.0
    rel_tol: float = 1e-9

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "points": self.points,
            "range": [self.low, self.high],
            "rel_tol": self.rel_tol,
        }


DEFAULT_ZERO_TEST = ZeroTestConfig()


@dataclass(frozen=True, slots=True)
class ZeroResult:
    value: bool
    certainty: str


def is_zero(e: ScalarExpr | NormalForm, config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> ZeroResult:
    """Decide whether ``e`` (an expression or its normal form) vanishes identically.

    Exact verdicts come from the normal form alone.  Normal forms that
    contain trigonometric atoms are sampled at ``config.points`` points
    with every free symbol drawn uniformly from [low, high] using the
    fixed seed; the verdict is then tagged probabilistic.  At each point
    the value must stay within ``rel_tol`` times the sum of the absolute
    term values there, so a small nonzero expression is not mistaken for
    rounding error.
    """
    nf = as_normal_form(e)
    if nf.is_zero():
        return ZeroResult(True, EXACT)
    if not nf.has_trig():
        return ZeroResult(False, EXACT)
    rng = random.Random(config.seed)
    symbols = sorted(nf.free_symbols())
    sources = nf_term_sources(nf, {v: f"s[{i}]" for i, v in enumerate(symbols)})
    term_values = compile_lambda("(" + "".join(t + ", " for t in sources) + ")")
    for _ in range(config.points):
        values = term_values([rng.uniform(config.low, config.high) for _ in symbols])
        if abs(sum(values)) > config.rel_tol * sum(abs(v) for v in values):
            return ZeroResult(False, PROBABILISTIC)
    return ZeroResult(True, PROBABILISTIC)


# --------------------------------------------------------------------------
# Exact division (used to normalize annihilator fields)


def _mono_to_vec(m, universe):
    exps = dict(m)
    return tuple(exps.get(a, 0) for a in universe)


def _vec_lead_key(vec):
    return (sum(vec), vec)


def nf_divide(num: NormalForm, den: NormalForm) -> NormalForm | None:
    """Exact division in the atom-polynomial ring; None when not divisible."""
    if den.is_zero():
        raise DivisionError("division by zero normal form")
    if num.is_zero():
        return NF_ZERO
    if den.is_constant():
        return nf_scale(num, Fraction(1, den.terms[0][1]))
    universe = sorted(
        {a for m, _ in num.terms for a, _e in m} | {a for m, _ in den.terms for a, _e in m})
    den_vecs = [(_mono_to_vec(m, universe), c) for m, c in den.terms]
    den_lead_vec, den_lead_c = max(den_vecs, key=lambda t: _vec_lead_key(t[0]))
    rem = {_mono_to_vec(m, universe): c for m, c in num.terms}
    quotient: dict = {}
    while rem:
        lead_vec = max(rem, key=_vec_lead_key)
        lead_c = rem[lead_vec]
        ratio_vec = tuple(a - b for a, b in zip(lead_vec, den_lead_vec))
        if any(x < 0 for x in ratio_vec):
            return None
        ratio_c = Fraction(lead_c, den_lead_c)
        quotient[ratio_vec] = quotient.get(ratio_vec, 0) + ratio_c
        for dv, dc in den_vecs:
            key = tuple(a + b for a, b in zip(ratio_vec, dv))
            value = rem.get(key, 0) - ratio_c * dc
            if value == 0:
                rem.pop(key, None)
            else:
                rem[key] = value
    # the universe is sorted, so each monomial comes out sorted
    return _freeze({tuple((a, e) for a, e in zip(universe, vec) if e): c
                    for vec, c in quotient.items()})


# --------------------------------------------------------------------------
# Rendering (canonical, grammar-compatible)


def _frac_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _atom_str(atom) -> str:
    kind, payload = atom
    if kind == _SYM:
        return payload
    inner = _render_terms(payload.terms)
    return ("sin(" if kind == _SIN else "cos(") + inner + ")"


def _mono_str(coeff_abs: Fraction, monomial, force_coeff: bool) -> str:
    pieces = []
    if force_coeff or coeff_abs != 1 or not monomial:
        pieces.append(_frac_str(coeff_abs))
    for atom, e in monomial:
        piece = _atom_str(atom)
        pieces.append(piece if e == 1 else f"{piece}^{e}")
    return "*".join(pieces)


def _render_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (m, c) in enumerate(terms):
        if i == 0:
            if c < 0:
                # leading unary minus binds tighter than '^', so keep the
                # coefficient explicit: "-1*x^2" rather than "-x^2"
                parts.append("-" + _mono_str(-c, m, force_coeff=True))
            else:
                parts.append(_mono_str(c, m, force_coeff=False))
        else:
            sign = " - " if c < 0 else " + "
            parts.append(sign + _mono_str(abs(c), m, force_coeff=False))
    return "".join(parts)


def render(e: ScalarExpr | NormalForm) -> str:
    """Canonical textual form; re-parsing yields the same normal form."""
    return _render_terms(as_normal_form(e).terms)


# --------------------------------------------------------------------------
# Parsing


_RESERVED = {"sin", "cos"}

# Deepest nesting of parentheses, sin/cos calls and unary minus that the
# parser accepts.  It keeps the recursive parser, the normal form and the
# generated Python source well inside the interpreter's limits.
MAX_NESTING = 32


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("number", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("eof", "", len(text)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, symbols):
        self.toks = _Tokenizer(text)
        self.symbols = frozenset(symbols)
        self.depth = 0

    def parse(self) -> ScalarExpr:
        e = self._expr()
        kind, _val, pos = self.toks.peek()
        if kind != "eof":
            raise ParseError("unexpected trailing input", pos)
        return e

    def _expr(self) -> ScalarExpr:
        terms = [self._term()]
        while True:
            kind, _val, _pos = self.toks.peek()
            if kind == "+":
                self.toks.next()
                terms.append(self._term())
            elif kind == "-":
                self.toks.next()
                terms.append(Neg(self._term()))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def _nested(self, parse, pos: int) -> ScalarExpr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        e = parse()
        self.depth -= 1
        return e

    def _term(self) -> ScalarExpr:
        factors = [self._factor()]
        while self.toks.peek()[0] == "*":
            self.toks.next()
            factors.append(self._factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def _factor(self) -> ScalarExpr:
        atom = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            kind, val, pos = self.toks.next()
            if kind != "number" or int(val) < 1:
                raise ParseError("exponent must be a positive integer", pos)
            return Power(atom, int(val))
        return atom

    def _atom(self) -> ScalarExpr:
        kind, val, pos = self.toks.next()
        if kind == "number":
            numerator = int(val)
            if self.toks.peek()[0] == "/":
                self.toks.next()
                dkind, dval, dpos = self.toks.next()
                if dkind != "number" or int(dval) == 0:
                    raise ParseError("denominator must be a positive integer", dpos)
                return Const(Fraction(numerator, int(dval)))
            return Const(Fraction(numerator))
        if kind == "ident":
            if val in _RESERVED:
                okind, _oval, opos = self.toks.next()
                if okind != "(":
                    raise ParseError(f"expected '(' after {val}", opos)
                arg = self._nested(self._expr, pos)
                ckind, _cval, cpos = self.toks.next()
                if ckind != ")":
                    raise ParseError("expected ')'", cpos)
                return Sin(arg) if val == "sin" else Cos(arg)
            if val not in self.symbols:
                raise UndeclaredSymbolError(val, pos)
            return Symbol(val)
        if kind == "(":
            e = self._nested(self._expr, pos)
            ckind, _cval, cpos = self.toks.next()
            if ckind != ")":
                raise ParseError("expected ')'", cpos)
            return e
        if kind == "-":
            return Neg(self._nested(self._atom, pos))
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse_expr(text: str, symbols: Iterable[str]) -> ScalarExpr:
    """Parse ``text`` against a symbol table of declared identifiers."""
    return _Parser(text, symbols).parse()


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0) into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d <= 0:
            raise ExprError(f"denominator must be positive in {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))
