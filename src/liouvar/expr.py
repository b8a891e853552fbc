"""Exact scalar algebra: rationals plus sin/cos atoms, in one normal form.

A scalar is a ``NormalForm``: a canonical sum of monomials over atoms,
which are symbols and sines and cosines of normal forms.  Equality is
decidable for the polynomial subring; normal forms that contain
trigonometric atoms fall back to a seeded probabilistic zero test whose
parameters are fixed and reported alongside every verdict.  The parser
builds normal forms directly, and ``normal_form`` turns an int or a
Fraction into a constant one.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping

EXACT = "exact"
PROBABILISTIC = "probabilistic"

# Deepest nesting of parentheses, sin/cos calls and unary minus that the
# parser accepts.  It keeps the recursive parser, the normal form and the
# generated Python source well inside the interpreter's limits.
MAX_NESTING = 32

# Term budget of the normal-form kernel, whose products all enter through
# ``nf_sum_of_products`` (``nf_mul`` is its one-product case) and whose
# sums, which have no budget, through ``nf_from_terms``.  The one product
# rule: a sum of products taking more term products than this, counted
# over all its products except those with a constant side, which only
# scale, is refused before anything is multiplied.  ``nf_pow`` refuses a
# power whose multinomial bound on the result's terms is larger, so
# ``(x1 + x2 + x3)^200`` is refused at once; each of its squarings is a
# product under the rule.  The bundled systems and the benchmark ladders
# reach at most 4 term pairs in a product of two non-constant forms, 12 in
# a sum of products and 14 terms in a form.
MAX_TERMS = 10000

# Coefficient budget: ``nf_pow`` refuses to raise a one-term base when the
# power's numerator or denominator could have more bits than this, so that
# an input such as ``(2*x1)^20000`` is refused before it is computed, and
# ``parse_expr`` refuses a result with a wider coefficient, which a product
# of powers within the budget can make.  It is well below the 4300 decimal
# digits (about 14000 bits) that ``str`` converts.  The bundled systems and
# the benchmark ladders reach at most 15 bits in a coefficient.
MAX_COEFF_BITS = 4096


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
    the argument of a sin/cos atom is hashed and ordered once.  So are its
    partial derivatives, by symbol (``differentiate``).  Normal forms are
    ordered by their sort keys, which is the order of atoms inside a
    monomial.
    """

    __slots__ = ("terms", "_hash", "_key", "_symbols", "_derivs")

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

    def int_view(self) -> tuple:
        """``(D, ((monomial, numerator), ...))``: ``D`` is the lcm of the
        coefficient denominators and each numerator is its coefficient
        times ``D``, an int.  With integral coefficients it is
        ``(1, self.terms)``."""
        terms = self.terms
        D = 1
        for _m, c in terms:
            if type(c) is not int:
                D = lcm(D, c.denominator)
        if D == 1:
            return (1, terms)
        return (D, tuple((m, c * D if type(c) is int else c.numerator * (D // c.denominator))
                         for m, c in terms))

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


# the terms of the constants 1 and -1, and the integer view of 1
_ONE_TERMS = (((), 1),)
_MINUS_ONE_TERMS = (((), -1),)
_UNIT_VIEW = (1, _ONE_TERMS)


def _int_sum(products) -> NormalForm:
    """The product accumulator of the kernel (``nf_sum_of_products`` and
    ``differentiate``): the sum of ``sign * a * b`` over
    ``(sign, a, b)``, where ``a`` and ``b`` are integer views (see
    ``NormalForm.int_view``) and ``sign`` is an int.

    The numerators of every product are scaled to the lcm ``L`` of the
    products' denominators and summed as ints; each nonzero sum ``c`` is
    stored once as ``c / L`` in lowest terms, an int when integral.  A
    constant side only scales the other side's numerators.
    """
    L = lcm(*[Da * Db for _s, (Da, _ta), (Db, _tb) in products])
    acc: dict = {}
    get = acc.get
    for sign, (Da, ta), (Db, tb) in products:
        k = sign * (L // (Da * Db))
        if len(tb) == 1 and not tb[0][0]:
            ta, tb = tb, ta
        if len(ta) == 1 and not ta[0][0]:
            f = ta[0][1] * k
            for m, n in tb:
                prev = get(m)
                acc[m] = n * f if prev is None else prev + n * f
            continue
        for m1, n1 in ta:
            n1 *= k
            for m2, n2 in tb:
                m = _mono_mul(m1, m2)
                prev = get(m)
                acc[m] = n1 * n2 if prev is None else prev + n1 * n2
    if L == 1:
        items = [(m, c) for m, c in acc.items() if c]
    else:
        items = []
        for m, c in acc.items():
            if c:
                g = gcd(c, L)
                items.append((m, c // g if g == L else Fraction(c // g, L // g)))
    items.sort(key=_term_order)
    return NormalForm(tuple(items))


def _unit_sign(a: NormalForm) -> int:
    """1 or -1 when ``a`` is that constant, else 0."""
    terms = a.terms
    return 1 if terms == _ONE_TERMS else -1 if terms == _MINUS_ONE_TERMS else 0


def nf_term(monomial, coeff) -> NormalForm:
    """The one-term normal form ``coeff * monomial``; zero when coeff is 0."""
    return NormalForm(((monomial, _coeff(coeff)),)) if coeff else NF_ZERO


def nf_from_terms(terms: Iterable[tuple[tuple, int | Fraction]]) -> NormalForm:
    """The normal form of the sum of ``coeff * monomial`` over ``(monomial,
    coeff)`` pairs with rational coefficients, sorted once.

    The sum accumulator of the kernel: it multiplies nothing, so it adds
    the coefficients in one dict rather than through the integer
    accumulator.  A coefficient whose monomial occurs once is kept as it
    is, only colliding ones are added, and the zeros are dropped.
    """
    acc: dict = {}
    get = acc.get
    for m, c in terms:
        prev = get(m)
        acc[m] = c if prev is None else prev + c
    return _freeze(acc)


def nf_add(*forms: NormalForm) -> NormalForm:
    """Sum of any number of normal forms, by ``nf_from_terms`` over their
    terms; a lone form is returned itself."""
    return forms[0] if len(forms) == 1 else nf_from_terms([t for f in forms for t in f.terms])


def nf_neg(a: NormalForm) -> NormalForm:
    """``-a``; it keeps ``a``'s free symbols when they are computed."""
    out = NormalForm(tuple((m, -c) for m, c in a.terms))
    symbols = getattr(a, "_symbols", None)
    if symbols is not None:
        _set(out, "_symbols", symbols)
    return out


def nf_scale(a: NormalForm, factor) -> NormalForm:
    """``factor * a`` for a rational factor (an int or a Fraction)."""
    if factor == 0:
        return NF_ZERO
    if factor == 1:
        return a
    return NormalForm(tuple((m, _coeff(c * factor)) for m, c in a.terms))


def nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    """Product: the one-product case of ``nf_sum_of_products``."""
    return nf_sum_of_products((1, a, b))


def nf_sum_of_products(*products: tuple[int, NormalForm, NormalForm]) -> NormalForm:
    """Sum of ``sign * a * b`` over ``(sign, a, b)`` triples, sign +1 or -1.

    A single product with a zero side is zero, and one with a side equal
    to 1 or -1 returns the other side or its negation.  Otherwise the
    ``MAX_TERMS`` rule is checked on the term pairs of all the products
    before anything is multiplied, and the products go into one integer
    accumulator, sorted once.
    """
    if len(products) == 1:
        sign, a, b = products[0]
        if not a.terms or not b.terms:
            return NF_ZERO
        unit = _unit_sign(a)
        if unit:
            return b if sign * unit > 0 else nf_neg(b)
        unit = _unit_sign(b)
        if unit:
            return a if sign * unit > 0 else nf_neg(a)
    pairs = sum(len(a.terms) * len(b.terms) for _s, a, b in products
                if not (a.is_constant() or b.is_constant()))
    if pairs > MAX_TERMS:
        what = "product" if len(products) == 1 else f"sum of {len(products)} products"
        raise ExprError(f"{what} of {pairs} term products "
                        f"exceeds the budget of {MAX_TERMS} term products")
    return _int_sum([(sign, a.int_view(), b.int_view()) for sign, a, b in products])


def _power_terms_bound(t: int, k: int) -> int:
    """C(t + k - 1, k), the most terms a t-term normal form raised to the
    k-th power can have, or the first partial product above ``MAX_TERMS``."""
    r = min(k, t - 1)
    bound = 1
    for j in range(1, r + 1):
        # C(t + k - 1 - r + j, j), increasing in j
        bound = bound * (t + k - 1 - r + j) // j
        if bound > MAX_TERMS:
            break
    return bound


def nf_pow(a: NormalForm, exponent: int) -> NormalForm:
    """``a`` to a power >= 1.

    A one-term base is raised directly.  Otherwise the multinomial bound on
    the result's terms is checked against ``MAX_TERMS`` before anything is
    multiplied, then the power is taken by binary powering.
    """
    terms = a.terms
    if exponent == 1:
        return a
    if len(terms) == 1:
        (m, c), = terms
        if c != 1 and c != -1:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if exponent * bits > MAX_COEFF_BITS:
                raise ExprError(f"power {exponent} of a {bits}-bit coefficient can have more "
                                f"than the budget of {MAX_COEFF_BITS} bits")
        return NormalForm(((tuple((atom, e * exponent) for atom, e in m), c ** exponent),))
    if len(terms) > 1 and _power_terms_bound(len(terms), exponent) > MAX_TERMS:
        raise ExprError(f"power {exponent} of a {len(terms)}-term expression can have more "
                        f"terms than the budget of {MAX_TERMS}")
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


def normal_form(value) -> NormalForm:
    """The one coercion to a scalar: a normal form is returned unchanged
    and an int or a Fraction becomes a constant."""
    if isinstance(value, NormalForm):
        return value
    if isinstance(value, (int, Fraction)):
        return nf_term((), value)
    raise ExprError(f"cannot interpret {value!r} as a scalar expression")


def from_normal(nf: NormalForm) -> NormalForm:
    """The identity.  No code in this package calls it; it stays only as a
    name that the benchmark tracer (``bench/tracing.py``) wraps."""
    return nf


# --------------------------------------------------------------------------
# Differentiation (partial; any symbol other than the target is constant)


def differentiate(nf: NormalForm, v: str) -> NormalForm:
    """Exact partial derivative with respect to the symbol ``v``, taken
    monomial by monomial.

    Symbol atoms follow the power rule; sin(u) and cos(u) follow the chain
    rule, d sin(u) = cos(u) du and d cos(u) = -sin(u) du.  Both work on the
    integer view and go through the product accumulator.  The result is
    kept on ``nf``, in a table by symbol made on the first derivative by a
    free symbol, so a shared sin/cos argument is differentiated once.
    """
    if v not in nf.free_symbols():
        return NF_ZERO
    try:
        derivs = nf._derivs
    except AttributeError:
        derivs = {}
        _set(nf, "_derivs", derivs)
    else:
        known = derivs.get(v)
        if known is not None:
            return known
    D, pairs = nf.int_view()
    powered = []  # power-rule terms, over the denominator D
    products = [(1, (D, powered), _UNIT_VIEW)]
    for m, n in pairs:
        for i, (atom, e) in enumerate(m):
            kind, payload = atom
            if kind == _SYM and payload != v:
                continue
            rest = m[:i] + ((atom, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
            if kind == _SYM:
                powered.append((rest, n * e))
                continue
            du = differentiate(payload, v)
            if du.is_zero():
                continue
            if kind == _SIN:
                outer, sign = (_COS, payload), 1
            else:
                outer, sign = (_SIN, payload), -1
            products.append((sign, (D, ((_mono_mul(rest, ((outer, 1),)), n * e),)), du.int_view()))
    derivs[v] = result = _int_sum(products)
    return result


def nf_antiderivative(nf: NormalForm, x: str) -> NormalForm:
    """The integral of the polynomial ``nf`` in the symbol ``x`` from 0,
    monomial by monomial: c m x^(e-1) becomes c / e m x^e.  It is
    rational-linear on monomials and multiplies nothing."""
    if nf.has_trig():
        raise ExprError("antiderivative of a non-polynomial normal form")
    atom = (_SYM, x)
    terms = []
    for m, c in nf.terms:
        exps = dict(m)
        e = exps[atom] = exps.get(atom, 0) + 1
        terms.append((tuple(sorted(exps.items())), Fraction(c, e)))
    return nf_from_terms(terms)


# --------------------------------------------------------------------------
# Substitution


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


def nf_source(nf: NormalForm, symbols: Mapping[str, str], names: dict) -> str:
    """Python source of ``nf`` in IEEE doubles, written into the table of
    locals ``names`` of one program (``nf_program``).

    A term reads ``c * f1 * f2 * ...`` left to right, without ``c`` when
    it is 1, and the terms are summed ``(t1 + t2 + ...)`` from the first
    term rather than from 0, which keeps the sign of a lone ``-0.0``.
    ``symbols`` maps each free symbol to the source of its value.  Each
    distinct sin/cos atom, ``sin(<argument>)`` or ``cos(...)``, and each
    distinct power ``pow(base, e)`` becomes a local that the terms read;
    ``names`` maps it to ``(local, source)`` in assignment order, an atom
    after the locals of its argument.
    """
    terms = []
    for m, c in nf.terms:
        try:
            factors = [repr(float(c))] if c != 1 or not m else []
        except OverflowError:
            raise ExprError(f"coefficient with a {c.numerator.bit_length()}-bit numerator "
                            "is too large for a float") from None
        for atom, e in m:
            kind, payload = atom
            if kind == _SYM:
                try:
                    base = symbols[payload]
                except KeyError:
                    raise UnboundSymbolError(f"unbound symbol '{payload}'") from None
            else:
                if atom not in names:
                    call = "sin(" if kind == _SIN else "cos("
                    argument = nf_source(payload, symbols, names)
                    names[atom] = (f"a{len(names)}", f"{call}{argument})")
                base = names[atom][0]
            if e != 1:
                if (base, e) not in names:
                    names[base, e] = (f"p{len(names)}", f"pow({base}, {e})")
                base = names[base, e][0]
            factors.append(base)
        terms.append(factors[0] if len(factors) == 1 else "(" + " * ".join(factors) + ")")
    if not terms:
        return "0.0"
    return terms[0] if len(terms) == 1 else "(" + " + ".join(terms) + ")"


def nf_program(nfs: Iterable[NormalForm], symbols: Mapping[str, str]) -> tuple[list, list]:
    """``(assignments, sources)``: the one writer of numeric code.

    Each distinct sin/cos atom and power of ``nfs`` is written once, as a
    ``local = source`` line of ``assignments``, and ``sources`` holds one
    source per form, reading those locals (see ``nf_source``).  A local
    evaluates the same float as its text written in place would, and the
    builtin ``pow`` is Python's float ``**``.
    """
    names: dict = {}
    sources = [nf_source(nf, symbols, names) for nf in nfs]
    return [f"{local} = {source}" for local, source in names.values()], sources


@functools.lru_cache(maxsize=128)
def compile_source(source: str):
    """``compile(source, "<string>", "exec")``, once per distinct source.

    The one compiler of generated code: ``compile_rows`` and
    ``flow._compile_rk4`` compile through it, and each ``exec``s the code
    object into a namespace of its own, so the names the code calls
    (``sin``, ``cos``, ``pow``, ``BlowupError``) are bound per caller.  The
    source text is a sound key: ``nf_program`` writes every coefficient,
    bound parameters included, into it, and states, steps and ranges are
    arguments of the compiled functions.  A process keeps the code of at
    most the 128 sources it compiled last.
    """
    return compile(source, "<string>", "exec")


def compile_rows(nfs: Iterable[NormalForm], symbols: Mapping[str, str], **bindings):
    """``rows(s)``, the list of the values of ``nfs`` at ``s``.

    Its code is ``nf_program``'s: the assignments, then ``return [<sources>]``,
    compiled by ``compile_source`` and run in a fresh namespace made from
    ``bindings``, which bind the names ``sin`` and ``cos`` (and ``pow``,
    else the builtin).
    """
    assignments, sources = nf_program(nfs, symbols)
    lines = ["def rows(s):", *(f"    {line}" for line in assignments),
             f"    return [{', '.join(sources)}]"]
    namespace = dict(bindings)
    exec(compile_source("\n".join(lines) + "\n"), namespace)
    return namespace["rows"]


# --------------------------------------------------------------------------
# Zero testing


SAMPLE_POINTS = 32
SAMPLE_RANGE = (-2.0, 2.0)
REL_TOL = 1e-9
DEFAULT_SEED = 314159


def zero_test_json(seed: int) -> dict:
    """The ``zero_test`` object of a report: the seed of the probabilistic
    zero test and its fixed points, interval and tolerance."""
    return {
        "seed": seed,
        "points": SAMPLE_POINTS,
        "range": list(SAMPLE_RANGE),
        "rel_tol": REL_TOL,
    }


@dataclass(frozen=True, slots=True)
class ZeroResult:
    value: bool
    certainty: str


def is_zero(e: NormalForm, seed: int = DEFAULT_SEED) -> ZeroResult:
    """Decide whether ``e`` (a normal form, or a rational) vanishes identically.

    Exact verdicts come from the normal form alone.  Normal forms that
    contain trigonometric atoms are sampled at ``SAMPLE_POINTS`` points
    with every free symbol drawn uniformly from ``SAMPLE_RANGE`` by a
    generator seeded with ``seed``; the verdict is then tagged
    probabilistic.  The term values are the rows of ``compile_rows`` over
    the one-term forms of ``e``, with ``math.sin`` and ``math.cos``.  At
    each point the value must stay within ``REL_TOL`` times the sum of the
    absolute term values there, so a small nonzero expression is not
    mistaken for rounding error.  A point at which a term leaves the float
    range (an overflowing power, sin or cos of an infinity, a non-finite
    sum of absolute values) decides nothing and raises ``ExprError``,
    unless an earlier point has already shown the expression nonzero.
    """
    nf = normal_form(e)
    if nf.is_zero():
        return ZeroResult(True, EXACT)
    if not nf.has_trig():
        return ZeroResult(False, EXACT)
    rng = random.Random(seed)
    symbols = sorted(nf.free_symbols())
    term_values = compile_rows([NormalForm((term,)) for term in nf.terms],
                               {v: f"s[{i}]" for i, v in enumerate(symbols)},
                               sin=math.sin, cos=math.cos)
    low, high = SAMPLE_RANGE
    for point in range(1, SAMPLE_POINTS + 1):
        try:
            values = term_values([rng.uniform(low, high) for _ in symbols])
        except (OverflowError, ValueError):  # ValueError: sin or cos of an infinity
            scale = math.inf
        else:
            scale = sum(abs(v) for v in values)
        if not math.isfinite(scale):
            raise ExprError(f"zero test: a term leaves the float range at sample point "
                            f"{point} of {SAMPLE_POINTS} (seed {seed})")
        if abs(sum(values)) > REL_TOL * scale:
            return ZeroResult(False, PROBABILISTIC)
    return ZeroResult(True, PROBABILISTIC)


def all_zero(nfs: Iterable[NormalForm], seed: int = DEFAULT_SEED) -> ZeroResult:
    """Decide whether every one of ``nfs`` vanishes identically.

    Zero normal forms are dropped.  A remaining one without sin/cos atoms
    is an exact witness that not all vanish, so nothing is sampled.
    Otherwise each remaining one goes to ``is_zero`` in turn and the first
    nonzero verdict is returned; each call seeds its own generator, so
    stopping early moves no other verdict.  When all vanish the verdict
    is probabilistic if any of them was sampled.
    """
    nonzero = [nf for nf in nfs if not nf.is_zero()]
    if not all(nf.has_trig() for nf in nonzero):
        return ZeroResult(False, EXACT)
    for nf in nonzero:
        res = is_zero(nf, seed)
        if not res.value:
            return res
    return ZeroResult(True, PROBABILISTIC if nonzero else EXACT)


# --------------------------------------------------------------------------
# Exact division (divides annihilator fields by their time component)


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


def render(e: NormalForm) -> str:
    """Canonical textual form of a normal form (or a rational);
    re-parsing yields the same normal form."""
    return _render_terms(normal_form(e).terms)


# --------------------------------------------------------------------------
# Parsing: recursive descent straight to normal forms


_RESERVED = {"sin", "cos"}

# One token per match, after any whitespace: an operator, a run of
# decimal digits, a word (a letter, or another alphanumeric character,
# followed by letters, digits and underscores) or any other character,
# which is an error.  The empty ``\Z`` branch ends the list with "" and
# takes the whitespace at the end.
_TOKEN = re.compile(r"\s*([-+*^()/]|\d+|[^\W\d_]\w*|\S|\Z)")
_OPERATORS = frozenset("+-*^()/")
# the ASCII characters that are no token and no whitespace
_ASCII_BAD = frozenset(c for c in map(chr, range(128))
                       if not (c.isalnum() or c.isspace() or c in _OPERATORS))


def _tokens(text: str) -> list[str]:
    """The tokens of ``text``, ending with "".

    A token is a number when it starts with a digit, an identifier when it
    starts with a letter, else an operator.  A word that starts with a
    digit that is not decimal (such as a superscript) is a number, which
    the parser refuses; a token that starts with anything else is an
    unexpected character.
    """
    tokens = _TOKEN.findall(text)
    if not (text.isascii() and _ASCII_BAD.isdisjoint(tokens)):
        for i, tok in enumerate(tokens):
            c = tok[:1]
            if c and not (c.isdigit() or c.isalpha() or c in _OPERATORS):
                raise ParseError(f"unexpected character {c!r}", _position(text, i))
    return tokens


def symbol_name_error(name: str) -> str | None:
    """Why ``name`` cannot be a symbol, or None when it can: a symbol is
    one word token that the parser reads as an identifier and not as a
    reserved function name."""
    if _TOKEN.match(name).group(1) != name or not name[:1].isalpha():
        return (f"name {name!r} is not an identifier "
                "(a letter, then letters, digits and underscores)")
    if name in _RESERVED:
        return f"'{name}' is a reserved function name"
    return None


def _position(text: str, index: int) -> int:
    """Position in ``text`` of its token number ``index``; found again only
    for an error message."""
    return next(itertools.islice(_TOKEN.finditer(text), index, None)).start(1)


class _Parser:
    """Recursive descent over ``_tokens``; every rule returns a normal form.

    ``symbols`` holds the declared names, none of them reserved; a product
    folds its factors into one monomial as ``_term`` reads them.  ``atoms``
    maps each sin/cos argument to the first equal normal form parsed with
    the same table, so that equal atoms are one object.
    """

    def __init__(self, text: str, symbols: frozenset, atoms: dict | None):
        self.text = text
        self.tokens = _tokens(text)
        self.index = 0
        self.symbols = symbols
        self.atoms = atoms
        self.depth = 0

    def _error(self, message: str, index: int) -> ParseError:
        return ParseError(message, _position(self.text, index))

    def _expect(self, token: str, message: str) -> None:
        if self.tokens[self.index] != token:
            raise self._error(message, self.index)
        self.index += 1

    def _number(self, index: int) -> int:
        """The integer the token at ``index`` denotes, 0 when it is no
        number; ParseError where ``int`` refuses it: a digit that is not
        decimal, or more digits than the interpreter converts."""
        tok = self.tokens[index]
        if not tok[:1].isdigit():
            return 0
        try:
            return int(tok)
        except ValueError:
            reason = "too many digits" if tok.isdecimal() else "a digit that is not decimal"
            raise self._error(f"number with {reason}", index) from None

    def parse(self) -> NormalForm:
        nf = self._expr()
        if self.tokens[self.index]:
            raise self._error("unexpected trailing input", self.index)
        return nf

    def _expr(self) -> NormalForm:
        first = self._term()
        tok = self.tokens[self.index]
        if tok != "+" and tok != "-":
            return first
        # the terms of every summand are added up once, by ``nf_from_terms``
        terms = list(first.terms)
        while tok == "+" or tok == "-":
            self.index += 1
            summand = self._term().terms
            terms += summand if tok == "+" else [(m, -c) for m, c in summand]
            tok = self.tokens[self.index]
        return nf_from_terms(terms)

    def _nested(self, parse, index: int) -> NormalForm:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels", index)
        nf = parse()
        self.depth -= 1
        return nf

    def _term(self) -> NormalForm:
        """A product of factors, folded into one monomial as it is read.

        A declared symbol, with its ``^`` power, adds its exponent to the
        monomial and makes no normal form of its own.  Every other factor
        comes from ``_factor``: a one-term factor multiplies the coefficient
        and adds its exponents, a zero factor makes the product zero once
        the term is read, and only factors with several terms go through
        ``nf_mul``.  A lone symbol is built as its one-term form, and any
        other lone factor is returned as ``_factor`` built it.
        """
        tokens = self.tokens
        symbols = self.symbols
        tok = tokens[self.index]
        if tok in symbols:
            follow = tokens[self.index + 1]
            if follow != "*" and follow != "^":
                self.index += 1
                return NormalForm((((((_SYM, tok), 1),), 1),))
            factor = None
        else:
            factor = self._factor()
            if tokens[self.index] != "*":
                return factor
        coeff = 1
        exps: dict = {}
        wide = []
        zero = False
        while True:
            if factor is None:
                index = self.index
                exponent = 1
                if tokens[index + 1] == "^":
                    self.index = index + 3
                    exponent = self._number(index + 2)
                    if exponent < 1:
                        raise self._error("exponent must be a positive integer", index + 2)
                else:
                    self.index = index + 1
                atom = (_SYM, tokens[index])
                prev = exps.get(atom)
                exps[atom] = exponent if prev is None else prev + exponent
            else:
                terms = factor.terms
                if len(terms) == 1:
                    (m, c), = terms
                    if c != 1:
                        coeff = c if coeff == 1 else coeff * c
                    for atom, e in m:
                        prev = exps.get(atom)
                        exps[atom] = e if prev is None else prev + e
                elif terms:
                    wide.append(factor)
                else:
                    zero = True
            if tokens[self.index] != "*":
                break
            self.index += 1
            factor = None if tokens[self.index] in symbols else self._factor()
        if zero:
            return NF_ZERO
        result = nf_term(tuple(sorted(exps.items())), coeff)
        for f in wide:
            result = nf_mul(result, f)
        return result

    def _factor(self) -> NormalForm:
        base = self._atom()
        if self.tokens[self.index] != "^":
            return base
        index = self.index + 1
        self.index += 2
        exponent = self._number(index)
        if exponent < 1:
            raise self._error("exponent must be a positive integer", index)
        return nf_pow(base, exponent)

    def _atom(self) -> NormalForm:
        index = self.index
        tok = self.tokens[index]
        self.index += 1
        if tok[:1].isdigit():
            numerator = self._number(index)
            if self.tokens[self.index] == "/":
                self.index += 2
                denominator = self._number(self.index - 1)
                if denominator == 0:
                    raise self._error("denominator must be a positive integer", self.index - 1)
                return nf_term((), Fraction(numerator, denominator))
            return nf_term((), numerator)
        if tok[:1].isalpha():
            if tok in _RESERVED:
                self._expect("(", f"expected '(' after {tok}")
                arg = self._nested(self._expr, index)
                self._expect(")", "expected ')'")
                if self.atoms is not None and arg.terms:
                    arg = self.atoms.setdefault(arg, arg)
                return _trig_nf(_SIN if tok == "sin" else _COS, arg)
            if tok not in self.symbols:
                raise UndeclaredSymbolError(tok, _position(self.text, index))
            return NormalForm((((((_SYM, tok), 1),), 1),))
        if tok == "(":
            nf = self._nested(self._expr, index)
            self._expect(")", "expected ')'")
            return nf
        if tok == "-":
            return nf_neg(self._nested(self._atom, index))
        raise self._error(f"unexpected token {tok!r}" if tok else "unexpected end of input", index)


def parse_expr(text: str, symbols: Iterable[str], atoms: dict | None = None) -> NormalForm:
    """Parse ``text`` against a symbol table of declared identifiers into its
    normal form, built during the descent: a sum adds the terms of all its
    summands once, and a product folds its factors into one monomial (see
    ``_Parser._term``).  A reserved name (``sin``, ``cos``) is read as its
    function even when it is in ``symbols``.

    ``atoms``, when given, is a table shared by the parses of one input:
    each sin/cos argument becomes the first equal normal form parsed with
    it, so later comparisons of equal atoms stop at the identity check.
    """
    if not isinstance(symbols, frozenset):
        symbols = frozenset(symbols)
    if not _RESERVED.isdisjoint(symbols):
        symbols = symbols - _RESERVED
    nf = _Parser(text, symbols, atoms).parse()
    _check_coeff_bits(nf)
    return nf


def _check_coeff_bits(nf: NormalForm) -> None:
    """Refuse a coefficient, in the terms or in a sin/cos argument, whose
    numerator or denominator has more than ``MAX_COEFF_BITS`` bits."""
    for m, c in nf.terms:
        bits = (c.bit_length() if type(c) is int
                else max(c.numerator.bit_length(), c.denominator.bit_length()))
        if bits > MAX_COEFF_BITS:
            raise ExprError(f"a {bits}-bit coefficient exceeds the budget of "
                            f"{MAX_COEFF_BITS} bits")
        for (kind, payload), _e in m:
            if kind != _SYM:
                _check_coeff_bits(payload)


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
