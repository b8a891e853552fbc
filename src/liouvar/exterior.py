"""Sparse differential forms and vector fields on flat coordinate spaces.

A multi-index is stored as a mask, an int with bit i set for coordinate
i, so it is strictly increasing by construction; every operation reduces
to that canonical order with explicit permutation signs.  Coefficients
are normal forms (zero ones are never stored) and every operation maps
normal forms to normal forms; a constructor also takes an int or a
Fraction, which ``normal_form`` makes a constant.

The public constructors check what a caller gives them: the degree, each
multi-index and the symbols of each coefficient.  An operation combines
forms and fields that passed those checks on one space, so it builds its
result with ``_form`` or ``_field``, which check nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, prod
from typing import Iterable, Mapping

from .expr import (
    DEFAULT_SEED,
    NF_ONE,
    NF_ZERO,
    NormalForm,
    ZeroResult,
    all_zero,
    differentiate,
    nf_add,
    nf_mul,
    nf_neg,
    nf_scale,
    nf_sum_of_products,
    normal_form,
    parse_expr,
    render,
    substitute,
    symbol_name_error,
)


class GeometryError(Exception):
    """Base class for form/field-level failures."""


class DegreeError(GeometryError):
    pass


class SpaceMismatchError(GeometryError):
    pass


class MetricError(GeometryError):
    pass


@dataclass(frozen=True)
class Space:
    """Named flat coordinate space with optional constant diagonal metric.

    Orientation is the declared coordinate order.  ``symbol_set`` holds the
    coordinate and parameter names, computed once, and is not compared.
    """

    name: str
    coordinates: tuple[str, ...]
    parameters: tuple[str, ...] = ()
    metric: tuple[Fraction, ...] | None = None
    symbol_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "symbol_set", frozenset(self.coordinates + self.parameters))
        if self.metric is not None:
            object.__setattr__(self, "metric", tuple(Fraction(g) for g in self.metric))
        if len(self.coordinates) < 1:
            raise GeometryError("space must have at least one coordinate")
        names = self.coordinates + self.parameters
        if len(set(names)) != len(names):
            raise GeometryError("coordinate and parameter names must be distinct")
        for n in names:
            problem = symbol_name_error(n)
            if problem:
                raise GeometryError(problem)
        if self.metric is not None:
            if len(self.metric) != len(self.coordinates):
                raise MetricError("metric length must equal the dimension")
            if any(g == 0 for g in self.metric):
                raise MetricError("metric entries must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.coordinates + self.parameters

    def position(self, coord: str) -> int:
        try:
            return self.coordinates.index(coord)
        except ValueError:
            raise GeometryError(f"'{coord}' is not a coordinate of space '{self.name}'") from None

    def parse(self, text: str, atoms: dict | None = None, texts: dict | None = None) -> NormalForm:
        """Normal form of ``text`` over this space's symbols; ``atoms`` as
        in ``parse_expr``.

        ``texts``, when given, is a table shared by the parses of one
        input, keyed by the symbol set and the text: a text is parsed once
        per symbol set, and equal texts over one symbol set are one object.
        """
        if texts is None:
            return parse_expr(text, self.symbol_set, atoms)
        key = (self.symbol_set, text)
        nf = texts.get(key)
        if nf is None:
            nf = texts[key] = parse_expr(text, self.symbol_set, atoms)
        return nf


def _checked_nf(value, space: Space, what: str) -> NormalForm:
    """``value``, a normal form or a rational, as a normal form whose
    symbols are checked to be declared in ``space``."""
    nf = value if isinstance(value, NormalForm) else normal_form(value)
    if not nf.free_symbols() <= space.symbol_set:
        extra = nf.free_symbols() - space.symbol_set
        raise GeometryError(f"{what} uses symbols {sorted(extra)} not declared in space '{space.name}'")
    return nf


def _mask(idx, degree: int, dim: int) -> int:
    """The mask of a multi-index given as a mask or as a sequence of
    positions.  It must match ``degree``, lie in range and, as a sequence,
    be strictly increasing; the first failed check is raised."""
    if type(idx) is int:
        if idx.bit_count() != degree:
            raise GeometryError(f"multi-index mask {idx} does not match degree {degree}")
        if idx < 0 or idx >> dim:
            raise GeometryError(f"multi-index mask {idx} out of range")
        return idx
    idx = tuple(idx)
    if len(idx) != degree:
        raise GeometryError(f"multi-index {idx} does not match degree {degree}")
    if any(not 0 <= i < dim for i in idx):
        raise GeometryError(f"multi-index {idx} out of range")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise GeometryError(f"multi-index {idx} must be strictly increasing")
    return sum(1 << i for i in idx)


def _form(space: Space, degree: int, nfs: Mapping[int, NormalForm]) -> "DiffForm":
    """The form of an operation on checked forms: ``nfs`` maps masks of
    ``degree`` to normal forms over ``space``'s symbols.  Its entries are
    sorted by mask and its zeros dropped; nothing else is checked."""
    out = object.__new__(DiffForm)
    out.space = space
    out.degree = degree
    out.nfs = {K: nf for K, nf in sorted(nfs.items()) if nf.terms}
    return out


def _field(space: Space, nfs: tuple[NormalForm, ...]) -> "VectorField":
    """The field of an operation on checked forms and fields: ``nfs`` holds
    one normal form over ``space``'s symbols per coordinate.  Nothing is
    checked."""
    out = object.__new__(VectorField)
    out.space = space
    out.nfs = nfs
    return out


def index_positions(K: int) -> list[int]:
    """The increasing coordinate positions of the mask ``K``."""
    out = []
    while K:
        low = K & -K
        out.append(low.bit_length() - 1)
        K ^= low
    return out


def _index_order(a: "DiffForm") -> list[tuple[list[int], NormalForm]]:
    """(increasing positions, coefficient) pairs of ``a`` in multi-index
    order, the order of reports and of ``repr``."""
    return sorted((index_positions(K), c) for K, c in a.nfs.items())


class DiffForm:
    """Degree-k form as a sparse map from multi-index masks.

    Keys are masks (bit i set for coordinate i); the constructor and
    ``get_nf`` also take a multi-index as a sequence of increasing
    positions.  Coefficients (normal forms or rationals) are stored as
    normal forms in ``nfs``, in increasing mask order.  The constructor
    checks every key and coefficient; the results of ``+``, ``-``, ``*``
    and the calculus operations are built by ``_form`` without checks.
    """

    __slots__ = ("space", "degree", "nfs")

    def __init__(self, space: Space, degree: int,
                 coeffs: Mapping[int | tuple[int, ...], object] | None = None):
        if not 0 <= degree <= space.dim:
            raise DegreeError(f"degree {degree} out of range for dimension {space.dim}")
        stored: dict[int, NormalForm] = {}
        for idx, raw in (coeffs or {}).items():
            K = _mask(idx, degree, space.dim)
            nf = _checked_nf(raw, space, "coefficient")
            stored[K] = nf_add(stored[K], nf) if K in stored else nf
        self.space = space
        self.degree = degree
        self.nfs = {K: nf for K, nf in sorted(stored.items()) if not nf.is_zero()}

    # -- inspection ---------------------------------------------------

    def get_nf(self, idx: int | tuple[int, ...]) -> NormalForm:
        """Coefficient on ``idx``, checked as a key of the constructor."""
        return self.nfs.get(_mask(idx, self.degree, self.space.dim), NF_ZERO)

    @property
    def is_zero_form(self) -> bool:
        return not self.nfs

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (self.space, self.degree, self.nfs) == (other.space, other.degree, other.nfs)

    def __hash__(self):
        return hash((self.space, self.degree, tuple(self.nfs.items())))

    def __repr__(self):
        if not self.nfs:
            return f"DiffForm({self.space.name}, deg={self.degree}, 0)"
        body = " + ".join(
            f"[{render(c)}] d{'^'.join(self.space.coordinates[i] for i in idx)}" if idx else render(c)
            for idx, c in _index_order(self)
        )
        return f"DiffForm({self.space.name}, deg={self.degree}: {body})"

    # -- arithmetic ---------------------------------------------------

    def _require_same(self, other: "DiffForm"):
        if self.space != other.space:
            raise SpaceMismatchError("forms live on different spaces")
        if self.degree != other.degree:
            raise DegreeError("forms have different degrees")

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._require_same(other)
        acc = dict(self.nfs)
        for idx, c in other.nfs.items():
            acc[idx] = nf_add(acc[idx], c) if idx in acc else c
        return _form(self.space, self.degree, acc)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __neg__(self) -> "DiffForm":
        return _form(self.space, self.degree, {i: nf_neg(c) for i, c in self.nfs.items()})

    def __mul__(self, scalar) -> "DiffForm":
        s = _checked_nf(scalar, self.space, "coefficient")
        return _form(self.space, self.degree, {i: nf_mul(s, c) for i, c in self.nfs.items()})

    __rmul__ = __mul__


class VectorField:
    """Component array over a space's coordinates.

    Components (normal forms or rationals) are stored as normal forms in
    ``nfs``.  The constructor checks their count and symbols; ``+`` and
    ``*`` build their results by ``_field`` without checks.
    """

    __slots__ = ("space", "nfs")

    def __init__(self, space: Space, components):
        nfs = tuple(_checked_nf(c, space, "component") for c in components)
        if len(nfs) != space.dim:
            raise GeometryError("component count must equal the dimension")
        self.space = space
        self.nfs = nfs

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return (self.space, self.nfs) == (other.space, other.nfs)

    def __hash__(self):
        return hash((self.space, self.nfs))

    def __repr__(self):
        return f"VectorField({self.space.name}: [{', '.join(render(c) for c in self.nfs)}])"

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.nfs)

    def apply_to_nf(self, f: NormalForm) -> NormalForm:
        """Directional derivative X(f) = sum_i X^i df/dx^i of a scalar."""
        f = normal_form(f)
        return nf_sum_of_products(*((1, c, differentiate(f, x))
                                    for c, x in zip(self.nfs, self.space.coordinates)))

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.space != other.space:
            raise SpaceMismatchError("fields live on different spaces")
        return _field(self.space, tuple(nf_add(a, b) for a, b in zip(self.nfs, other.nfs)))

    def __mul__(self, scalar) -> "VectorField":
        s = _checked_nf(scalar, self.space, "component")
        return _field(self.space, tuple(nf_mul(s, c) for c in self.nfs))

    __rmul__ = __mul__


# --------------------------------------------------------------------------
# Constructors


def coordinate_vector(space: Space, coord: str) -> VectorField:
    pos = space.position(coord)
    return VectorField(space, tuple(NF_ONE if i == pos else NF_ZERO for i in range(space.dim)))


def constant_form(space: Space, value=1) -> DiffForm:
    return DiffForm(space, 0, {0: value})


def basis_form(space: Space, *coords: str, coeff=1) -> DiffForm:
    """dx^{c1} ∧ … ∧ dx^{ck}; unsorted coordinate lists pick up the sign."""
    positions = [space.position(c) for c in coords]
    if len(set(positions)) != len(positions):
        return DiffForm(space, len(positions), {})
    sign = _permutation_sign(positions)
    return DiffForm(space, len(positions), {tuple(sorted(positions)): nf_scale(normal_form(coeff), sign)})


def volume_form(space: Space) -> DiffForm:
    return DiffForm(space, space.dim, {(1 << space.dim) - 1: NF_ONE})


# --------------------------------------------------------------------------
# Index bookkeeping


def _permutation_sign(seq) -> int:
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _merge_sign(I: int, J: int) -> int:
    """Sign that sorts the positions of disjoint masks I then J into one
    increasing index: each entry of I moves past the entries of J below it."""
    moves = 0
    while I:
        low = I & -I
        moves += (J & (low - 1)).bit_count()
        I ^= low
    return -1 if moves & 1 else 1


# --------------------------------------------------------------------------
# Core operations


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    if a.space != b.space:
        raise SpaceMismatchError("wedge of forms on different spaces")
    degree = a.degree + b.degree
    if degree > a.space.dim:
        raise DegreeError(f"wedge degree {degree} exceeds dimension {a.space.dim}")
    acc: dict[int, list] = {}
    for I, ca in a.nfs.items():
        for J, cb in b.nfs.items():
            if not I & J:
                acc.setdefault(I | J, []).append((_merge_sign(I, J), ca, cb))
    return _form(a.space, degree, {K: nf_sum_of_products(*ps) for K, ps in acc.items()})


def wedge_power(a: DiffForm, power: int) -> DiffForm:
    result = constant_form(a.space)
    for _ in range(power):
        result = wedge(result, a)
    return result


def exterior_derivative(a: DiffForm) -> DiffForm:
    if a.degree >= a.space.dim:
        raise DegreeError("exterior derivative of a top-degree form overflows the space")
    acc: dict[int, list[NormalForm]] = {}
    for I, c in a.nfs.items():
        for pos, coord in enumerate(a.space.coordinates):
            bit = 1 << pos
            if I & bit:
                continue
            dc = differentiate(c, coord)
            if dc.is_zero():
                continue
            # dx^pos moves past the entries of I below it
            acc.setdefault(I | bit, []).append(nf_neg(dc) if (I & (bit - 1)).bit_count() & 1 else dc)
    return _form(a.space, a.degree + 1, {K: nf_add(*terms) for K, terms in acc.items()})


def interior_product(v: VectorField, a: DiffForm) -> DiffForm:
    if v.space != a.space:
        raise SpaceMismatchError("interior product across different spaces")
    if a.degree == 0:
        raise DegreeError("interior product requires degree >= 1")
    components = [(1 << pos, comp) for pos, comp in enumerate(v.nfs) if not comp.is_zero()]
    acc: dict[int, list] = {}
    for I, c in a.nfs.items():
        for bit, comp in components:
            if I & bit:
                # the contracted entry moves to the front past the entries below it
                acc.setdefault(I ^ bit, []).append(
                    (-1 if (I & (bit - 1)).bit_count() & 1 else 1, comp, c))
    return _form(a.space, a.degree - 1, {K: nf_sum_of_products(*ps) for K, ps in acc.items()})


def flux_field(alpha: DiffForm) -> VectorField:
    """The field X with X ⌟ vol = alpha, for an (n-1)-form alpha.

    The inverse of ``interior_product(X, volume_form(space))``: the entry
    missing from alpha's index i moves past the i entries below it, so
    X^i = (-1)^i alpha_(all but i).  The zero form gives the zero field.
    """
    space = alpha.space
    n = space.dim
    if alpha.degree != n - 1:
        raise DegreeError(f"a flux field needs a degree-{n - 1} form, got degree {alpha.degree}")
    everything = (1 << n) - 1
    comps = []
    for i in range(n):
        c = alpha.nfs.get(everything ^ (1 << i), NF_ZERO)
        comps.append(nf_neg(c) if i % 2 else c)
    return _field(space, tuple(comps))


@dataclass(frozen=True)
class CoordMap:
    """Smooth map between spaces given per-target-coordinate expressions,
    stored as normal forms."""

    source: Space
    target: Space
    components: tuple[tuple[str, NormalForm], ...]

    def __init__(self, source: Space, target: Space, components: Mapping[str, object]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        missing = [c for c in target.coordinates if c not in components]
        if missing:
            raise GeometryError(f"map is missing target coordinates {missing}")
        if not set(target.parameters) <= set(source.parameters):
            raise GeometryError("target parameters must be declared in the source space")
        comps = tuple((c, _checked_nf(components[c], source, f"map component for '{c}'"))
                      for c in target.coordinates)
        object.__setattr__(self, "components", comps)

    def component(self, coord: str) -> NormalForm:
        for name, nf in self.components:
            if name == coord:
                return nf
        raise GeometryError(f"no component for '{coord}'")


def pullback(phi: CoordMap, a: DiffForm) -> DiffForm:
    """Pull a form on phi.target back to phi.source."""
    if a.space != phi.target:
        raise SpaceMismatchError("form does not live on the map's target space")
    if a.degree > phi.source.dim:
        raise DegreeError("pullback degree exceeds the source dimension")
    substitution = dict(phi.components)
    differentials: dict[int, DiffForm] = {}
    for pos, (_coord, u) in enumerate(phi.components):
        differentials[pos] = DiffForm(
            phi.source, 1,
            {(j,): differentiate(u, x) for j, x in enumerate(phi.source.coordinates)},
        )
    total = DiffForm(phi.source, a.degree, {})
    for I, c in a.nfs.items():
        pulled = constant_form(phi.source, substitute(c, substitution))
        for pos in index_positions(I):
            pulled = wedge(pulled, differentials[pos])
        total = total + pulled
    return total


def diagonal_metric(space: Space) -> tuple[Fraction, ...]:
    """The diagonal metric of ``space``: its own, or the Euclidean one when
    it has none."""
    return space.metric if space.metric is not None else (Fraction(1),) * space.dim


def metric_sqrt_det(g: tuple[Fraction, ...]) -> Fraction:
    """sqrt|det g| of the diagonal metric ``g``, which exact duality needs
    to be rational; raises MetricError otherwise.  ``g`` has no zero entry:
    ``Space`` refuses one."""
    det_abs = abs(prod(g))
    num_root, den_root = isqrt(det_abs.numerator), isqrt(det_abs.denominator)
    if num_root * num_root != det_abs.numerator or den_root * den_root != det_abs.denominator:
        raise MetricError("metric determinant must be a perfect rational square for exact duality")
    return Fraction(num_root, den_root)


def hodge_star(a: DiffForm) -> DiffForm:
    """Metric duality on basis forms, indices raised by the ``diagonal_metric``
    of the form's space."""
    g = diagonal_metric(a.space)
    n = a.space.dim
    sqrt_det = metric_sqrt_det(g)
    everything = (1 << n) - 1
    out: dict[int, NormalForm] = {}  # I -> J is one-to-one: nothing is summed
    for I, c in a.nfs.items():
        J = everything ^ I
        factor = sqrt_det * _merge_sign(I, J)
        for i in index_positions(I):
            factor /= g[i]
        out[J] = nf_scale(c, factor)
    return DiffForm(a.space, n - a.degree, out)


# --------------------------------------------------------------------------
# Chart reordering (used for configurable base/vertical splits)


def reordered_space(space: Space, new_order: Iterable[str]) -> Space:
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(space.coordinates):
        raise GeometryError("new order must be a permutation of the coordinates")
    metric = None
    if space.metric is not None:
        metric = tuple(space.metric[space.position(c)] for c in new_order)
    return Space(space.name, new_order, space.parameters, metric)


def reorder_form(a: DiffForm, new_space: Space) -> DiffForm:
    position = {c: i for i, c in enumerate(new_space.coordinates)}
    out: dict[int, NormalForm] = {}  # a permutation of indices: nothing is summed
    for I, c in a.nfs.items():
        mapped = [position[a.space.coordinates[i]] for i in index_positions(I)]
        sign = _permutation_sign(mapped)
        out[sum(1 << i for i in mapped)] = c if sign > 0 else nf_neg(c)
    return DiffForm(new_space, a.degree, out)


def reorder_field(v: VectorField, new_space: Space) -> VectorField:
    by_name = dict(zip(v.space.coordinates, v.nfs))
    return VectorField(new_space, tuple(by_name[c] for c in new_space.coordinates))


# --------------------------------------------------------------------------
# Aggregate zero tests and serialization


def form_is_zero(a: DiffForm, seed: int = DEFAULT_SEED) -> ZeroResult:
    """Whether every coefficient of ``a`` vanishes, by ``all_zero``."""
    return all_zero(a.nfs.values(), seed)


def fields_equal(u: VectorField, v: VectorField, seed: int = DEFAULT_SEED) -> ZeroResult:
    """Whether ``u`` and ``v`` agree in every component, by ``all_zero`` on
    their differences."""
    if u.space != v.space:
        raise SpaceMismatchError("fields live on different spaces")
    return all_zero((nf_add(a, nf_neg(b)) for a, b in zip(u.nfs, v.nfs)), seed)


def serialize_form(a: DiffForm) -> list[dict]:
    return [
        {"index": [i + 1 for i in idx], "coeff": render(c)}
        for idx, c in _index_order(a)
    ]


def deserialize_form(space: Space, degree: int, data: list[dict],
                     atoms: dict | None = None, texts: dict | None = None) -> DiffForm:
    """Form from ``serialize_form`` output; entries on one index are summed.
    ``atoms`` and ``texts`` as in ``Space.parse``."""
    coeffs: dict[tuple[int, ...], NormalForm] = {}
    for entry in data:
        idx = tuple(int(i) - 1 for i in entry["index"])
        nf = space.parse(entry["coeff"], atoms, texts)
        coeffs[idx] = nf_add(coeffs[idx], nf) if idx in coeffs else nf
    return DiffForm(space, degree, coeffs)


def serialize_field(v: VectorField) -> list[str]:
    return [render(c) for c in v.nfs]


def deserialize_field(space: Space, data: list[str], atoms: dict | None = None,
                      texts: dict | None = None) -> VectorField:
    """Field from ``serialize_field`` output; ``atoms`` and ``texts`` as in
    ``Space.parse``."""
    return VectorField(space, tuple(space.parse(s, atoms, texts) for s in data))
