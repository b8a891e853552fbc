"""Volume-preservation certificates and the characteristic-field pipeline.

Given a vector field X and a volume form on P, this module checks the
divergence-free property, solves or verifies a potential for the flux
X ⌟ Ω, assembles the time-extended contact-like form on R × P, and
extracts/validates the characteristic vector field from its derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

from .expr import (
    DEFAULT_SEED,
    EXACT,
    NF_ONE,
    NormalForm,
    ZeroResult,
    all_zero,
    differentiate,
    nf_add,
    nf_antiderivative,
    nf_divide,
    nf_from_terms,
    nf_sum_of_products,
    normal_form,
    render,
    substitute,
)
from .exterior import (
    DiffForm,
    GeometryError,
    Space,
    VectorField,
    _field,
    _form,
    basis_form,
    coordinate_vector,
    diagonal_metric,
    exterior_derivative,
    flux_field,
    form_is_zero,
    interior_product,
    metric_sqrt_det,
    reorder_form,
    reordered_space,
    serialize_form,
    volume_form,
    wedge,
)

TIME_COORDINATE = "t"


class LiouvilleError(Exception):
    pass


class SystemInvariantError(LiouvilleError):
    pass


class DegenerateThetaError(SystemInvariantError):
    """d(theta) vanishes; ``certainty`` is that of the zero test that found it."""

    def __init__(self, message: str, certainty: str):
        super().__init__(message)
        self.certainty = certainty


class PotentialError(LiouvilleError):
    """No potential is solved; ``certainty`` is that of the verdict behind
    the refusal, which is a zero test's only for a form found not closed."""

    def __init__(self, message: str, certainty: str = EXACT):
        super().__init__(message)
        self.certainty = certainty


class NormalizationError(LiouvilleError):
    pass


class ImproperPrincipleError(LiouvilleError):
    """All base components vanish; ``certainty`` is that of the zero tests
    that found it, and ends the message."""

    def __init__(self, message: str, certainty: str):
        super().__init__(f"{message} ({certainty})")
        self.certainty = certainty


class CertificateError(LiouvilleError):
    pass


# --------------------------------------------------------------------------
# Certificates


@dataclass
class Certificate:
    """One named verification verdict with its certainty tag."""

    name: str
    passed: bool
    certainty: str
    residual: DiffForm | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "verdict": "PASS" if self.passed else "FAIL",
            "certainty": self.certainty,
        }
        if self.detail:
            out["detail"] = self.detail
        if not self.passed and self.residual is not None:
            out["residual"] = serialize_form(self.residual)
        return out


def _zero_certificate(name: str, residual: DiffForm, seed: int) -> Certificate:
    res = form_is_zero(residual, seed)
    return Certificate(name, res.value, res.certainty,
                       residual=None if res.value else residual)


# --------------------------------------------------------------------------
# System bundles


@dataclass
class LiouvilleSystem:
    """Vector field + volume form on P with optional potentials.

    ``params`` maps every declared parameter to an exact rational binding
    or None when it stays symbolic.  It is the one way parameter values
    enter a system (``dataclasses.replace(sys, params=...)``); ``bound()``
    substitutes them, and the checks take the system as given, so bind
    first to decide at the bound values.  ``invariants`` are stored as normal
    forms.  ``checks`` holds the certificates that ``validate_system``
    passed when the system was loaded from a file, and ``bound_copy`` the
    ``bound()`` copy they were decided on, so a loaded system is bound once.
    """

    name: str
    space: Space
    field: VectorField
    omega: DiffForm | None = None
    gamma: DiffForm | None = None
    sigma: DiffForm | None = None
    theta: DiffForm | None = None
    invariants: tuple[NormalForm, ...] = ()
    params: dict[str, Fraction | None] = dc_field(default_factory=dict)
    base_split: tuple[int, tuple[str, str]] | None = None
    warnings: tuple[str, ...] = ()
    checks: tuple[Certificate, ...] = ()
    bound_copy: LiouvilleSystem | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.omega is None:
            self.omega = volume_form(self.space)
        if not self.params:
            self.params = {p: None for p in self.space.parameters}
        self.invariants = tuple(normal_form(e) for e in self.invariants)

    def bound(self) -> "LiouvilleSystem":
        """Copy with bound parameter values substituted everywhere.

        The copy has no pending bindings (its ``params`` are all None), so
        binding it again returns it unchanged.  The bindings are rationals,
        so each coefficient keeps to the declared symbols, and the forms and
        the field are rebuilt without checks.
        """
        mapping = {name: normal_form(value)
                   for name, value in self.params.items() if value is not None}
        if not mapping:
            return self

        def form(a: DiffForm | None) -> DiffForm | None:
            if a is None:
                return None
            return _form(a.space, a.degree, {i: substitute(c, mapping) for i, c in a.nfs.items()})

        return replace(
            self,
            field=_field(self.field.space, tuple(substitute(c, mapping) for c in self.field.nfs)),
            omega=form(self.omega),
            gamma=form(self.gamma),
            sigma=form(self.sigma),
            theta=form(self.theta),
            invariants=tuple(substitute(e, mapping) for e in self.invariants),
            params=dict.fromkeys(self.params),
            bound_copy=None,
        )


@dataclass
class ExtendedSystem:
    """Time-extended bundle: M = R x P, evolution field, and its form.

    ``dtheta_certainty`` is the certainty of the zero test that found
    d(theta) not identically zero.
    """

    space: Space
    field: VectorField
    theta: DiffForm
    dtheta: DiffForm
    base: LiouvilleSystem | None = None
    dtheta_certainty: str = EXACT


def extended_space(space: Space) -> Space:
    if TIME_COORDINATE in space.coordinates:
        raise GeometryError(f"space already has a coordinate named '{TIME_COORDINATE}'")
    m = (Fraction(1),) + space.metric if space.metric is not None else None
    return Space(space.name + "_ext", (TIME_COORDINATE,) + space.coordinates,
                 space.parameters, m)


def promote_form(a: DiffForm, ext: Space) -> DiffForm:
    """Reinterpret a form on P as a form on R x P (indices shift by one);
    ``ext`` is ``extended_space(a.space)``, which declares every symbol of P."""
    return _form(ext, a.degree, {K << 1: c for K, c in a.nfs.items()})


def promote_field(v: VectorField, ext: Space) -> VectorField:
    """d_t + v on R x P; ``ext`` is ``extended_space(v.space)``."""
    return _field(ext, (NF_ONE,) + v.nfs)


def validate_system(sys: LiouvilleSystem, seed: int = DEFAULT_SEED) -> list[Certificate]:
    """Enforce the structural invariants of a system bundle.

    Returns the passed ``gamma_flux_match`` and ``sigma_volume_match``
    certificates (for the potentials the system carries) so that callers
    can report them without recomputing.  The system is taken as given:
    bind first to decide at the bound values.
    """
    space = sys.space
    n = space.dim
    if sys.omega.degree != n:
        raise SystemInvariantError("volume form must have top degree")
    if len(sys.omega.nfs) != 1:
        raise SystemInvariantError("volume form must have a single nonvanishing coefficient")

    def matched(name: str, equation: str, residual: DiffForm) -> Certificate:
        cert = _zero_certificate(name, residual, seed)
        if not cert.passed:
            raise SystemInvariantError(f"{equation}; residual: {serialize_form(residual)}")
        return cert

    certs = []
    if sys.gamma is not None:
        if sys.gamma.degree != n - 2:
            raise SystemInvariantError(f"gamma must have degree {n - 2}")
        flux = interior_product(sys.field, sys.omega)
        certs.append(matched("gamma_flux_match", "gamma does not satisfy d(gamma) = X . Omega",
                             exterior_derivative(sys.gamma) - flux))
    if sys.sigma is not None:
        if sys.sigma.degree != n - 1:
            raise SystemInvariantError(f"sigma must have degree {n - 1}")
        certs.append(matched("sigma_volume_match", "sigma does not satisfy d(sigma) = Omega",
                             exterior_derivative(sys.sigma) - sys.omega))
    if sys.theta is not None:
        ext = extended_space(space)
        if sys.theta.space != ext or sys.theta.degree != n - 1:
            raise SystemInvariantError(
                f"theta must be a degree-{n - 1} form on the extended space")
    if sys.base_split is not None:
        split_verticals(space, sys.base_split)
    return certs


# --------------------------------------------------------------------------
# Liouville condition and measure rescaling


def is_liouville(sys: LiouvilleSystem, seed: int = DEFAULT_SEED) -> Certificate:
    """PASS when the flux X ⌟ Omega is closed, i.e. the flow preserves Omega;
    the system is taken as given: bind first to decide at the bound values."""
    residual = exterior_derivative(interior_product(sys.field, sys.omega))
    return _zero_certificate("liouville_flux_closed", residual, seed)


# --------------------------------------------------------------------------
# Potentials


def solve_gamma(chi: DiffForm, seed: int = DEFAULT_SEED) -> DiffForm:
    """One-axis homotopy potential: returns gamma with d(gamma) = chi.

    Below top degree the input must be closed, as ``form_is_zero`` decides
    d(chi) at ``seed``; then it must be polynomial.  This is the box form
    of the Poincare lemma.  For each coordinate x in order, a component of
    chi whose index holds x (always as its lowest entry, so with no sign)
    adds its antiderivative in x from 0 to gamma on the index without x;
    the other components are set to x = 0, by dropping the monomials in
    x, and go on to the next coordinate.  A volume form rho dx^1 ... dx^n
    so gives (integral of rho in x^1) dx^2 ... dx^n.  Each output
    coefficient is summed once, and nothing is multiplied.
    """
    space = chi.space
    k = chi.degree
    if k < 1:
        raise PotentialError("potential solving requires degree >= 1")
    if k < space.dim:
        closed = form_is_zero(exterior_derivative(chi), seed)
        if not closed.value:
            raise PotentialError("input form is not closed", closed.certainty)
    if any(c.has_trig() for c in chi.nfs.values()):
        raise PotentialError("non-polynomial coefficients: supply the potential explicitly")
    parts: dict[int, list] = {}
    cur = chi.nfs
    for pos, x in enumerate(space.coordinates):
        bit, atom = 1 << pos, (0, x)
        rest = {}
        for K, c in cur.items():
            if K & bit:
                parts.setdefault(K ^ bit, []).append(nf_antiderivative(c, x))
            else:
                kept = nf_from_terms([t for t in c.terms if all(a != atom for a, _e in t[0])])
                if kept.terms:
                    rest[K] = kept
        cur = rest
        if not cur:
            break
    return _form(space, k - 1, {K: nf_add(*forms) for K, forms in parts.items()})


# --------------------------------------------------------------------------
# Extended system


def build_extended(sys: LiouvilleSystem, seed: int = DEFAULT_SEED) -> ExtendedSystem:
    """Assemble M = R x P, Z = d_t + X, and theta = sigma + dt ∧ gamma.

    A theta stored on the system (already living on M) takes precedence
    over the sigma/gamma construction.
    """
    ext = extended_space(sys.space)
    Z = promote_field(sys.field, ext)
    if sys.theta is not None:
        theta = sys.theta
    else:
        sigma = sys.sigma if sys.sigma is not None else solve_gamma(sys.omega, seed)
        gamma = sys.gamma if sys.gamma is not None else solve_gamma(
            interior_product(sys.field, sys.omega), seed)
        dt = basis_form(ext, TIME_COORDINATE)
        theta = promote_form(sigma, ext) + wedge(dt, promote_form(gamma, ext))
    dtheta = exterior_derivative(theta)
    nondeg = form_is_zero(dtheta, seed)
    if nondeg.value:
        raise DegenerateThetaError("d(theta) is identically zero", nondeg.certainty)
    return ExtendedSystem(ext, Z, theta, dtheta, base=sys, dtheta_certainty=nondeg.certainty)


def kernel_residual(ext: ExtendedSystem) -> DiffForm:
    """R = d(theta) - rho * (Z ⌟ vol_M): zero exactly when Z spans the
    kernel of d(theta).

    rho is d(theta)'s coefficient on the spatial top index, the time
    component of W = ``flux_field(d(theta))``, so R = (W - rho Z) ⌟ vol_M.
    Z ⌟ d(theta) = Z ⌟ (W ⌟ vol_M) vanishes exactly when Z ∧ W does, and
    as Z^t = 1 the t-row of Z ∧ W is W - rho Z.  R has one component per
    coordinate, each a single product, where Z ⌟ d(theta) sums products
    on every (n-1)-index of M.
    """
    space = ext.space
    rho = ext.dtheta.get_nf(tuple(range(1, space.dim)))
    return ext.dtheta - interior_product(ext.field, volume_form(space)) * rho


def verify_characteristic(ext: ExtendedSystem, seed: int = DEFAULT_SEED) -> list[Certificate]:
    """Certify Z ⌟ d(theta) = 0, through ``kernel_residual``, and Z ⌟ dt = 1.

    Z ⌟ dt is Z's time component, which ``promote_field`` sets to 1 in
    ``build_extended``, so the normalization is stated PASS (exact).
    """
    annihilation = _zero_certificate("characteristic_annihilation", kernel_residual(ext), seed)
    return [annihilation, Certificate("characteristic_normalization", True, EXACT)]


# --------------------------------------------------------------------------
# Annihilator extraction


def annihilator_field(alpha: DiffForm) -> VectorField:
    """Generator of the rank-one annihilator of a degree-(n-1) form.

    The field Y with Y ⌟ vol = alpha (``flux_field``) contracts to zero
    with alpha, as Y ⌟ (Y ⌟ vol) = 0; every other annihilating field is a
    scalar multiple of it.
    """
    Y = flux_field(alpha)
    if alpha.is_zero_form:
        raise LiouvilleError("annihilator of the zero form is not one-dimensional")
    return Y


def normalize_by_dt(Y: VectorField) -> VectorField:
    """Divide by the first component (exact polynomial division only)."""
    a0 = Y.nfs[0]
    if a0.is_zero():
        raise NormalizationError("field is vertical: no component along the first coordinate")
    comps = []
    for c in Y.nfs:
        quotient = nf_divide(c, a0)
        if quotient is None:
            raise NormalizationError(f"component {render(c)} is not divisible by {render(a0)}")
        comps.append(quotient)
    return _field(Y.space, tuple(comps))


# --------------------------------------------------------------------------
# Base/vertical splits and the characteristic decomposition


def vertical_pair(space: Space, verticals: tuple[str, str] | None = None) -> tuple[str, str]:
    """The vertical pair of a split of ``space``, by default its last two
    coordinates: two distinct coordinates that leave at least one base
    coordinate."""
    pair = space.coordinates[-2:] if verticals is None else tuple(verticals)
    if len(pair) != 2 or pair[0] == pair[1] or any(v not in space.coordinates for v in pair):
        raise GeometryError(f"verticals {pair} must be two distinct coordinates of "
                            f"{', '.join(space.coordinates)}")
    if space.dim < 3:
        raise GeometryError("a maximal-degree split needs at least one base coordinate")
    return pair


def split_verticals(space: Space, split: tuple[int, tuple[str, str]]) -> tuple[str, str]:
    """The vertical pair of a split ``(k, (z, w))`` of the time extension
    of ``space``: the one check of a split, whether a system file or
    ``--base-split`` names it.  The base count k must be dim(M) - 2, and
    the pair is checked by ``vertical_pair``."""
    k, verticals = split
    if k != space.dim - 1:
        raise GeometryError(f"base count {k} must equal {space.dim - 1} for this system")
    return vertical_pair(extended_space(space), verticals)


def split_chart(space: Space, verticals: tuple[str, str] | None = None) -> Space:
    """Return the chart with the two vertical coordinates moved last."""
    z, w = vertical_pair(space, verticals)
    order = tuple(c for c in space.coordinates if c not in (z, w)) + (z, w)
    if order == space.coordinates:
        return space
    return reordered_space(space, order)


@dataclass
class CharacteristicDecomposition:
    """Components (A^mu, f, g), as normal forms, of a degree-(n-1) form
    ``beta`` in a split chart; ``beta`` is the form in that chart."""

    space: Space
    base: tuple[str, ...]
    verticals: tuple[str, str]
    coefficients: tuple[NormalForm, ...]
    f: NormalForm
    g: NormalForm
    beta: DiffForm

    @property
    def k(self) -> int:
        return len(self.base)

    @property
    def field(self) -> VectorField:
        """W = sum_mu A^mu d_mu + f d_z + g d_w in the split chart, built
        without checks: the components come from the checked ``beta``."""
        return _field(self.space, self.coefficients + (self.f, self.g))

    def recompose(self) -> DiffForm:
        """W ⌟ vol in the split chart: the decomposed form."""
        return interior_product(self.field, volume_form(self.space))


def decompose_beta(beta: DiffForm,
                   verticals: tuple[str, str] | None = None) -> CharacteristicDecomposition:
    """Extract (A^mu, f, g) from a degree-(n-1) form in a split chart: the
    components of its ``flux_field`` there.

    The recombination of the output reproduces the input exactly; this is
    asserted before returning.
    """
    chart = split_chart(beta.space, verticals)
    if chart != beta.space:
        beta = reorder_form(beta, chart)
    *coefficients, f, g = flux_field(beta).nfs
    k = chart.dim - 2
    dec = CharacteristicDecomposition(chart, chart.coordinates[:k], chart.coordinates[k:],
                                      tuple(coefficients), f, g, beta)
    if dec.recompose() != beta:
        raise LiouvilleError("internal error: decomposition does not recompose to the input")
    return dec


def characteristic_field(dec: CharacteristicDecomposition, seed: int = DEFAULT_SEED) -> VectorField:
    """``dec.field``; requires a proper principle, as ``is_proper`` decides it."""
    proper = is_proper(dec, seed)
    if not proper.value:
        raise ImproperPrincipleError("all base components vanish: improper principle",
                                     proper.certainty)
    return dec.field


def is_proper(dec: CharacteristicDecomposition, seed: int = DEFAULT_SEED) -> ZeroResult:
    """The base components A^mu of the decomposed form must not all vanish,
    decided by ``all_zero``: the one properness verdict.

    ``value`` is True when they do not all vanish; ``certainty`` is that of
    the zero tests.  A ZeroResult is always truthy: read ``value``.
    """
    vanish = all_zero(dec.coefficients, seed)
    return ZeroResult(not vanish.value, vanish.certainty)


@dataclass
class PsiForms:
    psi1: DiffForm
    psi2: DiffForm


def psi_forms(dec: CharacteristicDecomposition) -> PsiForms:
    """Vertical contractions Psi_1 = d_z ⌟ beta and Psi_2 = d_w ⌟ beta of
    the decomposed form beta, in its split chart.

    W = ``dec.field`` annihilates both: beta = W ⌟ vol (``decompose_beta``
    asserts it), so W ⌟ Psi_i = -(d_i ⌟ (W ⌟ W ⌟ vol)) is zero as a ring
    identity.
    """
    beta = dec.beta
    d_z, d_w = (coordinate_vector(dec.space, v) for v in dec.verticals)
    return PsiForms(interior_product(d_z, beta), interior_product(d_w, beta))


def section_residuals(u_z: NormalForm, u_w: NormalForm,
                      dec: CharacteristicDecomposition) -> tuple[NormalForm, NormalForm]:
    """Quasilinear residuals of a section (z, w) = (u_z(x), u_w(x)).

    r1 = sum_mu A^mu du_w/dx^mu - g and r2 = sum_mu A^mu du_z/dx^mu - f,
    with the section substituted into A, f, g; the section is critical
    exactly when both vanish.
    """
    u_z = normal_form(u_z)
    u_w = normal_form(u_w)
    z, w = dec.verticals
    section = {z: u_z, w: u_w}
    A = [substitute(a, section) for a in dec.coefficients]

    def residual(u, rhs):
        return nf_sum_of_products(
            *((1, a, differentiate(u, x)) for a, x in zip(A, dec.base)),
            (-1, substitute(rhs, section), NF_ONE))

    return residual(u_w, dec.g), residual(u_z, dec.f)


# --------------------------------------------------------------------------
# Hodge duality certificate


def hodge_check(ext: ExtendedSystem, annihilation: Certificate) -> Certificate:
    """Certify d(theta) = rho * sqrt(|g^-1|) * star(Z-flat) for a diagonal metric.

    The metric is the ``diagonal_metric`` of ``ext.space``: the system's
    metric with the time entry 1 in front (``extended_space``), or the
    Euclidean one when the system has none.  Exact duality needs sqrt|det g|
    rational, and ``metric_sqrt_det`` refuses a metric without it.  For a
    diagonal g, star(Z-flat) = sqrt|det g| * (Z ⌟ vol_M), so the right side
    is rho * (Z ⌟ vol_M) and the residual is ``kernel_residual``.
    ``annihilation``, the ``characteristic_annihilation`` certificate of
    ``verify_characteristic``, has decided that residual, so its verdict
    is returned as ``hodge_duality`` and R is not built again.  rho is the
    volume density of the principle (1 for the standard volume form) and
    may be any normal form.
    """
    metric_sqrt_det(diagonal_metric(ext.space))
    return replace(annihilation, name="hodge_duality")
