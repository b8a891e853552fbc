"""Volume-preservation certificates and the characteristic-field pipeline.

Given a vector field X and a volume form on P, this module checks the
divergence-free property, solves or verifies a potential for the flux
X ⌟ Ω, assembles the time-extended contact-like form on R × P, and
extracts/validates the characteristic vector field from its derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Iterable

from .expr import (
    DEFAULT_ZERO_TEST,
    EXACT,
    NF_ONE,
    NormalForm,
    ZeroResult,
    ZeroTestConfig,
    all_zero,
    differentiate,
    is_zero,
    nf_add,
    nf_divide,
    nf_from_terms,
    nf_neg,
    nf_scale,
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
    basis_form,
    coordinate_vector,
    exterior_derivative,
    flux_field,
    form_is_zero,
    hodge_star,
    index_positions,
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
    residual: object | None = None
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
            if isinstance(self.residual, DiffForm):
                out["residual"] = serialize_form(self.residual)
            elif isinstance(self.residual, NormalForm):
                out["residual"] = render(self.residual)
            else:
                out["residual"] = str(self.residual)
        return out


def _zero_certificate(name: str, residual: DiffForm,
                      config: ZeroTestConfig, detail: str = "") -> Certificate:
    res = form_is_zero(residual, config)
    return Certificate(name, res.value, res.certainty,
                       residual=None if res.value else residual, detail=detail)


# --------------------------------------------------------------------------
# System bundles


@dataclass
class LiouvilleSystem:
    """Vector field + volume form on P with optional potentials.

    ``params`` maps every declared parameter to an exact rational binding
    or None when it stays symbolic; bound values are substituted before
    any certificate is evaluated.  ``invariants`` are stored as normal
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

    @property
    def dim(self) -> int:
        return self.space.dim

    def bound(self) -> "LiouvilleSystem":
        """Copy with bound parameter values substituted everywhere.

        The copy has no pending bindings (its ``params`` are all None), so
        binding it again returns it unchanged.
        """
        mapping = {name: normal_form(value)
                   for name, value in self.params.items() if value is not None}
        if not mapping:
            return self

        def form(a: DiffForm | None) -> DiffForm | None:
            if a is None:
                return None
            return DiffForm(a.space, a.degree, {i: substitute(c, mapping) for i, c in a.nfs.items()})

        return replace(
            self,
            field=VectorField(self.field.space, tuple(substitute(c, mapping) for c in self.field.nfs)),
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

    name: str
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
    """Reinterpret a form on P as a form on R x P (indices shift by one)."""
    return DiffForm(ext, a.degree, {K << 1: c for K, c in a.nfs.items()})


def promote_field(v: VectorField, ext: Space, time_component=0) -> VectorField:
    return VectorField(ext, (normal_form(time_component),) + v.nfs)


def validate_system(sys: LiouvilleSystem,
                    config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> list[Certificate]:
    """Enforce the structural invariants of a system bundle.

    Returns the passed ``gamma_flux_match`` and ``sigma_volume_match``
    certificates (for the potentials the system carries) so that callers
    can report them without recomputing.
    """
    space = sys.space
    n = space.dim
    if sys.omega.degree != n:
        raise SystemInvariantError("volume form must have top degree")
    if len(sys.omega.nfs) != 1:
        raise SystemInvariantError("volume form must have a single nonvanishing coefficient")
    b = sys.bound()
    certs = []
    if sys.gamma is not None:
        if sys.gamma.degree != n - 2:
            raise SystemInvariantError(f"gamma must have degree {n - 2}")
        residual = exterior_derivative(b.gamma) - interior_product(b.field, b.omega)
        res = form_is_zero(residual, config)
        if not res.value:
            raise SystemInvariantError(
                "gamma does not satisfy d(gamma) = X . Omega; residual: "
                + str(serialize_form(residual)))
        certs.append(Certificate("gamma_flux_match", True, res.certainty))
    if sys.sigma is not None:
        if sys.sigma.degree != n - 1:
            raise SystemInvariantError(f"sigma must have degree {n - 1}")
        residual = exterior_derivative(b.sigma) - b.omega
        res = form_is_zero(residual, config)
        if not res.value:
            raise SystemInvariantError(
                "sigma does not satisfy d(sigma) = Omega; residual: "
                + str(serialize_form(residual)))
        certs.append(Certificate("sigma_volume_match", True, res.certainty))
    if sys.theta is not None:
        ext = extended_space(space)
        if sys.theta.space != ext or sys.theta.degree != n - 1:
            raise SystemInvariantError(
                f"theta must be a degree-{n - 1} form on the extended space")
    if sys.base_split is not None:
        k, verts = sys.base_split
        if k != n - 1:
            raise SystemInvariantError("base_split must name k = dim(M)-2 and two vertical coordinates")
        vertical_pair(extended_space(space), verts)
    return certs


# --------------------------------------------------------------------------
# Liouville condition and measure rescaling


def is_liouville(sys: LiouvilleSystem, config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> Certificate:
    """PASS when the flux X ⌟ Omega is closed, i.e. the flow preserves Omega."""
    b = sys.bound()
    residual = exterior_derivative(interior_product(b.field, b.omega))
    return _zero_certificate("liouville_flux_closed", residual, config)


# --------------------------------------------------------------------------
# Potentials


def solve_gamma(chi: DiffForm, config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> DiffForm:
    """Radial homotopy potential: returns gamma with d(gamma) = chi.

    The input must be closed, as ``form_is_zero`` decides d(chi) at
    ``config``, and then polynomial.  The operator is rational-linear on
    monomials: each term c m dx^I, with m of coordinate degree d,
    contributes sum_j (-1)^(j-1) c / (k + d) m x^(i_j) dx^(I without i_j).
    The contributions are collected per output index by ``nf_from_terms``,
    so nothing is multiplied but monomials by one coordinate.
    """
    space = chi.space
    k = chi.degree
    if k < 1:
        raise PotentialError("potential solving requires degree >= 1")
    if k < space.dim:
        closed = form_is_zero(exterior_derivative(chi), config)
        if not closed.value:
            raise PotentialError("input form is not closed", closed.certainty)
    if any(c.has_trig() for c in chi.nfs.values()):
        raise PotentialError("non-polynomial coefficients: supply the potential explicitly")
    # every atom is a symbol now; a coordinate's is (0, name)
    positions = [(0, x) for x in space.coordinates]
    coords = set(positions)
    terms: dict[int, list] = {}
    for K, c in chi.nfs.items():
        targets = [(terms.setdefault(K ^ (1 << pos), []).append, j % 2, positions[pos])
                   for j, pos in enumerate(index_positions(K))]
        for mono, coeff in c.terms:
            exps = dict(mono)
            q = Fraction(coeff, k + sum(e for atom, e in mono if atom in coords))
            signed = (q, -q)
            for append, odd, x in targets:
                append((tuple(sorted({**exps, x: exps.get(x, 0) + 1}.items())), signed[odd]))
    return DiffForm(space, k - 1, {K: nf_from_terms(pairs) for K, pairs in terms.items()})


def default_sigma(space: Space, omega: DiffForm | None = None) -> DiffForm:
    """x^1 dx^2 ∧ ... ∧ dx^N, valid only for the standard volume form."""
    if omega is not None and omega != volume_form(space):
        raise PotentialError("nonstandard volume form: supply sigma explicitly")
    n = space.dim
    return DiffForm(space, n - 1, {tuple(range(1, n)): space.parse(space.coordinates[0])})


# --------------------------------------------------------------------------
# Extended system


def build_extended(sys: LiouvilleSystem,
                   config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> ExtendedSystem:
    """Assemble M = R x P, Z = d_t + X, and theta = sigma + dt ∧ gamma.

    A theta stored on the system (already living on M) takes precedence
    over the sigma/gamma construction.
    """
    ext = extended_space(sys.space)
    Z = promote_field(sys.field, ext, time_component=1)
    if sys.theta is not None:
        theta = sys.theta
    else:
        sigma = sys.sigma if sys.sigma is not None else default_sigma(sys.space, sys.omega)
        gamma = sys.gamma if sys.gamma is not None else solve_gamma(
            interior_product(sys.field, sys.omega), config)
        dt = basis_form(ext, TIME_COORDINATE)
        theta = promote_form(sigma, ext) + wedge(dt, promote_form(gamma, ext))
    dtheta = exterior_derivative(theta)
    nondeg = form_is_zero(dtheta, config)
    if nondeg.value:
        raise DegenerateThetaError("d(theta) is identically zero", nondeg.certainty)
    return ExtendedSystem(sys.name, ext, Z, theta, dtheta, base=sys,
                          dtheta_certainty=nondeg.certainty)


def verify_characteristic(ext: ExtendedSystem,
                          config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> list[Certificate]:
    """Certify Z ⌟ d(theta) = 0 and Z ⌟ dt = 1."""
    annihilation = interior_product(ext.field, ext.dtheta)
    cert1 = _zero_certificate("characteristic_annihilation", annihilation, config)
    # Z ⌟ dt is Z's time component
    normalization = nf_add(ext.field.nfs[0], nf_neg(NF_ONE))
    res = is_zero(normalization, config)
    cert2 = Certificate("characteristic_normalization", res.value, res.certainty,
                        residual=None if res.value else normalization)
    return [cert1, cert2]


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
    return VectorField(Y.space, tuple(comps))


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
        """W = sum_mu A^mu d_mu + f d_z + g d_w in the split chart."""
        return VectorField(self.space, self.coefficients + (self.f, self.g))

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


def characteristic_field(dec: CharacteristicDecomposition,
                         config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> VectorField:
    """``dec.field``; requires a proper principle, as ``is_proper`` decides it."""
    proper = is_proper(dec, config)
    if not proper.value:
        raise ImproperPrincipleError("all base components vanish: improper principle",
                                     proper.certainty)
    return dec.field


def is_proper(dec: CharacteristicDecomposition,
              config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> ZeroResult:
    """The base components A^mu of the decomposed form must not all vanish,
    decided by ``all_zero``: the one properness verdict.

    ``value`` is True when they do not all vanish; ``certainty`` is that of
    the zero tests.  A ZeroResult is always truthy: read ``value``.
    """
    vanish = all_zero(dec.coefficients, config)
    return ZeroResult(not vanish.value, vanish.certainty)


@dataclass
class PsiForms:
    psi1: DiffForm
    psi2: DiffForm
    certificates: list[Certificate]


def psi_forms(dec: CharacteristicDecomposition,
              config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> PsiForms:
    """Vertical contractions Psi_i of the decomposed form beta, in its split
    chart, plus the W ⌟ Psi_i = 0 certificates.

    Psi_1 = d_z ⌟ beta and Psi_2 = d_w ⌟ beta.  Interior products
    anticommute, so W ⌟ Psi_i is taken as -(d_z ⌟ (W ⌟ beta)) and
    -(d_w ⌟ (W ⌟ beta)), contracting W with beta once.  W is ``dec.field``:
    the caller decides properness first, as ``cmd_verify`` does.
    """
    beta = dec.beta
    d_z, d_w = (coordinate_vector(dec.space, v) for v in dec.verticals)
    psi1 = interior_product(d_z, beta)
    psi2 = interior_product(d_w, beta)
    w_beta = interior_product(dec.field, beta)
    certs = [
        _zero_certificate("psi1_annihilated_by_W", -interior_product(d_z, w_beta), config),
        _zero_certificate("psi2_annihilated_by_W", -interior_product(d_w, w_beta), config),
    ]
    return PsiForms(psi1, psi2, certs)


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


def hodge_check(ext: ExtendedSystem, metric: Iterable[Fraction] | None = None,
                config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> Certificate:
    """Verify d(theta) = c * sqrt(|g^-1|) * star(Z-flat) for a diagonal metric.

    The metric covers the extended space with its time entry equal to 1;
    when omitted, the base system's metric (or the Euclidean one) is used.
    The constant c is the coefficient of d(theta) on the spatial top
    index, i.e. the effective volume scale of the principle (1 for the
    standard volume form).
    """
    space = ext.space
    if metric is not None:
        g = tuple(Fraction(x) for x in metric)
    elif space.metric is not None:
        g = space.metric
    else:
        g = tuple(Fraction(1) for _ in range(space.dim))
    if len(g) != space.dim:
        raise GeometryError("metric length must equal the extended dimension")
    if g[0] != 1:
        raise GeometryError("the time entry of the extended metric must be 1")
    sqrt_det = metric_sqrt_det(g)
    spatial_top = tuple(range(1, space.dim))
    scale_nf = ext.dtheta.get_nf(spatial_top)
    if not scale_nf.is_constant() or scale_nf.is_zero():
        raise GeometryError("duality check requires a constant nonzero effective volume coefficient")
    scale = scale_nf.constant_value()
    z_flat = DiffForm(space, 1, {(i,): nf_scale(c, g[i]) for i, c in enumerate(ext.field.nfs)})
    dual = hodge_star(z_flat, g) * (scale / sqrt_det)
    residual = ext.dtheta - dual
    return _zero_certificate("hodge_duality", residual, config)


# --------------------------------------------------------------------------
# Convenience round trip used by reports and tests


def roundtrip_characteristic(ext: ExtendedSystem) -> VectorField:
    """annihilator_field(d theta) normalized by its time component."""
    return normalize_by_dt(annihilator_field(ext.dtheta))
