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
    differentiate,
    is_zero,
    nf_add,
    nf_divide,
    nf_neg,
    nf_scale,
    nf_sum_of_products,
    nf_term,
    normal_form,
    render,
    substitute,
)
from .exterior import (
    DegreeError,
    DiffForm,
    GeometryError,
    Space,
    VectorField,
    basis_form,
    coordinate_vector,
    exterior_derivative,
    form_is_zero,
    hodge_star,
    interior_product,
    reorder_form,
    reordered_space,
    serialize_form,
    volume_form,
    wedge,
    _sqrt_fraction,
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
    pass


class NormalizationError(LiouvilleError):
    pass


class ImproperPrincipleError(LiouvilleError):
    pass


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


def extended_space(space: Space, metric: Iterable[Fraction] | None = None) -> Space:
    if TIME_COORDINATE in space.coordinates:
        raise GeometryError(f"space already has a coordinate named '{TIME_COORDINATE}'")
    m = tuple(metric) if metric is not None else None
    if m is None and space.metric is not None:
        m = (Fraction(1),) + space.metric
    return Space(space.name + "_ext", (TIME_COORDINATE,) + space.coordinates,
                 space.parameters, m)


def promote_form(a: DiffForm, ext: Space) -> DiffForm:
    """Reinterpret a form on P as a form on R x P (indices shift by one)."""
    return DiffForm(ext, a.degree, {tuple(i + 1 for i in idx): c for idx, c in a.nfs.items()})


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
        if k != n - 1 or len(verts) != 2 or any(v not in (TIME_COORDINATE,) + space.coordinates for v in verts):
            raise SystemInvariantError("base_split must name k = dim(M)-2 and two vertical coordinates")
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


def solve_gamma(chi: DiffForm) -> DiffForm:
    """Radial homotopy potential: returns gamma with d(gamma) = chi.

    Requires polynomial coefficients and a closed input; each monomial
    c dx^I of coordinate degree d contributes
    sum_j (-1)^(j-1) x^(i_j) c / (k + d) dx^(I without i_j).
    """
    space = chi.space
    k = chi.degree
    if k < 1:
        raise PotentialError("potential solving requires degree >= 1")
    if any(c.has_trig() for c in chi.nfs.values()):
        raise PotentialError("non-polynomial coefficients: supply the potential explicitly")
    if k < space.dim:
        closure = exterior_derivative(chi)
        if not closure.is_zero_form:
            raise PotentialError("input form is not closed")
    coords = set(space.coordinates)
    position_nf = [space.parse(c) for c in space.coordinates]
    acc: dict[tuple[int, ...], list] = {}
    for idx, c in chi.nfs.items():
        for mono, coeff in c.terms:
            coord_degree = sum(e for (kind, payload), e in mono
                               if kind == 0 and payload in coords)
            term = nf_term(mono, Fraction(coeff, k + coord_degree))
            for j, pos in enumerate(idx):
                acc.setdefault(idx[:j] + idx[j + 1:], []).append(
                    (-1 if j % 2 else 1, position_nf[pos], term))
    return DiffForm(space, k - 1, {idx: nf_sum_of_products(*products)
                                   for idx, products in acc.items()})


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
            interior_product(sys.field, sys.omega))
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
    dt = basis_form(ext.space, TIME_COORDINATE)
    normalization = nf_add(interior_product(ext.field, dt).get_nf(()), nf_neg(NF_ONE))
    res = is_zero(normalization, config)
    cert2 = Certificate("characteristic_normalization", res.value, res.certainty,
                        residual=None if res.value else normalization)
    return [cert1, cert2]


# --------------------------------------------------------------------------
# Annihilator extraction


def annihilator_field(alpha: DiffForm) -> VectorField:
    """Generator of the rank-one annihilator of a degree-(n-1) form.

    With alpha = sum_mu A^mu (d_mu ⌟ vol), the field A^mu d_mu contracts
    to zero with alpha; every other annihilating field is a scalar
    multiple of it.
    """
    space = alpha.space
    n = space.dim
    if alpha.degree != n - 1:
        raise DegreeError("annihilator extraction requires degree n-1")
    if alpha.is_zero_form:
        raise LiouvilleError("annihilator of the zero form is not one-dimensional")
    comps = []
    for mu in range(n):
        c = alpha.get_nf(tuple(i for i in range(n) if i != mu))
        comps.append(nf_neg(c) if mu % 2 else c)
    return VectorField(space, tuple(comps))


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


def split_chart(space: Space, verticals: tuple[str, str] | None = None) -> Space:
    """Return the chart with the two vertical coordinates moved last."""
    if verticals is None:
        verticals = space.coordinates[-2:]
    z, w = verticals
    if z not in space.coordinates or w not in space.coordinates or z == w:
        raise GeometryError(f"verticals {verticals} must be two distinct coordinates")
    base = tuple(c for c in space.coordinates if c not in (z, w))
    if len(base) < 1:
        raise GeometryError("a maximal-degree split needs at least one base coordinate")
    order = base + (z, w)
    if order == space.coordinates:
        return space
    return reordered_space(space, order)


@dataclass
class CharacteristicDecomposition:
    """Components (A^mu, f, g), as normal forms, of a degree-(n-1) form in a
    split chart."""

    space: Space
    base: tuple[str, ...]
    verticals: tuple[str, str]
    coefficients: tuple[NormalForm, ...]
    f: NormalForm
    g: NormalForm

    @property
    def k(self) -> int:
        return len(self.base)

    def recompose(self) -> DiffForm:
        k = self.k
        zpos, wpos = k, k + 1
        coeffs = {}
        for mu, a in enumerate(self.coefficients):
            coeffs[tuple(i for i in range(k) if i != mu) + (zpos, wpos)] = nf_neg(a) if mu % 2 else a
        base_idx = tuple(range(k))
        f, g = (nf_neg(self.f), self.g) if k % 2 else (self.f, nf_neg(self.g))
        coeffs[base_idx + (wpos,)] = f
        coeffs[base_idx + (zpos,)] = g
        return DiffForm(self.space, self.space.dim - 1, coeffs)


def decompose_beta(beta: DiffForm, verticals: tuple[str, str] | None = None,
                   config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> CharacteristicDecomposition:
    """Extract (A^mu, f, g) from a degree-(n-1) form in a split chart.

    The recombination of the output reproduces the input exactly; this is
    asserted before returning.
    """
    space = beta.space
    n = space.dim
    if beta.degree != n - 1:
        raise DegreeError("decomposition requires a degree-(n-1) form")
    chart = split_chart(space, verticals)
    if chart != space:
        beta = reorder_form(beta, chart)
    k = n - 2
    zpos, wpos = k, k + 1
    coefficients = []
    for mu in range(k):
        c = beta.get_nf(tuple(i for i in range(k) if i != mu) + (zpos, wpos))
        coefficients.append(nf_neg(c) if mu % 2 else c)
    base_idx = tuple(range(k))
    f = beta.get_nf(base_idx + (wpos,))
    g = nf_neg(beta.get_nf(base_idx + (zpos,)))
    if k % 2:
        f, g = nf_neg(f), nf_neg(g)
    dec = CharacteristicDecomposition(
        chart, chart.coordinates[:k], (chart.coordinates[k], chart.coordinates[k + 1]),
        tuple(coefficients), f, g)
    if dec.recompose() != beta:
        raise LiouvilleError("internal error: decomposition does not recompose to the input")
    return dec


def characteristic_field(dec: CharacteristicDecomposition,
                         config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> VectorField:
    """W = sum_mu A^mu d_mu + f d_z + g d_w; requires a proper principle."""
    if all(is_zero(a, config).value for a in dec.coefficients):
        raise ImproperPrincipleError("all base components vanish: improper principle")
    return VectorField(dec.space, dec.coefficients + (dec.f, dec.g))


def is_proper(beta: DiffForm, verticals: tuple[str, str] | None = None,
              config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> ZeroResult:
    """Double vertical contraction of beta must not vanish identically.

    ``value`` is True when it does not vanish; ``certainty`` is that of its
    zero test.  A ZeroResult is always truthy: read ``value``.
    """
    space = beta.space
    if verticals is None:
        verticals = space.coordinates[-2:]
    z, w = verticals
    inner = interior_product(coordinate_vector(space, w), beta)
    inner = interior_product(coordinate_vector(space, z), inner)
    vanishes = form_is_zero(inner, config)
    return ZeroResult(not vanishes.value, vanishes.certainty)


@dataclass
class PsiForms:
    psi1: DiffForm
    psi2: DiffForm
    certificates: list[Certificate]


def psi_forms(beta: DiffForm, verticals: tuple[str, str] | None = None,
              config: ZeroTestConfig = DEFAULT_ZERO_TEST) -> PsiForms:
    """Vertical contractions Psi_i of beta plus the W ⌟ Psi_i = 0 certificates.

    Psi_1 = d_z ⌟ beta and Psi_2 = d_w ⌟ beta.  Interior products
    anticommute, so W ⌟ Psi_i is taken as -(d_z ⌟ (W ⌟ beta)) and
    -(d_w ⌟ (W ⌟ beta)), contracting W with beta once.
    """
    space = beta.space
    chart = split_chart(space, verticals)
    if chart != space:
        beta = reorder_form(beta, chart)
    z, w = chart.coordinates[-2], chart.coordinates[-1]
    d_z, d_w = coordinate_vector(chart, z), coordinate_vector(chart, w)
    psi1 = interior_product(d_z, beta)
    psi2 = interior_product(d_w, beta)
    dec = decompose_beta(beta, (z, w), config)
    W = characteristic_field(dec, config)
    w_beta = interior_product(W, beta)
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
    det_abs = Fraction(1)
    for x in g:
        det_abs *= abs(x)
    sqrt_det = _sqrt_fraction(det_abs)
    if sqrt_det is None:
        raise GeometryError("metric determinant must be a perfect rational square")
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
