"""Builders for the bundled dynamical systems plus JSON system files.

Every builder returns a system whose structural invariants have been
verified at construction time (potentials match fluxes, symplectic data
is nondegenerate, declared first integrals are annihilated by the flow).
Builders self-check at the default zero-test seed (``DEFAULT_SEED``);
only ``system_from_dict`` and ``load_system`` take a seed, so that a
command's seed reaches the checks of the file it loads.  Builders take no
parameter values (``build_euler_top``'s inertia moments define its
coefficients): their parameters stay symbolic, and a caller binds them
through ``LiouvilleSystem.params``, ``dataclasses.replace(sys, params=...)``,
as system files and ``integrate --param`` do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .expr import (
    DEFAULT_SEED,
    NF_ZERO,
    ExprError,
    ParseError,
    NormalForm,
    differentiate,
    is_zero,
    nf_add,
    nf_antiderivative,
    nf_mul,
    nf_neg,
    nf_pow,
    nf_scale,
    nf_sum_of_products,
    normal_form,
    parse_rational,
    render,
)
from .exterior import (
    DiffForm,
    GeometryError,
    Space,
    VectorField,
    basis_form,
    constant_form,
    deserialize_field,
    deserialize_form,
    exterior_derivative,
    fields_equal,
    flux_field,
    serialize_field,
    serialize_form,
    volume_form,
    wedge,
    wedge_power,
)
from .liouville import (
    CertificateError,
    ExtendedSystem,
    LiouvilleError,
    LiouvilleSystem,
    SystemInvariantError,
    TIME_COORDINATE,
    build_extended,
    extended_space,
    promote_form,
    validate_system,
    verify_characteristic,
)


class SystemFileError(Exception):
    pass


# --------------------------------------------------------------------------
# Fields from forms


def _constant_coefficient(nf: NormalForm, what: str) -> Fraction:
    if not nf.is_constant():
        raise LiouvilleError(f"{what} must have constant coefficients, got {render(nf)}")
    return nf.constant_value()


def symplectic_powers(omega: DiffForm) -> tuple[DiffForm, NormalForm]:
    """zeta = omega^(m-1) and c with omega^m = c vol, for a 2-form on R^{2m}.

    The one place that takes a symplectic form's powers (one ``wedge_power``
    call); c is a normal form, zero when omega is degenerate or the
    dimension is odd (which leaves the top index empty).
    """
    dim = omega.space.dim
    zeta = wedge_power(omega, dim // 2 - 1)
    return zeta, wedge(omega, zeta).nfs.get((1 << dim) - 1, NF_ZERO)


def _symplectic_gradient(powers: tuple[DiffForm, NormalForm],
                         hamiltonian: NormalForm) -> VectorField:
    """X = (m/c) flux_field(dH ∧ zeta) from ``symplectic_powers(omega)``.

    Liouville's identity X ⌟ omega^m = m (X ⌟ omega) ∧ omega^(m-1) on
    R^{2m} makes it the unique X with X ⌟ omega = dH.
    """
    zeta, top = powers
    space = zeta.space
    c = _constant_coefficient(top, "top power of the symplectic form")
    if c == 0:
        raise LiouvilleError("degenerate symplectic form: its top power vanishes")
    h = normal_form(hamiltonian)
    dH = DiffForm(space, 1, {(i,): differentiate(h, x) for i, x in enumerate(space.coordinates)})
    return flux_field(wedge(dH, zeta)) * Fraction(space.dim // 2, c)


def symplectic_field(omega: DiffForm, hamiltonian: NormalForm) -> VectorField:
    """Unique X with X ⌟ omega = dH for a constant nondegenerate 2-form."""
    if omega.degree != 2:
        raise LiouvilleError("symplectic input must be a 2-form")
    return _symplectic_gradient(symplectic_powers(omega), hamiltonian)


# --------------------------------------------------------------------------
# Checks shared by builders


def _check_invariants(sys: LiouvilleSystem) -> None:
    """Each declared invariant is annihilated by the field of ``sys``, taken
    as given: bind first to decide at the bound values."""
    for inv in sys.invariants:
        verdict = is_zero(sys.field.apply_to_nf(inv))
        if not verdict.value:
            raise SystemInvariantError(
                f"declared invariant {render(inv)} is not conserved by the field")


def _validate(sys: LiouvilleSystem) -> None:
    """``validate_system`` and ``_check_invariants`` on one bound copy."""
    b = sys.bound()
    validate_system(b)
    _check_invariants(b)


# --------------------------------------------------------------------------
# Hamiltonian systems


def canonical_symplectic(space: Space, m: int) -> DiffForm:
    acc = DiffForm(space, 2, {})
    for i in range(m):
        acc = acc + basis_form(space, space.coordinates[2 * i], space.coordinates[2 * i + 1])
    return acc


def canonical_potential(space: Space, m: int) -> DiffForm:
    """rho = (1/m) sum q_i dp_i, so that m * d(rho) equals the symplectic form."""
    coeffs = {}
    for i in range(m):
        coeffs[(2 * i + 1,)] = space.parse(f"1/{m}*{space.coordinates[2 * i]}")
    return DiffForm(space, 1, coeffs)


def build_hamiltonian(hamiltonian: NormalForm | str, m: int,
                      name: str | None = None) -> LiouvilleSystem:
    """Canonical system on R^{2m} with interleaved coordinates q_i, p_i.

    X solves X ⌟ omega = dH; the flux potential is H * zeta with
    zeta = omega^(m-1)/(m-1)!, and sigma = rho ∧ zeta.
    """
    if m < 1:
        raise LiouvilleError("half-dimension must be at least 1")
    if m == 1:
        coords = ("q", "p")
    else:
        coords = tuple(n for i in range(1, m + 1) for n in (f"q{i}", f"p{i}"))
    space = Space(name or f"hamiltonian_m{m}", coords)
    H = hamiltonian if isinstance(hamiltonian, NormalForm) else space.parse(hamiltonian)
    powers = symplectic_powers(canonical_symplectic(space, m))
    X = _symplectic_gradient(powers, H)
    zeta = powers[0] * Fraction(1, math.factorial(m - 1))
    gamma = zeta * H
    rho = canonical_potential(space, m)
    sigma = wedge(rho, zeta)
    sys = LiouvilleSystem(name or f"hamiltonian_m{m}", space, X,
                          gamma=gamma, sigma=sigma, invariants=(H,))
    _validate(sys)
    return sys


# --------------------------------------------------------------------------
# Nambu systems


def build_nambu(hamiltonians: Sequence[NormalForm | str], name: str = "nambu") -> LiouvilleSystem:
    """Field defined by X ⌟ Omega = dH_2 ∧ ... ∧ dH_n on R^n, with
    coordinates x1, ..., xn."""
    coords = tuple(f"x{i}" for i in range(1, len(hamiltonians) + 2))
    space = Space(name, coords)
    hs = [h if isinstance(h, NormalForm) else space.parse(h) for h in hamiltonians]
    chi = constant_form(space)
    dhs = []
    for h in hs:
        dhs.append(DiffForm(space, 1, {(i,): differentiate(h, x) for i, x in enumerate(coords)}))
    for dh in dhs:
        chi = wedge(chi, dh)
    X = flux_field(chi)
    gamma = constant_form(space, hs[0])
    for dh in dhs[1:]:
        gamma = wedge(gamma, dh)
    sys = LiouvilleSystem(name, space, X, gamma=gamma, invariants=tuple(hs))
    _validate(sys)
    return sys


# --------------------------------------------------------------------------
# Hyperhamiltonian systems


@dataclass
class HyperkahlerData:
    """Three constant symplectic structures with Hamiltonians and potentials."""

    space: Space
    omegas: tuple[DiffForm, DiffForm, DiffForm]
    hamiltonians: tuple[NormalForm, NormalForm, NormalForm]
    potentials: tuple[DiffForm, DiffForm, DiffForm]


def validate_hyperkahler(data: HyperkahlerData) -> list[tuple[DiffForm, NormalForm]]:
    """Check the data invariants: dimension 4N, d(rho_a) = omega_a, each
    omega_a nondegenerate, and one sign for the three top powers.

    Returns ``symplectic_powers(omega_a)`` for each a."""
    if data.space.dim % 4:
        raise LiouvilleError("hyperkahler data requires dimension 4N")
    signs = set()
    powers = []
    for i, (omega, rho) in enumerate(zip(data.omegas, data.potentials), start=1):
        if omega.degree != 2 or rho.degree != 1:
            raise LiouvilleError("omegas must be 2-forms and potentials 1-forms")
        if exterior_derivative(rho) != omega:
            raise SystemInvariantError(f"d(rho_{i}) does not equal omega_{i}")
        zeta, top = symplectic_powers(omega)
        if top.is_zero():
            raise LiouvilleError(f"omega_{i} is degenerate: its top power vanishes")
        signs.add(1 if _constant_coefficient(top, "top power") > 0 else -1)
        powers.append((zeta, top))
    if len(signs) != 1:
        raise LiouvilleError("the three symplectic structures have mixed duality signs")
    return powers


def build_hyperhamiltonian(data: HyperkahlerData, name: str = "hyperhamiltonian") -> ExtendedSystem:
    """Sum the three symplectic gradients and build the extended form.

    theta = sum_a rho_a ∧ zeta_a + 6N * sum_a H^a zeta_a ∧ dt with
    zeta_a the (2N-1)-th power of omega_a, after ``validate_hyperkahler``;
    X_a, the field of ``symplectic_field(omega_a, H^a)``, and zeta_a are
    both read from one ``symplectic_powers(omega_a)``.  The resulting
    characteristic identities are verified before returning.
    """
    powers = validate_hyperkahler(data)
    space = data.space
    N = space.dim // 4
    ext_sp = extended_space(space)
    dt = basis_form(ext_sp, TIME_COORDINATE)
    X = None
    theta = DiffForm(ext_sp, space.dim - 1, {})
    for (zeta, top), h, rho in zip(powers, data.hamiltonians, data.potentials):
        Xa = _symplectic_gradient((zeta, top), h)
        X = Xa if X is None else X + Xa
        theta = theta + wedge(promote_form(rho, ext_sp), promote_form(zeta, ext_sp))
        theta = theta + wedge(promote_form(zeta * h, ext_sp), dt) * (6 * N)
    ext = build_extended(LiouvilleSystem(name, space, X, theta=theta))
    certs = verify_characteristic(ext)
    failed = [c for c in certs if not c.passed]
    if failed:
        raise CertificateError(
            "hyperhamiltonian construction failed verification: "
            + ", ".join(c.name for c in failed))
    validate_system(ext.base)
    return ext


# --------------------------------------------------------------------------
# Rigid-body rotations


def build_euler_top(inertia: tuple | None = None) -> LiouvilleSystem:
    """Free rigid-body angular-velocity flow on R^3.

    With inertia moments given, the quadratic coefficients mu_i are bound
    to exact rationals and the energy and squared angular momentum are
    registered as invariants; otherwise the mu_i stay symbolic.
    """
    if inertia is not None:
        I1, I2, I3 = (Fraction(v) for v in inertia)
        if 0 in (I1, I2, I3):
            raise LiouvilleError("inertia moments must be nonzero")
        mu_values = ((I2 - I3) / I1, (I3 - I1) / I2, (I1 - I2) / I3)
        parameters = ("I1", "I2", "I3", "mu1", "mu2", "mu3")
        bindings = dict(zip(parameters, (I1, I2, I3) + mu_values))
    else:
        parameters = ("mu1", "mu2", "mu3")
        bindings = {p: None for p in parameters}
    space = Space("euler_top", ("x1", "x2", "x3"), parameters)
    X = VectorField(space, tuple(map(space.parse, ("mu1*x2*x3", "mu2*x3*x1", "mu3*x1*x2"))))
    gamma = DiffForm(space, 1, {
        (0,): space.parse("1/2*mu2*x1*x3^2"),
        (1,): space.parse("1/2*mu3*x2*x1^2"),
        (2,): space.parse("1/2*mu1*x3*x2^2"),
    })
    if inertia is not None:
        invariants = ("1/2*(I1*x1^2 + I2*x2^2 + I3*x3^2)", "I1^2*x1^2 + I2^2*x2^2 + I3^2*x3^2")
    else:
        invariants = ("mu2*x1^2 - mu1*x2^2", "mu3*x2^2 - mu2*x3^2")
    sys = LiouvilleSystem("euler_top", space, X, gamma=gamma,
                          invariants=tuple(map(space.parse, invariants)),
                          params={p: bindings[p] for p in parameters})
    _validate(sys)
    return sys


# --------------------------------------------------------------------------
# Beltrami flow on the three-torus chart


def _abc_components(space: Space, corrected: bool) -> tuple[NormalForm, ...]:
    if corrected:
        texts = ("A*sin(x3) + C*cos(x2)", "B*sin(x1) + A*cos(x3)", "C*sin(x2) + B*cos(x1)")
    else:
        texts = ("A*sin(x1) + C*cos(x2)", "B*sin(x1) + A*cos(x2)", "C*sin(x2) + B*cos(x1)")
    return tuple(map(space.parse, texts))


def build_abc_flow() -> LiouvilleSystem:
    """Solenoidal Beltrami field: the curl of the field equals the field.

    The flux potential is the one-form with the same components as the
    field, supplied explicitly because of the trigonometric coefficients.
    """
    space = Space("abc_flow", ("x1", "x2", "x3"), ("A", "B", "C"))
    comps = _abc_components(space, corrected=True)
    X = VectorField(space, comps)
    gamma = DiffForm(space, 1, {(i,): comp for i, comp in enumerate(comps)})
    sys = LiouvilleSystem("abc_flow", space, X, gamma=gamma)
    validate_system(sys)
    return sys


def build_abc_flow_variant() -> LiouvilleSystem:
    """Non-solenoidal variant kept as a negative control; it fails the
    volume-preservation certificate and ships without a flux potential."""
    space = Space("abc_paper_verbatim", ("x1", "x2", "x3"), ("A", "B", "C"))
    X = VectorField(space, _abc_components(space, corrected=False))
    sys = LiouvilleSystem("abc_paper_verbatim", space, X)
    validate_system(sys)
    return sys


# --------------------------------------------------------------------------
# Charged particle in a stationary magnetic field


def build_charged_particle(B: Iterable[NormalForm | str], parameters: Iterable[str] = (),
                           name: str = "charged_particle") -> LiouvilleSystem:
    """First-order system on R^6 for a particle steered by a magnetic field.

    ``B`` gives three polynomial components over the position coordinates;
    the acceleration is the velocity crossed with B, scaled by the
    charge-to-mass ratio k.  A nonzero divergence of B is physically
    suspect and is reported as a warning without blocking the build.
    """
    space = Space(name, ("x1", "x2", "x3", "v1", "v2", "v3"), ("k",) + tuple(parameters))
    xs = space.coordinates[:3]
    vs = space.coordinates[3:]
    b_comps = []
    for comp in B:
        b = comp if isinstance(comp, NormalForm) else space.parse(comp)
        bad = b.free_symbols() & set(vs)
        if bad:
            raise LiouvilleError(f"magnetic field must not depend on velocities {sorted(bad)}")
        if b.has_trig():
            raise LiouvilleError("magnetic components must be polynomial")
        b_comps.append(b)
    if len(b_comps) != 3:
        raise LiouvilleError("the magnetic field needs three components")
    kk, v1, v2, v3 = map(space.parse, ("k",) + vs)
    kv1, kv2, kv3 = (nf_mul(kk, v) for v in (v1, v2, v3))
    B1, B2, B3 = b_comps
    w = (nf_sum_of_products((1, kv2, B3), (-1, kv3, B2)),
         nf_sum_of_products((1, kv3, B1), (-1, kv1, B3)),
         nf_sum_of_products((1, kv1, B2), (-1, kv2, B1)))
    X = VectorField(space, (v1, v2, v3) + w)

    omega_i = [basis_form(space, xs[i], vs[i]) for i in range(3)]
    omega = wedge(wedge(omega_i[0], omega_i[1]), omega_i[2])
    pair = [wedge(omega_i[1], omega_i[2]), wedge(omega_i[2], omega_i[0]), wedge(omega_i[0], omega_i[1])]

    squares = [nf_pow(v, 2) for v in (v1, v2, v3)]
    h1, h2, h3 = (nf_scale(sq, Fraction(1, 2)) for sq in squares)
    gamma1 = pair[0] * h1 + pair[1] * h2 + pair[2] * h3
    kB1, kB2, kB3 = (nf_mul(kk, b) for b in b_comps)
    F_a = nf_antiderivative(kB3, "x1")
    F_b = nf_antiderivative(nf_neg(kB2), "x1")
    G_a = nf_antiderivative(nf_neg(kB3), "x2")
    G_b = nf_antiderivative(kB1, "x2")
    H_a = nf_antiderivative(kB2, "x3")
    H_b = nf_antiderivative(nf_neg(kB1), "x3")
    gamma2 = (pair[0] * nf_sum_of_products((1, F_a, v2), (1, F_b, v3))
              + pair[1] * nf_sum_of_products((1, G_a, v1), (1, G_b, v3))
              + pair[2] * nf_sum_of_products((1, H_a, v1), (1, H_b, v2)))
    gamma = gamma1 - gamma2

    # sigma = (1/3) sum_i x^i dv^i ∧ omega_(i+1) ∧ omega_(i+2)
    sigma = DiffForm(space, 5, {})
    for i in range(3):
        piece = wedge(basis_form(space, vs[i], coeff=space.parse(xs[i])), pair[i])
        sigma = sigma + piece * Fraction(1, 3)

    warnings = ()
    divB = nf_add(differentiate(B1, "x1"), differentiate(B2, "x2"), differentiate(B3, "x3"))
    if not is_zero(divB).value:
        warnings = (f"magnetic field has nonzero divergence {render(divB)}",)

    sys = LiouvilleSystem(name, space, X, omega=omega, gamma=gamma, sigma=sigma,
                          invariants=(nf_add(*squares),), warnings=warnings)
    _validate(sys)
    return sys


# --------------------------------------------------------------------------
# Spin-1/2 precession


def _anti_self_dual_triple(space: Space) -> tuple[tuple[DiffForm, ...], tuple[DiffForm, ...]]:
    """The three constant symplectic forms on (x1, x2, x3, x4) and their
    potentials, as the spin and generic hyperhamiltonian examples use them."""
    x1, x2, x3, x4 = map(space.parse, space.coordinates)
    omegas = (
        basis_form(space, "x1", "x3") + basis_form(space, "x2", "x4"),
        basis_form(space, "x4", "x1") + basis_form(space, "x2", "x3"),
        basis_form(space, "x2", "x1") + basis_form(space, "x3", "x4"),
    )
    potentials = (
        DiffForm(space, 1, {(2,): x1, (3,): x2}),
        DiffForm(space, 1, {(0,): x4, (2,): x2}),
        DiffForm(space, 1, {(0,): x2, (3,): x3}),
    )
    return omegas, potentials


def build_pauli_spin() -> ExtendedSystem:
    """Real four-dimensional form of spin precession in a constant field.

    Delegates to the hyperhamiltonian builder with the standard
    anti-self-dual triple and Hamiltonians (kappa/2) B_component |xi|^2
    paired as (H^1, H^2, H^3) <-> (B_y, B_x, B_z), then certifies that
    the summed field reproduces the expected linear system.
    """
    space = Space("pauli_spin", ("x1", "x2", "x3", "x4"), ("Bx", "By", "Bz", "kappa"))
    norm2 = space.parse("x1^2 + x2^2 + x3^2 + x4^2")
    hamiltonians = tuple(nf_mul(space.parse(f"1/2*kappa*{b}"), norm2) for b in ("By", "Bx", "Bz"))
    omegas, potentials = _anti_self_dual_triple(space)
    data = HyperkahlerData(space, omegas, hamiltonians, potentials)
    ext = build_hyperhamiltonian(data, name="pauli_spin")
    expected = VectorField(space, tuple(map(space.parse, (
        "kappa*(-Bz*x2 + By*x3 - Bx*x4)",
        "kappa*(Bz*x1 + Bx*x3 + By*x4)",
        "kappa*(-By*x1 - Bx*x2 + Bz*x4)",
        "kappa*(Bx*x1 - By*x2 - Bz*x3)",
    ))))
    match = fields_equal(ext.base.field, expected)
    if not match.value:
        raise CertificateError(
            "hyperhamiltonian sum does not reproduce the expected linear field; "
            "check the Hamiltonian/component pairing")
    ext.base.invariants = (norm2,)
    _check_invariants(ext.base)
    return ext


def build_hyperham_generic() -> ExtendedSystem:
    """Bundled example with three distinct quadratic Hamiltonians."""
    space = Space("hyperham_generic", ("x1", "x2", "x3", "x4"))
    hamiltonians = tuple(map(space.parse, ("1/2*(x1^2 + x2^2)", "x1*x3", "1/2*x4^2")))
    omegas, potentials = _anti_self_dual_triple(space)
    data = HyperkahlerData(space, omegas, hamiltonians, potentials)
    return build_hyperhamiltonian(data, name="hyperham_generic")


# --------------------------------------------------------------------------
# System files


def system_to_dict(sys: LiouvilleSystem) -> dict:
    data: dict = {
        "name": sys.name,
        "coordinates": list(sys.space.coordinates),
        "parameters": {p: (None if sys.params.get(p) is None else render(sys.params[p]))
                       for p in sys.space.parameters},
        "vector_field": serialize_field(sys.field),
    }
    if sys.omega != volume_form(sys.space):
        data["volume"] = serialize_form(sys.omega)
    if sys.gamma is not None:
        data["gamma"] = serialize_form(sys.gamma)
    if sys.sigma is not None:
        data["sigma"] = serialize_form(sys.sigma)
    if sys.theta is not None:
        data["theta"] = serialize_form(sys.theta)
    if sys.space.metric is not None:
        data["metric"] = [render(g) for g in sys.space.metric]
    data["invariants"] = [render(e) for e in sys.invariants]
    if sys.base_split is not None:
        k, verts = sys.base_split
        data["base_split"] = {"base_count": k, "verticals": list(verts)}
    return data


def save_system(sys: LiouvilleSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(sys), indent=2) + "\n", encoding="utf-8")


def _strings(value, key: str, what: str) -> list:
    """``value``, the entry ``key`` of a system file, checked to be a list
    of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SystemFileError(f"'{key}' must be a list of {what}")
    return value


def _form_entries(data: dict, key: str) -> list:
    """``data[key]``, checked to be a list of form entries: objects with a
    list of integers "index" and an expression string "coeff"."""
    entries = data[key]
    if not isinstance(entries, list):
        raise SystemFileError(f"'{key}' must be a list of {{\"index\": ..., \"coeff\": ...}} entries")
    for k, entry in enumerate(entries, 1):
        if not isinstance(entry, dict):
            raise SystemFileError(f"'{key}' entry {k} must be an object with 'index' and 'coeff'")
        index = entry.get("index")
        if not isinstance(index, list) or not all(type(i) is int for i in index):
            raise SystemFileError(f"'{key}' entry {k}: 'index' must be a list of integers")
        if not isinstance(entry.get("coeff"), str):
            raise SystemFileError(f"'{key}' entry {k}: 'coeff' must be an expression string")
    return entries


def system_from_dict(data: dict, seed: int = DEFAULT_SEED) -> LiouvilleSystem:
    try:
        name = data["name"]
        coordinates = data["coordinates"]
        field_strings = data["vector_field"]
    except (KeyError, TypeError) as exc:
        raise SystemFileError(f"missing required field: {exc}") from exc
    if not isinstance(name, str):
        raise SystemFileError("'name' must be a string")
    coordinates = tuple(_strings(coordinates, "coordinates", "names"))
    raw_params = data.get("parameters", {})
    if not isinstance(raw_params, Mapping):
        raise SystemFileError("'parameters' must map names to rational strings or null")
    parameters = tuple(raw_params.keys())
    metric = None
    if "metric" in data:
        try:
            metric = tuple(parse_rational(s)
                           for s in _strings(data["metric"], "metric", "rational strings"))
        except (ExprError, ValueError) as exc:
            raise SystemFileError(f"bad metric entry: {exc}") from exc
    try:
        space = Space(name, coordinates, parameters, metric)
    except GeometryError as exc:
        raise SystemFileError(str(exc)) from exc
    for p, v in raw_params.items():
        if v is not None and not isinstance(v, str):
            raise SystemFileError(f"parameter '{p}' must be a rational string or null, got {v!r}")
    try:
        params = {p: (None if v is None else parse_rational(v)) for p, v in raw_params.items()}
    except (ExprError, ValueError) as exc:
        raise SystemFileError(f"bad parameter value: {exc}") from exc
    n = space.dim
    field_strings = _strings(field_strings, "vector_field", "expression strings")
    if len(field_strings) != n:
        raise SystemFileError(
            f"'vector_field' has {len(field_strings)} components; the space has dimension {n}")
    # each sin/cos argument of this file is parsed into one shared object,
    # and each distinct text over one symbol set is parsed once
    atoms: dict = {}
    texts: dict = {}

    def form(key, form_space, degree):
        return deserialize_form(form_space, degree, _form_entries(data, key), atoms, texts)

    try:
        field = deserialize_field(space, field_strings, atoms, texts)
        omega = form("volume", space, n) if "volume" in data else volume_form(space)
        gamma = form("gamma", space, n - 2) if "gamma" in data else None
        sigma = form("sigma", space, n - 1) if "sigma" in data else None
        theta = form("theta", extended_space(space), n - 1) if "theta" in data else None
        invariants = tuple(space.parse(s, atoms, texts) for s in _strings(
            data.get("invariants", []), "invariants", "expression strings"))
    except (ParseError, ExprError, GeometryError) as exc:
        raise SystemFileError(str(exc)) from exc
    base_split = None
    if "base_split" in data:
        bs = data["base_split"]
        try:
            base_split = (bs["base_count"],
                          tuple(_strings(bs["verticals"], "verticals", "coordinate names")))
        except (KeyError, TypeError) as exc:
            raise SystemFileError(f"bad base_split: {exc}") from exc
        if type(base_split[0]) is not int:
            raise SystemFileError("bad base_split: 'base_count' must be an integer")
    sys = LiouvilleSystem(name, space, field, omega=omega, gamma=gamma, sigma=sigma,
                          theta=theta, invariants=invariants, params=params,
                          base_split=base_split)
    sys.bound_copy = sys.bound()
    sys.checks = tuple(validate_system(sys.bound_copy, seed))
    return sys


def load_system(path, seed: int = DEFAULT_SEED) -> LiouvilleSystem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SystemFileError(f"invalid JSON in {path}: {exc}") from exc
    return system_from_dict(data, seed)


# --------------------------------------------------------------------------
# Bundled examples


def bundled_systems() -> dict[str, LiouvilleSystem]:
    """One ready-to-save system per bundled example file."""
    ho1 = build_hamiltonian("1/2*q^2 + 1/2*p^2", 1, name="harmonic_oscillator_m1")
    ho2 = build_hamiltonian("1/2*q1^2 + 1/2*p1^2 + 1/2*q2^2 + 1/2*p2^2", 2,
                            name="harmonic_oscillator_m2")
    return {
        "euler_top": build_euler_top((1, 2, 3)),
        "abc_flow": build_abc_flow(),
        "abc_paper_verbatim": build_abc_flow_variant(),
        "charged_particle_constB": build_charged_particle(
            ("0", "0", "b"), parameters=("b",), name="charged_particle_constB"),
        "free_particle": build_charged_particle(("0", "0", "0"), name="free_particle"),
        "pauli_spin": build_pauli_spin().base,
        "harmonic_oscillator_m1": ho1,
        "harmonic_oscillator_m2": ho2,
        "nambu_rotor": build_nambu(["1/2*x1^2 + 1/2*x2^2", "x3"], name="nambu_rotor"),
        "hyperham_generic": build_hyperham_generic().base,
    }
