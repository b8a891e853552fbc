"""Command-line front end: verification pipelines and machine-readable reports.

Subcommands: verify, solve-gamma, characteristic, integrate, examples.
Reports are UTF-8 JSON on stdout (or --out); exit codes are 0 for PASS,
1 for any failed certificate or diagnostic, 2 for input/schema errors.
The sampling seed of the probabilistic zero test can be overridden with
--seed or the LIOUVILLE_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .expr import (
    DEFAULT_ZERO_TEST,
    ExprError,
    ZeroTestConfig,
    render,
)
from .exterior import (
    GeometryError,
    fields_equal,
    reorder_field,
    serialize_field,
    serialize_form,
)
from .liouville import (
    Certificate,
    ImproperPrincipleError,
    LiouvilleError,
    NormalizationError,
    PotentialError,
    SystemInvariantError,
    annihilator_field,
    build_extended,
    characteristic_field,
    decompose_beta,
    hodge_check,
    is_liouville,
    is_proper,
    normalize_by_dt,
    psi_forms,
    solve_gamma,
    verify_characteristic,
)
from .exterior import exterior_derivative, interior_product
from .flow import (
    BlowupError,
    FlowDiagnostics,
    FlowError,
    integrate_rk4,
    invariant_drift,
    section_sweep,
    volume_diagnostic,
    write_trajectory_csv,
)
from .systems import SystemFileError, bundled_systems, load_system, save_system

TOOL_NAME = "liouvar"


def _zero_config(args) -> ZeroTestConfig:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("LIOUVILLE_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise SystemFileError(f"LIOUVILLE_SEED must be an integer, got {env!r}")
    if seed is None:
        return DEFAULT_ZERO_TEST
    return replace(DEFAULT_ZERO_TEST, seed=seed)


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        _sys.stdout.write(text)


def _make_report(system: str, certificates: list[Certificate], config: ZeroTestConfig,
                 diagnostics: dict | None = None, warnings: list[str] | None = None) -> dict:
    overall = all(c.passed for c in certificates)
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "system": system,
        "zero_test": config.to_json(),
        "certificates": [c.to_json() for c in certificates],
        "diagnostics": diagnostics,
        "warnings": warnings or [],
        "overall": "PASS" if overall else "FAIL",
    }


def _parse_base_split(text: str | None, dim_ext: int, coordinates) -> tuple[str, str] | None:
    """Parse 'k:z,w' into the vertical pair, validating the base count."""
    if text is None:
        return None
    try:
        count, _, verts = text.partition(":")
        k = int(count)
        z, w = (v.strip() for v in verts.split(","))
    except ValueError:
        raise SystemFileError(f"bad --base-split {text!r}; expected 'k:z,w'")
    if k != dim_ext - 2:
        raise SystemFileError(f"base count {k} must equal {dim_ext - 2} for this system")
    for v in (z, w):
        if v not in coordinates:
            raise SystemFileError(f"unknown vertical coordinate {v!r}")
    return (z, w)


def _split_from_system(sys) -> tuple[str, str] | None:
    if sys.base_split is not None:
        return tuple(sys.base_split[1])
    return None


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    config = _zero_config(args)
    try:
        sys = load_system(args.path, config)
    except (SystemFileError, SystemInvariantError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    b = sys.bound_copy
    warnings = list(sys.warnings)
    # gamma_flux_match and sigma_volume_match were decided while loading
    certs: list[Certificate] = [is_liouville(b, config), *sys.checks]
    ext = None
    try:
        ext = build_extended(b, config)
    except PotentialError as exc:
        certs.append(Certificate("potential_available", False, "exact", detail=str(exc)))
    except SystemInvariantError as exc:
        certs.append(Certificate("theta_nondegenerate", False, "exact", detail=str(exc)))
    if ext is not None:
        if b.gamma is None and b.theta is None:
            warnings.append("flux potential solved by the radial homotopy operator")
        certs.append(Certificate(
            "theta_nondegenerate", True, "exact",
            detail="certified not identically zero; pointwise nonvanishing is not decided symbolically"))
        certs.extend(verify_characteristic(ext, config))
        try:
            verticals = _parse_base_split(args.base_split, ext.space.dim, ext.space.coordinates) \
                or _split_from_system(b)
        except SystemFileError as exc:
            _sys.stderr.write(f"error: {exc}\n")
            return 2
        proper = is_proper(ext.dtheta, verticals, config)
        certs.append(Certificate("proper_principle", proper, "exact",
                                 detail="double vertical contraction of d(theta) is nonzero"
                                 if proper else "double vertical contraction vanishes"))
        if proper:
            pf = psi_forms(ext.dtheta, verticals, config)
            certs.extend(pf.certificates)
        if args.hodge:
            try:
                certs.append(hodge_check(ext, config=config))
            except GeometryError as exc:
                _sys.stderr.write(f"error: {exc}\n")
                return 2
    report = _make_report(sys.name, certs, config, warnings=warnings)
    _emit(report, args.out)
    return 0 if report["overall"] == "PASS" else 1


# --------------------------------------------------------------------------
# solve-gamma


def cmd_solve_gamma(args) -> int:
    config = _zero_config(args)
    try:
        sys = load_system(args.path, config)
    except (SystemFileError, SystemInvariantError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    b = sys.bound_copy
    flux = interior_product(b.field, b.omega)
    try:
        gamma = solve_gamma(flux)
    except PotentialError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1
    residual = exterior_derivative(gamma) - flux
    out = {
        "tool": TOOL_NAME,
        "version": __version__,
        "system": sys.name,
        "gamma": serialize_form(gamma),
        "residual": serialize_form(residual),
    }
    _emit(out, args.out)
    return 0


# --------------------------------------------------------------------------
# characteristic


def cmd_characteristic(args) -> int:
    config = _zero_config(args)
    try:
        sys = load_system(args.path, config)
    except (SystemFileError, SystemInvariantError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    b = sys.bound_copy
    try:
        ext = build_extended(b, config)
    except (PotentialError, SystemInvariantError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        verticals = _parse_base_split(args.base_split, ext.space.dim, ext.space.coordinates) \
            or _split_from_system(b)
    except SystemFileError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        dec = decompose_beta(ext.dtheta, verticals, config)
        W = characteristic_field(dec, config)
        Y = annihilator_field(ext.dtheta)
        Z = normalize_by_dt(Y)
    except (ImproperPrincipleError, NormalizationError, LiouvilleError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1
    witness = fields_equal(W, reorder_field(Y, dec.space), config)
    out = {
        "tool": TOOL_NAME,
        "version": __version__,
        "system": sys.name,
        "base": list(dec.base),
        "verticals": list(dec.verticals),
        "A": [render(a) for a in dec.coefficients],
        "f": render(dec.f),
        "g": render(dec.g),
        "W": serialize_field(W),
        "Z": serialize_field(Z),
        "W_matches_annihilator": witness.value,
        "certainty": witness.certainty,
    }
    _emit(out, args.out)
    return 0 if witness.value else 1


# --------------------------------------------------------------------------
# integrate


def _parse_params(items) -> dict[str, float]:
    out = {}
    for item in items or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise SystemFileError(f"bad --param {item!r}; expected name=value")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise SystemFileError(f"bad numeric value in --param {item!r}")
    return out


def _float_params(params) -> dict[str, float]:
    """File-bound parameter values as floats."""
    out = {}
    for name, value in params.items():
        if value is not None:
            try:
                out[name] = float(value)
            except OverflowError:
                raise SystemFileError(f"parameter '{name}' is too large for a float") from None
    return out


def cmd_integrate(args) -> int:
    config = _zero_config(args)
    try:
        sys = load_system(args.path, config)
        overrides = _parse_params(args.param)
        bindings = _float_params(sys.params)
    except (SystemFileError, SystemInvariantError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    changed = sorted(n for n in set(overrides) & set(bindings) if overrides[n] != bindings[n])
    warnings = list(sys.warnings)
    if changed:
        warnings.append(f"overriding file-bound parameters: {', '.join(changed)}")
    bindings.update(overrides)
    needed = set()
    for comp in sys.field.nfs:
        needed |= comp.free_symbols()
    for inv in sys.invariants:
        needed |= inv.free_symbols()
    needed &= set(sys.space.parameters)
    missing = sorted(needed - set(bindings))
    if missing:
        _sys.stderr.write(f"error: unbound parameters: {', '.join(missing)}\n")
        return 2
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        _sys.stderr.write(f"error: bad --x0 {args.x0!r}\n")
        return 2
    if len(x0) != sys.space.dim:
        _sys.stderr.write(f"error: --x0 needs {sys.space.dim} components\n")
        return 2
    try:
        traj = integrate_rk4(sys.field, x0, args.h, args.T,
                             with_tangent=args.tangent, params=bindings)
    except BlowupError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1
    except (FlowError, ExprError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    drifts = invariant_drift(traj, sys.invariants)
    det_dev = volume_diagnostic(traj) if args.tangent else None
    diagnostics = FlowDiagnostics(traj.step, traj.duration, drifts, det_dev).to_json()
    diagnostics["invariants"] = [render(e) for e in sys.invariants]
    if args.csv:
        rows = write_trajectory_csv(traj, args.csv)
        diagnostics["csv_rows"] = rows
    if args.sweep:
        try:
            ext = build_extended(sys.bound_copy, config)
            verticals = _split_from_system(sys)
            dec = decompose_beta(ext.dtheta, verticals, config)
            k = dec.k
            base_seed = [0.0] + list(x0)
            seeds = []
            for offset in (-0.1, -0.05, 0.0, 0.05, 0.1):
                seed = list(base_seed)
                seed[k] += offset
                seeds.append(seed)
            report = section_sweep(dec, seeds, args.h, args.T, params=bindings)
            diagnostics["sweep"] = report.to_json()
        except (PotentialError, SystemInvariantError, LiouvilleError, BlowupError) as exc:
            _sys.stderr.write(f"error: sweep failed: {exc}\n")
            return 1
        except FlowError as exc:
            _sys.stderr.write(f"error: {exc}\n")
            return 2
    out = {
        "tool": TOOL_NAME,
        "version": __version__,
        "system": sys.name,
        "zero_test": config.to_json(),
        "diagnostics": diagnostics,
        "warnings": warnings,
        "overall": "PASS",
    }
    _emit(out, args.out)
    return 0


# --------------------------------------------------------------------------
# examples


def cmd_examples(args) -> int:
    config = _zero_config(args)
    target = Path(args.emit)
    systems = bundled_systems(config)
    try:
        target.mkdir(parents=True, exist_ok=True)
        for name, sys in systems.items():
            save_system(sys, target / f"{name}.json")
    except OSError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    _sys.stdout.write(f"wrote {len(systems)} system files to {target}\n")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Construct and verify maximal-degree variational principles "
                    "for volume-preserving vector fields.")
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the probabilistic zero-test seed")
        p.add_argument("--out", default=None, help="write the JSON report to a file")

    p = sub.add_parser("verify", help="run the full certificate pipeline on a system file")
    p.add_argument("path")
    p.add_argument("--hodge", action="store_true", help="include the metric duality certificate")
    p.add_argument("--base-split", default=None, metavar="K:Z,W",
                   help="override the base/vertical split, e.g. 2:x2,x3")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve-gamma", help="solve the flux potential by the homotopy operator")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_solve_gamma)

    p = sub.add_parser("characteristic", help="print the characteristic decomposition and field")
    p.add_argument("path")
    p.add_argument("--base-split", default=None, metavar="K:Z,W")
    common(p)
    p.set_defaults(func=cmd_characteristic)

    p = sub.add_parser("integrate", help="integrate the field and report flow diagnostics")
    p.add_argument("path")
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--h", type=float, required=True, help="requested step size")
    p.add_argument("--T", type=float, required=True, help="duration")
    p.add_argument("--param", nargs="*", action="extend", default=[],
                   metavar="NAME=VALUE", help="numeric parameter bindings")
    p.add_argument("--tangent", action="store_true",
                   help="co-integrate the tangent map and report det deviation")
    p.add_argument("--sweep", action="store_true",
                   help="run a critical-section sweep around the initial state")
    p.add_argument("--csv", default=None, help="write the trajectory CSV to a file")
    common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("examples", help="write the bundled example system files")
    p.add_argument("--emit", required=True, metavar="DIR")
    common(p)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemFileError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
