"""Command-line front end: verification pipelines and machine-readable reports.

Subcommands: verify, solve-gamma, characteristic, integrate, examples.
Reports are UTF-8 JSON on stdout (or --out); exit codes are 0 for PASS,
1 for a failed certificate, a blow-up or a failed sweep, 2 for
input/schema errors.  integrate reports its diagnostics without judging
them, so its PASS means the run completed.
The sampling seed of the probabilistic zero test can be overridden with
--seed or the LIOUVILLE_SEED environment variable.
"""

from __future__ import annotations

import argparse
import functools
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
    DegenerateThetaError,
    LiouvilleError,
    PotentialError,
    SystemInvariantError,
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


def _load(args):
    """The zero-test config of ``args`` and the system file it names.

    A system invariant that the file breaks is an input error (exit 2),
    unlike one that fails later in a pipeline (exit 1)."""
    config = _zero_config(args)
    try:
        return config, load_system(args.path, config)
    except SystemInvariantError as exc:
        raise SystemFileError(str(exc)) from exc


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        _sys.stdout.write(text)


def _header(system: str) -> dict:
    """The keys that open every report."""
    return {"tool": TOOL_NAME, "version": __version__, "system": system}


def _verticals(args, ext, system) -> tuple[str, str] | None:
    """The vertical pair of ``--base-split 'k:z,w'`` if given, else that of
    the file's split, else None (the last two coordinates).  The pair itself
    is checked where it is used (``liouville.vertical_pair``)."""
    text = getattr(args, "base_split", None)
    if text is None:
        return None if system.base_split is None else tuple(system.base_split[1])
    try:
        count, _, verts = text.partition(":")
        k = int(count)
        z, w = (v.strip() for v in verts.split(","))
    except ValueError:
        raise SystemFileError(f"bad --base-split {text!r}; expected 'k:z,w'")
    if k != ext.space.dim - 2:
        raise SystemFileError(f"base count {k} must equal {ext.space.dim - 2} for this system")
    return (z, w)


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    config, sys = _load(args)
    b = sys.bound_copy
    warnings = list(sys.warnings)
    # gamma_flux_match and sigma_volume_match were decided while loading
    certs: list[Certificate] = [is_liouville(b, config), *sys.checks]
    ext = None
    try:
        ext = build_extended(b, config)
    except PotentialError as exc:
        certs.append(Certificate("potential_available", False, exc.certainty, detail=str(exc)))
    except DegenerateThetaError as exc:
        certs.append(Certificate("theta_nondegenerate", False, exc.certainty, detail=str(exc)))
    if ext is not None:
        if b.gamma is None and b.theta is None:
            warnings.append("flux potential solved by the radial homotopy operator")
        certs.append(Certificate(
            "theta_nondegenerate", True, ext.dtheta_certainty,
            detail="certified not identically zero; pointwise nonvanishing is not decided symbolically"))
        certs.extend(verify_characteristic(ext, config))
        dec = decompose_beta(ext.dtheta, _verticals(args, ext, b))
        proper = is_proper(dec, config)
        certs.append(Certificate("proper_principle", proper.value, proper.certainty,
                                 detail="double vertical contraction of d(theta) is nonzero"
                                 if proper.value else "double vertical contraction vanishes"))
        if proper.value:
            certs.extend(psi_forms(dec, config).certificates)
        if args.hodge:
            certs.append(hodge_check(ext, config=config))
    passed = all(c.passed for c in certs)
    report = {
        **_header(sys.name),
        "zero_test": config.to_json(),
        "certificates": [c.to_json() for c in certs],
        "diagnostics": None,
        "warnings": warnings,
        "overall": "PASS" if passed else "FAIL",
    }
    _emit(report, args.out)
    return 0 if passed else 1


# --------------------------------------------------------------------------
# solve-gamma


def cmd_solve_gamma(args) -> int:
    config, sys = _load(args)
    b = sys.bound_copy
    flux = interior_product(b.field, b.omega)
    gamma = solve_gamma(flux, config)
    residual = exterior_derivative(gamma) - flux
    out = {
        **_header(sys.name),
        "gamma": serialize_form(gamma),
        "residual": serialize_form(residual),
    }
    _emit(out, args.out)
    return 0


# --------------------------------------------------------------------------
# characteristic


def cmd_characteristic(args) -> int:
    config, sys = _load(args)
    b = sys.bound_copy
    ext = build_extended(b, config)
    dec = decompose_beta(ext.dtheta, _verticals(args, ext, b))
    W = characteristic_field(dec, config)
    # W spans ker d(theta): divided by its time component and read in the
    # original chart, it must be d_t + X
    Z = normalize_by_dt(reorder_field(W, ext.space))
    witness = fields_equal(Z, ext.field, config)
    out = {
        **_header(sys.name),
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


def _parse_params(items, declared) -> dict[str, float]:
    out = {}
    for item in items or []:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise SystemFileError(f"bad --param {item!r}; expected name=value")
        if name not in declared:
            raise SystemFileError(
                f"bad --param {item!r}: {name!r} is not a parameter of this system")
        try:
            out[name] = float(value)
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
    config, sys = _load(args)
    overrides = _parse_params(args.param, sys.space.parameters)
    bindings = _float_params(sys.params)
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
        raise SystemFileError(f"unbound parameters: {', '.join(missing)}")
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        raise SystemFileError(f"bad --x0 {args.x0!r}")
    if len(x0) != sys.space.dim:
        raise SystemFileError(f"--x0 needs {sys.space.dim} components")
    traj = integrate_rk4(sys.field, x0, args.h, args.T,
                         with_tangent=args.tangent, params=bindings)
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
            dec = decompose_beta(ext.dtheta, _verticals(args, ext, sys))
            k = dec.k
            base_seed = [0.0] + list(x0)
            seeds = []
            for offset in (-0.1, -0.05, 0.0, 0.05, 0.1):
                seed = list(base_seed)
                seed[k] += offset
                seeds.append(seed)
            report = section_sweep(dec, seeds, args.h, args.T, params=bindings, config=config)
            diagnostics["sweep"] = report.to_json()
        except (LiouvilleError, BlowupError) as exc:
            raise LiouvilleError(f"sweep failed: {exc}") from exc
    out = {
        **_header(sys.name),
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
    target.mkdir(parents=True, exist_ok=True)
    for name, sys in systems.items():
        save_system(sys, target / f"{name}.json")
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
    p.add_argument("--param", nargs="*", action="extend", default=None,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and kept for the
    process; ``parse_args`` returns a new namespace on every call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; the one place that maps an error to the exit code.

    0: every certificate passed.  1: a certificate or diagnostic failed
    (``LiouvilleError``, ``BlowupError``).  2: the input was malformed
    (``SystemFileError``, ``ExprError``, ``GeometryError``, any other
    ``FlowError``, ``OSError``).  Each error prints one ``error:`` line.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (LiouvilleError, BlowupError) as exc:  # BlowupError is a FlowError
        message, code = str(exc), 1
    except (SystemFileError, ExprError, GeometryError, FlowError, OSError) as exc:
        message, code = str(exc), 2
    _sys.stderr.write(f"error: {message}\n")
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
