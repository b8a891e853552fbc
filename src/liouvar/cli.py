"""Command-line front end: verification pipelines and machine-readable reports.

Subcommands: verify, solve-gamma, characteristic, integrate, examples.
Reports are UTF-8 JSON on stdout (or --out); exit codes are 0 for PASS,
1 for a failed certificate, a blow-up or a failed sweep, 2 for
input/schema errors.  integrate reports its diagnostics without judging
them, so its PASS means the run completed.
The sampling seed of the probabilistic zero test is set with --seed
(default ``DEFAULT_SEED``, 314159); its points, interval and tolerance
are fixed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys as _sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .expr import (
    DEFAULT_SEED,
    EXACT,
    ExprError,
    render,
    zero_test_json,
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
    solve_gamma,
    split_verticals,
    verify_characteristic,
)
from .exterior import exterior_derivative, interior_product
from .flow import (
    BlowupError,
    FlowError,
    integrate_rk4,
    invariant_drift,
    section_sweep,
    volume_diagnostic,
    write_trajectory_csv,
)
from .systems import SystemFileError, bundled_systems, load_system, save_system

TOOL_NAME = "liouvar"


def _load(args):
    """The zero-test seed of ``args`` and the system file it names, loaded
    at that seed.

    A system invariant that the file breaks is an input error (exit 2),
    unlike one that fails later in a pipeline (exit 1)."""
    try:
        return args.seed, load_system(args.path, args.seed)
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


def _verticals(args, system) -> tuple[str, str] | None:
    """The vertical pair of ``--base-split 'k:z,w'`` if given, else that of
    the file's split, else None (the last two coordinates).  The flag is
    checked by ``liouville.split_verticals``, as the file's split was when
    the file was loaded."""
    text = getattr(args, "base_split", None)
    if text is None:
        return None if system.base_split is None else tuple(system.base_split[1])
    try:
        count, _, verts = text.partition(":")
        k = int(count)
        z, w = (v.strip() for v in verts.split(","))
    except ValueError:
        raise SystemFileError(f"bad --base-split {text!r}; expected 'k:z,w'")
    return split_verticals(system.space, (k, (z, w)))


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    seed, sys = _load(args)
    verticals = _verticals(args, sys)
    b = sys.bound_copy
    warnings = list(sys.warnings)
    # gamma_flux_match and sigma_volume_match were decided while loading
    certs: list[Certificate] = [is_liouville(b, seed), *sys.checks]
    ext = None
    try:
        ext = build_extended(b, seed)
    except PotentialError as exc:
        certs.append(Certificate("potential_available", False, exc.certainty, detail=str(exc)))
    except DegenerateThetaError as exc:
        certs.append(Certificate("theta_nondegenerate", False, exc.certainty, detail=str(exc)))
    if ext is not None:
        if b.gamma is None and b.theta is None:
            warnings.append("flux potential solved by the one-axis homotopy operator")
        certs.append(Certificate(
            "theta_nondegenerate", True, ext.dtheta_certainty,
            detail="certified not identically zero; pointwise nonvanishing is not decided symbolically"))
        annihilation, normalization = verify_characteristic(ext, seed)
        certs += [annihilation, normalization]
        dec = decompose_beta(ext.dtheta, verticals)
        proper = is_proper(dec, seed)
        certs.append(Certificate("proper_principle", proper.value, proper.certainty,
                                 detail="double vertical contraction of d(theta) is nonzero"
                                 if proper.value else "double vertical contraction vanishes"))
        if proper.value:
            # decompose_beta asserted beta = W ⌟ vol, so W ⌟ Psi_i is
            # -(d_i ⌟ (W ⌟ W ⌟ vol)): zero as a ring identity
            certs += [Certificate(f"psi{i}_annihilated_by_W", True, EXACT) for i in (1, 2)]
        if args.hodge:
            certs.append(hodge_check(ext, annihilation))
    passed = all(c.passed for c in certs)
    report = {
        **_header(sys.name),
        "zero_test": zero_test_json(seed),
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
    seed, sys = _load(args)
    b = sys.bound_copy
    flux = interior_product(b.field, b.omega)
    gamma = solve_gamma(flux, seed)
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
    seed, sys = _load(args)
    verticals = _verticals(args, sys)
    b = sys.bound_copy
    ext = build_extended(b, seed)
    dec = decompose_beta(ext.dtheta, verticals)
    W = characteristic_field(dec, seed)
    # W spans ker d(theta): divided by its time component and read in the
    # original chart, it must be d_t + X
    Z = normalize_by_dt(reorder_field(W, ext.space))
    witness = fields_equal(Z, ext.field, seed)
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


def _parse_params(items, declared) -> dict[str, Fraction]:
    """``--param name=value`` items as exact bindings: each value is read
    as a float, refused unless finite, and bound as its exact binary
    rational."""
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
            number = float(value)
        except ValueError:
            raise SystemFileError(f"bad numeric value in --param {item!r}")
        if not math.isfinite(number):
            raise SystemFileError(f"parameter '{name}' must be finite, got {number}")
        out[name] = Fraction(number)
    return out


def cmd_integrate(args) -> int:
    seed, sys = _load(args)
    overrides = _parse_params(args.param, sys.space.parameters)
    changed = sorted(n for n, v in overrides.items() if sys.params[n] not in (None, v))
    warnings = list(sys.warnings)
    if changed:
        warnings.append(f"overriding file-bound parameters: {', '.join(changed)}")
    # one exact binding: the field, invariants and sweep are read from b
    b = replace(sys, params={**sys.params, **overrides}).bound() if overrides else sys.bound_copy
    left = set()
    for nf in (*b.field.nfs, *b.invariants):
        left |= nf.free_symbols()
    missing = sorted(left & set(sys.space.parameters))
    if missing:
        raise SystemFileError(f"unbound parameters: {', '.join(missing)}")
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        raise SystemFileError(f"bad --x0 {args.x0!r}")
    if len(x0) != sys.space.dim:
        raise SystemFileError(f"--x0 needs {sys.space.dim} components")
    traj = integrate_rk4(b.field, x0, args.h, args.T, with_tangent=args.tangent)
    diagnostics = {
        "step": traj.step,
        "duration": traj.duration,
        "invariant_drifts": list(invariant_drift(traj, b.invariants)),
    }
    if args.tangent:
        diagnostics["det_deviation"] = volume_diagnostic(traj)
    diagnostics["invariants"] = [render(e) for e in sys.invariants]
    if args.csv:
        rows = write_trajectory_csv(traj, args.csv)
        diagnostics["csv_rows"] = rows
    if args.sweep:
        try:
            ext = build_extended(b, seed)
            dec = decompose_beta(ext.dtheta, _verticals(args, sys))
            state = dict(zip(ext.space.coordinates, [0.0] + x0))
            centre = [state[c] for c in dec.space.coordinates]
            starts = []
            for offset in (-0.1, -0.05, 0.0, 0.05, 0.1):
                start = list(centre)
                start[dec.k] += offset
                starts.append(start)
            report = section_sweep(dec, starts, args.h, args.T, seed=seed)
            diagnostics["sweep"] = report.to_json()
        except (LiouvilleError, BlowupError) as exc:
            raise LiouvilleError(f"sweep failed: {exc}") from exc
    out = {
        **_header(sys.name),
        "zero_test": zero_test_json(seed),
        "diagnostics": diagnostics,
        "warnings": warnings,
        "overall": "PASS",
    }
    _emit(out, args.out)
    return 0


# --------------------------------------------------------------------------
# examples


def cmd_examples(args) -> int:
    target = Path(args.emit)
    systems = bundled_systems()
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
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
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
    p.add_argument("--x0", required=True,
                   help="comma-separated initial state; write --x0=-1,0 when it starts with '-'")
    p.add_argument("--h", type=float, required=True, help="requested step size")
    p.add_argument("--T", type=float, required=True, help="duration")
    p.add_argument("--param", nargs="*", action="extend", default=None,
                   metavar="NAME=VALUE", help="numeric parameter bindings")
    p.add_argument("--tangent", action="store_true",
                   help="compute the tangent maps and report det deviation")
    p.add_argument("--sweep", action="store_true",
                   help="run a critical-section sweep around the initial state")
    p.add_argument("--csv", default=None, help="write the trajectory CSV to a file")
    common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("examples", help="write the bundled example system files")
    p.add_argument("--emit", required=True, metavar="DIR")
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
