"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import inspect
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import liouvar
import liouvar.cli as cli
import liouvar.liouville as liouville
from liouvar.cli import main
from liouvar.expr import compile_source
from liouvar.flow import integrate_rk4, write_trajectory_csv
from liouvar.systems import build_hamiltonian, load_system, save_system

DATA = Path(__file__).parent / "data"
BENCH_BUNDLED = Path(__file__).resolve().parents[1] / "bench" / "bundled"


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("examples")
    assert main(["examples", "--emit", str(target)]) == 0
    return target


def read_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


# --------------------------------------------------------------------------
# verify


def test_verify_euler_hodge_pass(example_dir, capsys):
    rc = main(["verify", str(example_dir / "euler_top.json"), "--hodge"])
    report = read_json(capsys)
    assert rc == 0
    assert report["overall"] == "PASS"
    names = [c["name"] for c in report["certificates"]]
    assert "hodge_duality" in names
    assert all(c["verdict"] == "PASS" for c in report["certificates"])


def test_verify_verbatim_variant_fails(example_dir, capsys):
    rc = main(["verify", str(example_dir / "abc_paper_verbatim.json")])
    report = read_json(capsys)
    assert rc == 1
    assert report["overall"] == "FAIL"
    liouville = [c for c in report["certificates"] if c["name"] == "liouville_flux_closed"][0]
    assert liouville["verdict"] == "FAIL"
    assert "residual" in liouville


def test_verify_all_examples(example_dir, capsys):
    for path in sorted(example_dir.glob("*.json")):
        rc = main(["verify", str(path)])
        report = read_json(capsys)
        if path.stem == "abc_paper_verbatim":
            assert rc == 1 and report["overall"] == "FAIL"
        else:
            assert rc == 0 and report["overall"] == "PASS", path.stem


def test_verify_syntax_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2


def test_verify_deeply_nested_json_exit_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000, encoding="utf-8")
    rc = main(["verify", str(path)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["x1", ["x2", "-1*x1", "0"], ["x2", 1]])
def test_verify_malformed_vector_field_exit_2(tmp_path, capsys, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "coordinates": ["x1", "x2"],
                               "vector_field": field}), encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'vector_field'" in err and "undeclared" not in err


_GAMMA_INDEX = "'gamma' entry 1: 'index' must be a list of integers"
_GAMMA_COEFF = "'gamma' entry 1: 'coeff' must be an expression string"
_GAMMA_LIST = "'gamma' must be a list of"

# edits of euler_top.json that make it no system file: the keys to the
# edited value, the new value and the message
_MALFORMED = {
    "index 5": (("gamma", 0), {"index": 5, "coeff": "x1"}, _GAMMA_INDEX),
    "index '1'": (("gamma", 0), {"index": "1", "coeff": "x1"}, _GAMMA_INDEX),
    "index [1.5]": (("gamma", 0), {"index": [1.5], "coeff": "x1"}, _GAMMA_INDEX),
    "index [true]": (("gamma", 0), {"index": [True], "coeff": "x1"}, _GAMMA_INDEX),
    "no coeff": (("gamma", 0), {"index": [1]}, _GAMMA_COEFF),
    "coeff 3": (("gamma", 0), {"index": [1], "coeff": 3}, _GAMMA_COEFF),
    "entry list": (("gamma", 0), [[1], "x1"],
                   "'gamma' entry 1 must be an object with 'index' and 'coeff'"),
    "gamma null": (("gamma",), None, _GAMMA_LIST),
    "gamma {}": (("gamma",), {}, _GAMMA_LIST),
    "invariants [3]": (("invariants",), [3], "'invariants' must be a list of expression strings"),
    "parameter 3": (("parameters", "I1"), 3,
                    "parameter 'I1' must be a rational string or null, got 3"),
    "metric [1, 1, 1]": (("metric",), [1, 1, 1], "'metric' must be a list of rational strings"),
    "name 3": (("name",), 3, "'name' must be a string"),
    "coordinates 'x1x2x3'": (("coordinates",), "x1x2x3", "'coordinates' must be a list of names"),
    "base_count 2.7": (("base_split",), {"base_count": 2.7, "verticals": ["t", "x3"]},
                       "bad base_split: 'base_count' must be an integer"),
    "verticals 'x2x3'": (("base_split",), {"base_count": 2, "verticals": "x2x3"},
                         "'verticals' must be a list of coordinate names"),
}


@pytest.mark.parametrize("argv", [["verify"], ["characteristic"],
                                  ["integrate", "--x0=0.1,0.2,0.3", "--h", "0.01", "--T", "0.01"]])
@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_system_file_entries_exit_2(tmp_path, capsys, case, argv):
    (*parents, last), value, message = _MALFORMED[case]
    data = json.loads((BENCH_BUNDLED / "euler_top.json").read_text(encoding="utf-8"))
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([argv[0], str(path)] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_verify_golden_report(example_dir, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", str(example_dir / "euler_top.json"), "--hodge", "--out", str(out)])
    assert rc == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((DATA / "euler_top_report.json").read_text(encoding="utf-8"))
    got.pop("version")
    want.pop("version")
    assert got == want


def test_verify_seed_override_reported(example_dir, capsys):
    rc = main(["verify", str(example_dir / "abc_flow.json"), "--seed", "777"])
    report = read_json(capsys)
    assert rc == 0
    assert report["zero_test"]["seed"] == 777


def test_verify_base_split_override(example_dir, capsys):
    rc = main(["verify", str(example_dir / "euler_top.json"),
               "--base-split", "2:x1,x3"])
    report = read_json(capsys)
    assert rc == 0 and report["overall"] == "PASS"


def test_verify_bad_base_split(example_dir, capsys):
    rc = main(["verify", str(example_dir / "euler_top.json"),
               "--base-split", "1:x1,x3"])
    assert rc == 2


_XT = {"name": "xt", "coordinates": ["x", "t"], "vector_field": ["t", "-1*x"]}
_X1_X1 = {"base_split": {"base_count": 2, "verticals": ["x1", "x1"]}}
_FLOW = ["--x0", "1,0.5,0.25", "--h", "0.01", "--T", "0.1"]
_NAMES = {"name": "names", "coordinates": ["x1", "x2"], "vector_field": ["x2", "1"]}

# malformed inputs that reach past the loader's type checks: the system
# file (a bundled stem or the whole file), the entries that replace its
# own, the arguments after its path, and a part of the message
_INPUT_ERRORS = {
    "coordinate t: verify": (_XT, {}, ["verify"], "coordinate named 't'"),
    "coordinate t: characteristic": (_XT, {}, ["characteristic"], "coordinate named 't'"),
    "coordinate t: integrate --sweep": (
        _XT, {}, ["integrate", "--x0", "1,0", "--h", "0.01", "--T", "0.1", "--sweep"],
        "coordinate named 't'"),
    "verticals x1,x1: verify": ("euler_top", _X1_X1, ["verify"], "two distinct coordinates"),
    "verticals x1,x1: characteristic": ("euler_top", _X1_X1, ["characteristic"],
                                        "two distinct coordinates"),
    "verticals x1,x1: integrate --sweep": ("euler_top", _X1_X1, ["integrate", *_FLOW, "--sweep"],
                                           "two distinct coordinates"),
    "--base-split 2:t,t: characteristic": ("euler_top", {}, ["characteristic", "--base-split", "2:t,t"],
                                           "two distinct coordinates"),
    "--base-split 1:q,q: verify": ("harmonic_oscillator_m1", {}, ["verify", "--base-split", "1:q,q"],
                                   "two distinct coordinates"),
    # abc_paper_verbatim has no flux potential: the flag is checked before
    # any certificate, so a bad one exits 2 here too
    "--base-split garbage: verify, no potential": (
        "abc_paper_verbatim", {}, ["verify", "--base-split", "garbage"], "bad --base-split"),
    "--base-split 2:x1,nope: verify, no potential": (
        "abc_paper_verbatim", {}, ["verify", "--base-split", "2:x1,nope"],
        "two distinct coordinates"),
    "--base-split 2:x1,x1: characteristic, no potential": (
        "abc_paper_verbatim", {}, ["characteristic", "--base-split", "2:x1,x1"],
        "two distinct coordinates"),
    "base_count 3: verify": ("euler_top", {"base_split": {"base_count": 3, "verticals": ["x1", "x2"]}},
                             ["verify"], "base count 3 must equal 2"),
    "verify --out in a missing directory": ("euler_top", {}, ["verify", "--out", "@missing/r.json"],
                                            "No such file or directory"),
    "integrate --csv in a missing directory": (
        "euler_top", {}, ["integrate", *_FLOW, "--csv", "@missing/x.csv"],
        "No such file or directory"),
    "coordinate 1": (_NAMES, {"coordinates": ["1", "x2"]}, ["verify"],
                     "name '1' is not an identifier"),
    "coordinate empty": (_NAMES, {"coordinates": ["", "x2"]}, ["characteristic"],
                         "name '' is not an identifier"),
    "coordinate x 1": (_NAMES, {"coordinates": ["x 1", "x2"]}, ["verify"],
                       "name 'x 1' is not an identifier"),
    "parameter 2a": (_NAMES, {"parameters": {"2a": "1"}}, ["verify"],
                     "name '2a' is not an identifier"),
    "--param mu=5": ("euler_top", {}, ["integrate", *_FLOW, "--param", "mu=5"],
                     "'mu' is not a parameter of this system"),
    "--param =3": ("euler_top", {}, ["integrate", *_FLOW, "--param", "=3"],
                   "'' is not a parameter of this system"),
}


@pytest.mark.parametrize("case", list(_INPUT_ERRORS))
def test_input_errors_exit_2_with_one_error_line(tmp_path, capsys, case):
    source, entries, argv, message = _INPUT_ERRORS[case]
    if isinstance(source, str):
        source = json.loads((BENCH_BUNDLED / f"{source}.json").read_text(encoding="utf-8"))
    path = tmp_path / "system.json"
    path.write_text(json.dumps({**source, **entries}), encoding="utf-8")
    argv = [a.replace("@missing", str(tmp_path / "missing")) for a in argv]
    assert main([argv[0], str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_verify_abc_flow_reports_the_certainty_of_each_zero_test(capsys):
    # d(theta) has trig atoms, but dσ = Ω puts a constant coefficient in it,
    # a trig-free witness that decides theta_nondegenerate and
    # proper_principle exactly without sampling the trig coefficients
    rc = main(["verify", str(BENCH_BUNDLED / "abc_flow.json"), "--hodge"])
    report = read_json(capsys)
    assert rc == 0
    assert [(c["name"], c["verdict"], c["certainty"]) for c in report["certificates"]] == [
        ("liouville_flux_closed", "PASS", "exact"),
        ("gamma_flux_match", "PASS", "exact"),
        ("theta_nondegenerate", "PASS", "exact"),
        ("characteristic_annihilation", "PASS", "exact"),
        ("characteristic_normalization", "PASS", "exact"),
        ("proper_principle", "PASS", "exact"),
        ("psi1_annihilated_by_W", "PASS", "exact"),
        ("psi2_annihilated_by_W", "PASS", "exact"),
        ("hodge_duality", "PASS", "exact"),
    ]


def _write_system(tmp_path, field):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"name": "s", "coordinates": ["x1", "x2"],
                                "vector_field": field}), encoding="utf-8")
    return path


@pytest.mark.parametrize("entry, position", [
    ("x1^\u00b2", 3), ("x1^" + "7" * 5000, 3), ("7" * 5000 + "*x1", 0)])
def test_verify_number_token_int_cannot_read_exit_2(tmp_path, capsys, entry, position):
    rc = main(["verify", str(_write_system(tmp_path, [entry, "0"]))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: number with ") and f"(at position {position})" in err


@pytest.mark.parametrize("exponent", [2000, 8000])
def test_verify_over_the_term_budget_exit_2_within_a_second(tmp_path, capsys, exponent):
    path = _write_system(tmp_path, [f"(x1 + x2)^{exponent}", "0"])
    t0 = time.perf_counter()
    rc = main(["verify", str(path)])
    elapsed = time.perf_counter() - t0
    assert rc == 2 and elapsed < 1.0
    assert "budget" in capsys.readouterr().err


_WIDE_FIELD = {"name": "s", "coordinates": ["x1", "x2", "x3"],
               "vector_field": ["(x2 + x3 + 1)^20", "(x1 + x3 + 1)^20", "(x1 + x2 + 1)^20"]}


def test_verify_over_the_term_budget_of_a_contraction_exit_2_within_a_second(tmp_path, capsys):
    """Each entry loads within the budget (231 terms), and so does the
    theta coefficient (231 terms).  rho, d(theta)'s spatial top
    coefficient, is that coefficient's 210-term x3-derivative, and the
    residual's rho·Z^i multiplies it by each entry: 48510 term products,
    refused before multiplying."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps({**_WIDE_FIELD,
                                "theta": [{"index": [2, 3], "coeff": "(x1 + x2 + x3)^20"}]}),
                    encoding="utf-8")
    t0 = time.perf_counter()
    rc = main(["verify", str(path)])
    elapsed = time.perf_counter() - t0
    assert rc == 2 and elapsed < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget of 10000 term products" in err


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--hodge"], ["characteristic"]])
def test_contraction_products_that_cancel_pairwise_are_not_refused(tmp_path, capsys, argv):
    """Each X^i is free of x_i, so the field is Liouville.  The products of
    Z ⌟ d(theta) are X^i·X^j − X^j·X^i, each far over the term budget, and
    neither command forms them.  ``verify`` decides the residual: with
    rho = 1 its products rho·Z^i hold one factor 1, and the psi rows are
    stated, not computed.  ``characteristic`` divides W by its constant
    W^t and compares it with Z."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_WIDE_FIELD), encoding="utf-8")
    t0 = time.perf_counter()
    rc = main([argv[0], str(path)] + argv[1:])
    elapsed = time.perf_counter() - t0
    assert rc == 0 and elapsed < 1.0
    report = read_json(capsys)
    if argv[0] == "verify":
        assert report["overall"] == "PASS"
        assert all(c["verdict"] == "PASS" and c["certainty"] == "exact"
                   for c in report["certificates"])
    else:
        assert report["W_matches_annihilator"] is True and report["certainty"] == "exact"


_HUGE = "7" * 401


@pytest.mark.parametrize("command, entry, message", [
    ("verify", "(2*x1)^20000", "bits"),
    ("integrate", "(2*x1)^20000", "bits"),
    ("integrate", _HUGE + "*x2", "too large for a float"),
    ("verify", _HUGE + "*sin(x1)", "too large for a float"),
], ids=["verify-power", "integrate-power", "integrate-401-digits", "verify-401-digits-trig"])
def test_oversized_coefficients_exit_2(tmp_path, capsys, command, entry, message):
    argv = [command, str(_write_system(tmp_path, [entry, "0"]))]
    if command == "integrate":
        argv += ["--x0", "1,1", "--h", "0.1", "--T", "0.2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("seed", [2, 3, 4, 8])
def test_verify_zero_test_beyond_the_float_range_exit_2(tmp_path, capsys, seed):
    # the flux residual x2^2000*cos(x1) overflows at a sample point before
    # any point shows it nonzero
    path = _write_system(tmp_path, ["x2^2000*sin(x1)", "0"])
    assert main(["verify", str(path), "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: zero test: a term leaves the float range")
    assert f"(seed {seed})" in captured.err


def test_verify_nonzero_before_the_float_range_keeps_its_verdict(tmp_path, capsys):
    # at the default seed the first point is finite and nonzero: flux FAIL
    path = _write_system(tmp_path, ["x2^2000*sin(x1)", "0"])
    assert main(["verify", str(path)]) == 1
    report = read_json(capsys)
    assert report["certificates"][0]["name"] == "liouville_flux_closed"
    assert report["certificates"][0]["verdict"] == "FAIL"


_PRODUCT_ARGS = {
    "verify": [], "characteristic": [], "solve-gamma": [],
    "integrate": ["--x0", "1,1", "--h", "0.1", "--T", "0.2"],
}


@pytest.mark.parametrize("entry, bits", [
    ("*".join(["(2*x1)^2000"] * 8) + "*x2", 16001),
    ("*".join(["(2^2000*x1 + 1)", "(2^2000*x2 + 1)"] * 2), 8001),
], ids=["one-term-factors", "wide-factors"])
@pytest.mark.parametrize("command", list(_PRODUCT_ARGS))
def test_product_of_powers_over_the_coefficient_budget_exit_2(tmp_path, capsys, command,
                                                              entry, bits):
    """Each power stays within MAX_COEFF_BITS; their product does not, and
    the parser refuses it before any command renders or compiles it."""
    path = _write_system(tmp_path, [entry, "0"])
    assert main([command, str(path)] + _PRODUCT_ARGS[command]) == 2
    err = capsys.readouterr().err
    assert err == f"error: a {bits}-bit coefficient exceeds the budget of 4096 bits\n"


@pytest.mark.parametrize("argv", [["verify", "--hodge"], ["characteristic"], ["solve-gamma"]])
def test_coefficients_within_the_budget_still_pass(tmp_path, capsys, argv):
    """A divergence-free field whose coefficients have 4001 bits."""
    big = "2^2000*2^2000"
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"name": "big", "coordinates": ["x1", "x2", "x3"],
                                "vector_field": [f"{big}*x2^3*x3", f"{big}*x3^3*x1",
                                                 f"{big}*x1^3*x2"]}), encoding="utf-8")
    assert main([argv[0], str(path)] + argv[1:]) == 0
    assert capsys.readouterr().err == ""


def test_verify_hodge_does_not_carry_over_to_the_next_call(example_dir, capsys):
    path = str(example_dir / "euler_top.json")
    assert main(["verify", path, "--hodge"]) == 0
    assert "hodge_duality" in [c["name"] for c in read_json(capsys)["certificates"]]
    assert main(["verify", path]) == 0
    assert "hodge_duality" not in [c["name"] for c in read_json(capsys)["certificates"]]


def test_verify_hodge_with_a_non_square_metric_determinant_exit_2(tmp_path, capsys):
    data = json.loads((BENCH_BUNDLED / "euler_top.json").read_text(encoding="utf-8"))
    data["metric"] = ["2", "1", "1"]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--hodge"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: metric determinant must be a perfect rational square for exact duality\n"


def test_verify_hodge_takes_the_metric_square_root_once(monkeypatch, capsys):
    """``hodge_check`` refuses a non-square determinant through
    ``metric_sqrt_det`` and then restates the verdict on the kernel
    residual, in which the square root cancels; no Hodge star takes it a
    second time."""
    calls = _record_calls(monkeypatch, liouvar.exterior.metric_sqrt_det)
    assert main(["verify", str(BENCH_BUNDLED / "euler_top.json"), "--hodge"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_verify_hodge_builds_the_kernel_residual_once(monkeypatch, capsys):
    """``hodge_duality`` and ``characteristic_annihilation`` decide the one
    residual R, so R is built, and zero-tested, once per job."""
    calls = _record_calls(monkeypatch, liouville.kernel_residual)
    assert main(["verify", str(BENCH_BUNDLED / "euler_top.json"), "--hodge"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


_ABC_SWEEP = ["--param", "A=1", "B=1", "C=1", "--x0", "0.1,0.2,0.3", "--h", "1e-2", "--T", "0.1",
              "--sweep"]


@pytest.mark.parametrize("flag, seed", [(["--seed", "7"], 7), ([], 314159)],
                         ids=["seed-7", "default"])
@pytest.mark.parametrize("name, argv, code", [
    ("abc_flow", ["verify", "--hodge"], 0),
    ("abc_flow", ["characteristic"], 0),
    ("abc_flow", ["integrate", *_ABC_SWEEP], 0),
    ("abc_paper_verbatim", ["verify"], 1),
], ids=["verify-hodge", "characteristic", "integrate-sweep", "verify-sampled-fail"])
def test_every_zero_test_takes_the_commands_seed(monkeypatch, capsys, name, argv, code,
                                                 flag, seed):
    """``is_zero`` and ``all_zero``, wrapped in every liouvar namespace
    that binds them, record the seed of each call: none falls back to the
    default when ``--seed`` is given.  abc_flow's sin/cos terms cancel in
    the normal form; abc_paper_verbatim's flux closure fails by sampling,
    so ``all_zero`` must also pass the seed on to ``is_zero``."""
    recorded = [_record_calls(monkeypatch, test) for test in (liouvar.expr.is_zero,
                                                              liouvar.expr.all_zero)]
    path = str(BENCH_BUNDLED / f"{name}.json")
    assert main([argv[0], path, *argv[1:], *flag]) == code
    capsys.readouterr()
    calls = [call for record in recorded for call in record]
    assert calls and {call["seed"] for call in calls} == {seed}


def test_verify_hodge_reads_a_space_without_a_metric_as_euclidean(tmp_path, capsys):
    path = tmp_path / "metric.json"
    data = json.loads((BENCH_BUNDLED / "euler_top.json").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**data, "metric": ["1", "1", "1"]}), encoding="utf-8")
    assert main(["verify", str(BENCH_BUNDLED / "euler_top.json"), "--hodge"]) == 0
    bundled = capsys.readouterr().out
    assert main(["verify", str(path), "--hodge"]) == 0
    assert capsys.readouterr().out == bundled


def test_verify_deterministic_bytes(example_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", str(example_dir / "abc_flow.json"), "--out", str(a)])
    main(["verify", str(example_dir / "abc_flow.json"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _record_calls(monkeypatch, original):
    """Wrap ``original`` in every liouvar module that holds it by name; each
    call appends its arguments by parameter name, defaults filled in."""
    calls = []
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("liouvar") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, recording)
    return calls


def test_verify_binds_the_loaded_system_once(example_dir, monkeypatch, capsys):
    path = str(example_dir / "euler_top.json")
    calls = _record_calls(monkeypatch, liouvar.expr.substitute)
    load_system(path)
    at_load = len(calls)
    assert at_load > 0  # euler_top binds its inertia moments and mu_i
    calls.clear()
    assert main(["verify", path, "--hodge"]) == 0
    capsys.readouterr()
    assert len(calls) == at_load


# --------------------------------------------------------------------------
# solve-gamma


def test_solve_gamma_euler(example_dir, capsys):
    rc = main(["solve-gamma", str(example_dir / "euler_top.json")])
    out = read_json(capsys)
    assert rc == 0
    assert out["residual"] == []
    assert out["gamma"]


def test_solve_gamma_trig_rejected(example_dir, capsys):
    rc = main(["solve-gamma", str(example_dir / "abc_flow.json")])
    assert rc == 1
    assert "non-polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve-gamma", "characteristic"])
def test_a_flux_that_is_not_closed_is_refused_as_such(example_dir, capsys, command):
    # abc_paper_verbatim has trig coefficients, and no potential exists
    rc = main([command, str(example_dir / "abc_paper_verbatim.json")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: input form is not closed\n"


def test_verify_names_a_flux_that_is_not_closed_as_the_missing_potential(example_dir, capsys):
    rc = main(["verify", str(example_dir / "abc_paper_verbatim.json")])
    report = read_json(capsys)
    assert rc == 1
    certs = {c["name"]: c for c in report["certificates"]}
    assert certs["potential_available"] == {
        "name": "potential_available", "verdict": "FAIL", "certainty": "probabilistic",
        "detail": "input form is not closed"}
    assert certs["liouville_flux_closed"]["certainty"] == "probabilistic"


def test_solve_gamma_free_particle_matches_stored(example_dir, capsys):
    # the homotopy representative differs from the stored potential by a closed form
    rc = main(["solve-gamma", str(example_dir / "free_particle.json")])
    out = read_json(capsys)
    assert rc == 0
    from liouvar.exterior import deserialize_form, exterior_derivative
    from liouvar.systems import load_system
    sys = load_system(example_dir / "free_particle.json")
    solved = deserialize_form(sys.space, sys.space.dim - 2, out["gamma"])
    assert exterior_derivative(solved - sys.gamma).is_zero_form


def test_solve_gamma_missing_file(capsys):
    assert main(["solve-gamma", "/nonexistent/system.json"]) == 2


# --------------------------------------------------------------------------
# sigma solved from a nonstandard volume form

_ROTATION_R2 = {"coordinates": ["x1", "x2"], "vector_field": ["x2", "-1*x1"]}
_ROTATION_R3 = {"coordinates": ["x1", "x2", "x3"], "vector_field": ["x2", "-1*x1", "0"]}


def _volume_system(tmp_path, base, density, **extra):
    path = tmp_path / "volume.json"
    index = list(range(1, len(base["coordinates"]) + 1))
    path.write_text(json.dumps({"name": "rotation", **base, **extra,
                                "volume": [{"index": index, "coeff": density}]}))
    return str(path)


@pytest.mark.parametrize("base, density", [(_ROTATION_R2, "2"), (_ROTATION_R3, "1 + x3^2")])
def test_a_polynomial_volume_form_gets_a_solved_sigma(tmp_path, capsys, base, density):
    path = _volume_system(tmp_path, base, density)
    rc = main(["verify", path])
    report = read_json(capsys)
    assert rc == 0 and report["overall"] == "PASS"
    assert all(c["verdict"] == "PASS" for c in report["certificates"])
    rc = main(["characteristic", path])
    out = read_json(capsys)
    assert rc == 0 and out["W_matches_annihilator"] is True
    assert out["Z"] == ["1"] + base["vector_field"]


@pytest.mark.parametrize("extra", [{}, {"metric": ["4", "9", "1"]}])
def test_verify_hodge_takes_a_polynomial_volume_density(tmp_path, capsys, extra):
    path = _volume_system(tmp_path, _ROTATION_R3, "1 + x3^2", **extra)
    rc = main(["verify", path, "--hodge"])
    certs = {c["name"]: c for c in read_json(capsys)["certificates"]}
    assert rc == 0
    assert (certs["hodge_duality"]["verdict"], certs["hodge_duality"]["certainty"]) == ("PASS", "exact")


def test_verify_hodge_fails_a_dtheta_without_a_spatial_top_term(tmp_path, capsys):
    path = tmp_path / "notop.json"
    path.write_text(json.dumps({"name": "notop", **_ROTATION_R2,
                                "theta": [{"index": [1], "coeff": "1/2*x1^2 + 1/2*x2^2"}]}))
    rc = main(["verify", str(path), "--hodge"])
    certs = {c["name"]: c for c in read_json(capsys)["certificates"]}
    assert rc == 1 and certs["hodge_duality"]["verdict"] == "FAIL"


@pytest.mark.parametrize("base, density, extra", [
    (_ROTATION_R2, "2 + sin(x1)", {}),
    # an invariant density with its flux potential supplied: only sigma is missing
    (_ROTATION_R3, "2 + sin(x3)",
     {"gamma": [{"index": [3], "coeff": "1/2*(2 + sin(x3))*(x1^2 + x2^2)"}]}),
])
def test_a_trig_volume_form_is_refused_as_non_polynomial(tmp_path, capsys, base, density, extra):
    path = _volume_system(tmp_path, base, density, **extra)
    rc = main(["verify", path])
    report = read_json(capsys)
    assert rc == 1
    certs = {c["name"]: c for c in report["certificates"]}
    assert certs["potential_available"]["verdict"] == "FAIL"
    assert "non-polynomial" in certs["potential_available"]["detail"]
    assert main(["characteristic", path]) == 1
    assert "non-polynomial" in capsys.readouterr().err


# --------------------------------------------------------------------------
# characteristic


def test_characteristic_oscillator(example_dir, capsys):
    rc = main(["characteristic", str(example_dir / "harmonic_oscillator_m1.json")])
    out = read_json(capsys)
    assert rc == 0
    assert out["Z"] == ["1", "p", "-1*q"]
    assert out["A"] == ["1"]
    assert out["f"] == "p" and out["g"] == "-1*q"
    assert out["W_matches_annihilator"] is True


def test_characteristic_euler_default_split(example_dir, capsys):
    rc = main(["characteristic", str(example_dir / "euler_top.json")])
    out = read_json(capsys)
    assert rc == 0
    assert out["base"] == ["t", "x1"]
    assert out["Z"][0] == "1"
    assert out["Z"][1:] == ["-1*x2*x3", "x1*x3", "-1/3*x1*x2"]


def _bundled_coordinates(name):
    return json.loads((BENCH_BUNDLED / f"{name}.json").read_text(encoding="utf-8"))["coordinates"]


def _ordered_vertical_pairs(name):
    return [(name, pair) for pair in itertools.permutations(["t", *_bundled_coordinates(name)], 2)]


@pytest.mark.parametrize(
    "name, pair",
    _ordered_vertical_pairs("euler_top") + _ordered_vertical_pairs("hyperham_generic")
    + [("abc_flow", ("x3", "x2")), ("abc_flow", ("t", "x2"))])
def test_characteristic_matches_the_annihilator_for_every_ordered_vertical_pair(name, pair, capsys):
    # W is built in the split chart, where an odd reordering of the
    # coordinates flips its sign; divided by its time component and read
    # in the original chart it is d_t + X whatever the sign
    base_count = len(_bundled_coordinates(name)) - 1
    rc = main(["characteristic", str(BENCH_BUNDLED / f"{name}.json"),
               "--base-split", f"{base_count}:{pair[0]},{pair[1]}"])
    out = read_json(capsys)
    assert rc == 0
    assert out["verticals"] == list(pair)
    assert out["W_matches_annihilator"] is True


def test_characteristic_of_a_theta_whose_kernel_is_not_the_flow_exit_1(tmp_path, capsys):
    # d(theta) = -x1 dt∧dx1 + dx1∧dx2 is annihilated by d_t - x1 d_x2, not
    # by the rotation d_t + x2 d_x1 - x1 d_x2
    data = {"name": "wrong_theta", "coordinates": ["x1", "x2"], "vector_field": ["x2", "-1*x1"],
            "theta": [{"index": [3], "coeff": "x1"}, {"index": [1], "coeff": "1/2*x1^2"}]}
    path = tmp_path / "wrong_theta.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["characteristic", str(path)])
    out = read_json(capsys)
    assert rc == 1
    assert out["Z"] == ["1", "0", "-1*x1"]
    assert out["W_matches_annihilator"] is False and out["certainty"] == "exact"


def test_characteristic_takes_the_flux_field_of_dtheta_once(example_dir, capsys, monkeypatch):
    original = liouville.flux_field
    calls = []

    def counting(alpha):
        calls.append(1)
        return original(alpha)

    monkeypatch.setattr(liouville, "flux_field", counting)
    assert main(["characteristic", str(example_dir / "euler_top.json")]) == 0
    assert read_json(capsys)["W_matches_annihilator"] is True
    assert len(calls) == 1


def test_characteristic_improper_exit_1(tmp_path, capsys):
    # H = q gives d(theta) without a dt∧dp term, improper for verticals (t, p)
    sys = build_hamiltonian("q", 1, name="drift")
    sys.base_split = (1, ("t", "p"))
    path = tmp_path / "improper.json"
    save_system(sys, path)
    rc = main(["characteristic", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: all base components vanish: improper principle (exact)\n"


# --------------------------------------------------------------------------
# integrate


def test_integrate_euler_reference_run(example_dir, capsys, tmp_path):
    csv = tmp_path / "traj.csv"
    rc = main(["integrate", str(example_dir / "euler_top.json"),
               "--param", "I1=1", "I2=2", "I3=3",
               "--x0", "1,1,1", "--h", "1e-3", "--T", "10",
               "--tangent", "--csv", str(csv)])
    out = read_json(capsys)
    assert rc == 0
    diag = out["diagnostics"]
    assert all(d <= 1e-8 for d in diag["invariant_drifts"])
    assert diag["det_deviation"] <= 1e-6
    assert diag["csv_rows"] == 10001
    assert csv.read_text(encoding="utf-8").splitlines()[0] == "s,x0,x1,x2,det"


def test_integrate_tangent_csv_takes_the_determinants_once(example_dir, capsys, tmp_path,
                                                           monkeypatch):
    det = np.linalg.det
    shapes = []

    def counted_det(a):
        shapes.append(a.shape)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted_det)
    path, csv = example_dir / "euler_top.json", tmp_path / "traj.csv"
    x0, h, T = [0.3, -0.2, 0.1], 1e-2, 1.0
    rc = main(["integrate", str(path), "--x0=0.3,-0.2,0.1", "--h", repr(h), "--T", repr(T),
               "--tangent", "--csv", str(csv)])
    out = read_json(capsys)
    # one stacked det of the block's step Jacobians, none of full tangent maps
    assert rc == 0 and shapes == [(100, 3, 3)]
    # the report and the CSV hold the one volume array of the trajectory
    system = load_system(path)
    traj = integrate_rk4(system.bound_copy.field, x0, h, T, with_tangent=True)
    dets = traj.volume
    assert out["diagnostics"]["det_deviation"] == float(np.max(np.abs(dets - 1.0)))
    rows = ["%.17g,%.17g,%.17g,%.17g,%.17g" % (s, *x, d)
            for s, x, d in zip(traj.grid.tolist(), traj.states.tolist(), dets.tolist())]
    assert csv.read_text(encoding="utf-8") == "\n".join(["s,x0,x1,x2,det"] + rows) + "\n"


def test_integrate_takes_a_negative_first_component_joined_with_equals(example_dir, capsys):
    # argparse would read a separate "-1,0" as an option
    rc = main(["integrate", str(example_dir / "harmonic_oscillator_m1.json"), "--x0=-1,0",
               "--h", "1e-2", "--T", "0.1", "--sweep"])
    out = read_json(capsys)
    assert rc == 0 and out["diagnostics"]["sweep"]["seeds"] > 0


def test_integrate_missing_param_exit_2(example_dir, capsys):
    rc = main(["integrate", str(example_dir / "abc_flow.json"),
               "--x0", "0.1,0.2,0.3", "--h", "1e-3", "--T", "1"])
    assert rc == 2
    assert "unbound parameters" in capsys.readouterr().err


def test_main_builds_its_parser_once(example_dir, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["verify", str(example_dir / "euler_top.json")]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert built == [1]


def test_integrate_calls_see_only_their_own_params(example_dir, capsys):
    run = ["integrate", str(example_dir / "euler_top.json"),
           "--x0", "1,1,1", "--h", "1e-2", "--T", "0.5"]
    reports = []
    for params in (["I1=2"], ["I2=5", "mu3=1"], []):
        assert main(run + (["--param", *params] if params else [])) == 0
        reports.append(read_json(capsys))
    assert [r["warnings"] for r in reports] == [
        ["overriding file-bound parameters: I1"],
        ["overriding file-bound parameters: I2, mu3"],
        [],
    ]
    # each report equals the one a freshly built parser gives for its call
    fresh = cli.build_parser().parse_args(run + ["--param", "I2=5", "mu3=1"])
    assert fresh.func(fresh) == 0
    assert read_json(capsys) == reports[1]
    # and a call without --param binds nothing that an earlier call bound
    abc = ["integrate", str(example_dir / "abc_flow.json"),
           "--x0", "0.1,0.2,0.3", "--h", "1e-2", "--T", "0.1"]
    assert main(abc + ["--param", "A=1", "B=1", "C=1"]) == 0
    capsys.readouterr()
    assert main(abc) == 2
    assert "unbound parameters: A, B, C" in capsys.readouterr().err


def test_integrate_abc_csv_rows(example_dir, capsys, tmp_path):
    csv = tmp_path / "abc.csv"
    rc = main(["integrate", str(example_dir / "abc_flow.json"),
               "--param", "A=1", "B=1", "C=1",
               "--x0", "0.1,0.2,0.3", "--h", "1e-3", "--T", "10",
               "--tangent", "--csv", str(csv)])
    out = read_json(capsys)
    assert rc == 0
    assert out["diagnostics"]["csv_rows"] == 10001
    assert out["diagnostics"]["det_deviation"] <= 1e-6


def test_integrate_blowup_exit_1(tmp_path, capsys):
    data = {
        "name": "explode",
        "coordinates": ["x1", "x2"],
        "parameters": {},
        "vector_field": ["1 + x1^2", "0"],
        "invariants": [],
    }
    path = tmp_path / "explode.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["integrate", str(path), "--x0", "1,0", "--h", "1e-3", "--T", "2"])
    assert rc == 1
    assert "step" in capsys.readouterr().err


def test_integrate_overflow_into_sin_exit_1(example_dir, capsys):
    rc = main(["integrate", str(example_dir / "abc_flow.json"), "--x0=0.3,1.2,2.5",
               "--h", "0.001", "--T", "1", "--param", "A=1e308", "B=1e308", "C=1e308"])
    assert rc == 1
    assert "error: non-finite state encountered at step 1" in capsys.readouterr().err


def test_integrate_invariant_beyond_the_float_range_exit_1(capsys):
    # the rotation keeps the state finite; x1^2 in its invariant overflows
    rc = main(["integrate", str(BENCH_BUNDLED / "nambu_rotor.json"),
               "--x0=1e200,1,1", "--h", "1e-3", "--T", "0.1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite invariant value encountered at step 0\n"


@pytest.mark.filterwarnings("error")
def test_integrate_invariant_product_beyond_the_float_range_exit_1(tmp_path, capsys):
    # x1*x2 is inf at 1e200 each, where x1^2 raises: both are a blow-up
    data = {
        "name": "hyperbolic",
        "coordinates": ["x1", "x2"],
        "parameters": {},
        "vector_field": ["x1", "-1*x2"],
        "invariants": ["x1*x2"],
    }
    path = tmp_path / "hyperbolic.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["integrate", str(path), "--x0=1e200,1e200", "--h", "1e-2", "--T", "0.1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite invariant value encountered at step 0\n"


@pytest.mark.filterwarnings("error")
def test_integrate_invariant_drift_beyond_the_float_range_exit_1(tmp_path, capsys):
    # every value of x1*x2 is finite, from -1e308 to 1e308, but their
    # difference overflows from step 9 on
    data = {
        "name": "drift",
        "coordinates": ["x1", "x2"],
        "parameters": {"a": "200000000"},
        "vector_field": ["0", "a"],
        "invariants": ["x1*x2"],
    }
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["integrate", str(path), "--x0=1e300,-1e8", "--h", "0.1", "--T", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite invariant drift encountered at step 9\n"


def test_integrate_invariant_coefficient_beyond_the_float_range_exit_2(tmp_path, capsys):
    # the invariants are compiled together before any value is judged, so
    # the input error wins over the first invariant's overflow at step 0
    data = {
        "name": "wide",
        "coordinates": ["x1", "x2", "x3"],
        "vector_field": ["x2", "-1*x1", "0"],
        "invariants": ["x1^2 + x2^2", "10^400*x3"],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["integrate", str(path), "--x0=1e200,1,1", "--h", "1e-2", "--T", "0.1"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: coefficient with a 1329-bit numerator "
                                       "is too large for a float\n")


@pytest.mark.filterwarnings("error")
def test_integrate_tangent_determinant_beyond_the_float_range_exit_1(tmp_path, capsys):
    # every tangent map diag(e^(100 s), e^(100 s)) stays finite, but its
    # determinant e^(200 s) overflows from s = 3.55 on
    path = _write_system(tmp_path, ["100*x1", "100*x2"])
    rc = main(["integrate", str(path), "--x0", "1,1", "--h", "1e-3", "--T", "5", "--tangent"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: non-finite tangent-map determinant encountered at step 3549\n"


@pytest.mark.filterwarnings("error")
def test_integrate_tangent_blowup_on_a_finite_state_names_the_determinant(tmp_path, capsys):
    # the state stays exactly 0 while det M_k = R^k, R = 1 + 1 + 1/2 + 1/6
    # + 1/24, overflows
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"name": "g", "coordinates": ["x1"], "vector_field": ["1000*x1"]}),
                    encoding="utf-8")
    rc = main(["integrate", str(path), "--x0", "0", "--h", "1e-3", "--T", "1", "--tangent"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: non-finite tangent-map determinant encountered at step 713\n"


@pytest.mark.parametrize("path, flags, bound", [
    # det M_k of this run is a product of maps whose condition number
    # exceeds 1e16; its LU determinant read 3.97e11
    ("abc_flow.json", ["--param", "A=1", "B=0.7", "C=0.4", "--x0", "0.1,0.2,0.3",
                       "--h", "1e-2", "--T", "200"], 1e-8),
    ("euler_top.json", ["--x0", "1,1,1", "--h", "1e-3", "--T", "100"], 1e-6),
])
def test_integrate_long_tangent_runs_keep_volume(example_dir, capsys, path, flags, bound):
    rc = main(["integrate", str(example_dir / path), *flags, "--tangent"])
    out = read_json(capsys)
    assert rc == 0 and out["diagnostics"]["det_deviation"] <= bound


_PLANE = {"coordinates": ["x1", "x2"]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, verdict, low, high", [
    # preserves x1 dx1 dx2: det M_s = e^-s and rho(x_s)/rho(x_0) = e^s
    (["x1", "-2*x2"], "PASS", 0.0, 1e-10),
    # preserves dx1 dx2 but not x1 dx1 dx2: det M_s = 1, rho grows as 1 + s
    (["1", "0"], "FAIL", 0.5, math.inf),
])
def test_integrate_tangent_measures_the_files_volume(tmp_path, capsys, field, verdict, low, high):
    path = _volume_system(tmp_path, {**_PLANE, "vector_field": field}, "x1")
    main(["verify", path])
    flux = read_json(capsys)["certificates"][0]
    assert flux["name"] == "liouville_flux_closed"
    assert (flux["verdict"], flux["certainty"]) == (verdict, "exact")
    csv = tmp_path / "traj.csv"
    rc = main(["integrate", path, "--x0", "1,1", "--h", "1e-3", "--T", "1", "--tangent",
               "--csv", str(csv)])
    deviation = read_json(capsys)["diagnostics"]["det_deviation"]
    assert rc == 0 and low <= deviation <= high
    # the CSV keeps det M_k; weighted by rho = x1 it gives the reading
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert deviation == float(np.max(np.abs(rows[:, 1] / rows[0, 1] * rows[:, 3] - 1.0)))


def test_integrate_tangent_with_a_constant_density_reads_the_determinants(example_dir, capsys,
                                                                          tmp_path):
    # free_particle's volume is -1 dx dv: the density cancels
    path, csv = example_dir / "free_particle.json", tmp_path / "traj.csv"
    assert load_system(path).omega.nfs == {63: liouvar.expr.normal_form(-1)}
    rc = main(["integrate", str(path), "--param", "k=1", "--x0", "1,0,0,0,1,1", "--h", "1e-2",
               "--T", "1", "--tangent", "--csv", str(csv)])
    deviation = read_json(capsys)["diagnostics"]["det_deviation"]
    dets = np.loadtxt(csv, delimiter=",", skiprows=1)[:, -1]
    assert rc == 0 and deviation == float(np.max(np.abs(dets - 1.0)))


def test_integrate_tangent_from_a_zero_volume_density_exit_2(tmp_path, capsys, monkeypatch):
    path = _volume_system(tmp_path, {**_PLANE, "vector_field": ["x1", "-2*x2"]}, "x1")
    argv = ["integrate", path, "--x0", "0,1", "--h", "1e-2", "--T", "1"]
    integrations = []
    monkeypatch.setattr(cli, "integrate_rk4",
                        lambda *a, **k: integrations.append(a) or integrate_rk4(*a, **k))
    rc = main(argv + ["--tangent"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: volume density is zero at the initial state; "
                            "the volume diagnostic divides by it\n")
    # refused before the trajectory is integrated
    assert integrations == []
    # without --tangent the density is not read
    assert main(argv) == 0 and len(integrations) == 1
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_integrate_tangent_volume_density_beyond_the_float_range_exit_1(tmp_path, capsys):
    # x1 = 1 + s, and (1 + s)^400 overflows from s = 4.897 on
    path = _volume_system(tmp_path, {**_PLANE, "vector_field": ["1", "0"]}, "x1^400")
    rc = main(["integrate", path, "--x0", "1,1", "--h", "1e-2", "--T", "6", "--tangent"])
    captured = capsys.readouterr()
    def overflows(x):
        try:
            x ** 400
        except OverflowError:
            return True
        return False

    states = integrate_rk4(load_system(path).field, (1, 1), 1e-2, 6.0).states
    step = next(k for k, x in enumerate(states[:, 0].tolist()) if overflows(x))
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: non-finite volume density encountered at step {step}\n"


@pytest.mark.filterwarnings("error")
def test_integrate_tangent_density_ratio_beyond_the_float_range_exit_1(tmp_path, capsys):
    # rho(x_0) = 5e-324 and rho(x_1) = 1e-2: their ratio overflows
    path = _volume_system(tmp_path, {**_PLANE, "vector_field": ["1", "0"]}, "x1")
    rc = main(["integrate", path, "--x0", "5e-324,1", "--h", "1e-2", "--T", "1", "--tangent"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == ("error: non-finite density-weighted determinant encountered "
                            "at step 1\n")


def test_integrate_tangent_needs_the_volume_density_bound(tmp_path, capsys):
    path = _volume_system(tmp_path, {**_PLANE, "vector_field": ["x2", "-1*x1"]}, "a",
                          parameters={"a": None})
    rc = main(["integrate", path, "--x0", "1,1", "--h", "1e-2", "--T", "1", "--tangent"])
    assert rc == 2 and capsys.readouterr().err == "error: unbound parameters: a\n"
    rc = main(["integrate", path, "--param", "a=2", "--x0", "1,1", "--h", "1e-2", "--T", "1",
               "--tangent"])
    assert rc == 0 and read_json(capsys)["diagnostics"]["det_deviation"] <= 1e-10


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "-1e400"])
def test_integrate_non_finite_param_exit_2(example_dir, capsys, value):
    rc = main(["integrate", str(example_dir / "euler_top.json"),
               "--x0", "1,1,1", "--h", "1e-3", "--T", "1", "--param", f"mu1={value}"])
    assert rc == 2
    assert "'mu1'" in capsys.readouterr().err


def test_integrate_file_param_too_large_for_a_float_exit_2(example_dir, capsys, tmp_path):
    data = json.loads((example_dir / "euler_top.json").read_text(encoding="utf-8"))
    data["parameters"]["mu1"] = "1" + "0" * 400
    path = tmp_path / "huge_param.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["integrate", str(path), "--x0", "1,1,1", "--h", "1e-3", "--T", "1"])
    assert rc == 2
    # mu1 is bound exactly; its coefficient in mu1*x2*x3 is refused as code is generated
    assert capsys.readouterr().err == (
        "error: coefficient with a 1329-bit numerator is too large for a float\n")


@pytest.mark.parametrize("argv", [[], ["--param", "k=2"]])
def test_integrate_an_unused_huge_bound_parameter_exit_0(example_dir, capsys, tmp_path, argv):
    # verify never converts k to a float, and integrate binds it exactly too
    data = json.loads((example_dir / "euler_top.json").read_text(encoding="utf-8"))
    data["parameters"]["k"] = "1" + "0" * 400
    path = tmp_path / "unused_huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in (["verify", str(path)],
                    ["integrate", str(path), "--x0", "1,1,1", "--h", "1e-2", "--T", "0.1", *argv]):
        assert main(command) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["overall"] == "PASS"


def test_integrate_pauli_spin_csv_equals_the_exactly_bound_field(example_dir, capsys, tmp_path):
    rng = random.Random("pauli_spin")
    values = {p: repr(rng.uniform(0.5, 1.5)) for p in ("Bx", "By", "Bz", "kappa")}
    x0 = [rng.uniform(-1.5, 1.5) for _ in range(4)]
    path, csv = example_dir / "pauli_spin.json", tmp_path / "cli.csv"
    rc = main(["integrate", str(path), "--x0", ",".join(map(repr, x0)), "--h", "1e-3",
               "--T", "1.5", "--tangent", "--csv", str(csv),
               "--param", *(f"{p}={v}" for p, v in values.items())])
    assert rc == 0
    capsys.readouterr()
    system = load_system(path)
    bound = replace(system, params={p: Fraction(float(v)) for p, v in values.items()}).bound()
    traj = integrate_rk4(bound.field, x0, 1e-3, 1.5, with_tangent=True)
    write_trajectory_csv(traj, tmp_path / "reference.csv")
    assert csv.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_integrate_compares_overridden_values_exactly(tmp_path, capsys):
    # 0.3333333333333333 is the float nearest 1/3, yet not 1/3
    path = tmp_path / "third.json"
    path.write_text(json.dumps({"name": "third", "coordinates": ["x1", "x2"],
                                "parameters": {"k": "1/3"},
                                "vector_field": ["k*x2", "-1*k*x1"]}), encoding="utf-8")
    flow = ["integrate", str(path), "--x0", "1,0", "--h", "1e-2", "--T", "0.1"]
    assert main([*flow, "--param", "k=0.3333333333333333"]) == 0
    assert read_json(capsys)["warnings"] == ["overriding file-bound parameters: k"]
    assert main(flow) == 0
    assert read_json(capsys)["warnings"] == []


def test_integrate_binds_the_loaded_system_once(example_dir, monkeypatch, capsys):
    path = str(example_dir / "euler_top.json")
    calls = _record_calls(monkeypatch, liouvar.expr.substitute)
    load_system(path)
    at_load = len(calls)
    flow = ["integrate", path, "--x0", "1,1,1", "--h", "1e-2", "--T", "0.1", "--sweep"]
    for argv, binds in (([], 1), (["--param", "I1=2"], 2)):
        calls.clear()
        assert main(flow + argv) == 0
        assert len(calls) == binds * at_load
    capsys.readouterr()


@pytest.mark.parametrize("verticals", ["bc", {"b": 1, "c": 2}])
def test_verify_verticals_that_are_not_a_list_exit_2(capsys, tmp_path, verticals):
    # with coordinates a, b, c, each would iterate to the pair (b, c)
    data = json.loads((BENCH_BUNDLED / "euler_top.json").read_text(encoding="utf-8"))
    for old, new in (("x1", "a"), ("x2", "b"), ("x3", "c")):
        data = _rename(data, old, new)
    data["base_split"] = {"base_count": 2, "verticals": verticals}
    path = tmp_path / "abc_coordinates.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 'verticals' must be a list of coordinate names\n")
    data["base_split"]["verticals"] = ["b", "c"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


def test_integrate_sweep_of_one_step_exit_2(example_dir, capsys):
    rc = main(["integrate", str(example_dir / "harmonic_oscillator_m1.json"),
               "--x0", "1,0", "--h", "1", "--T", "1", "--sweep"])
    assert rc == 2
    assert "two integration steps" in capsys.readouterr().err


@pytest.mark.parametrize("h, T", [("nan", "1"), ("1e-3", "nan"), ("1e-3", "inf"), ("inf", "1")])
def test_integrate_non_finite_step_or_duration_exit_2(example_dir, capsys, h, T):
    rc = main(["integrate", str(example_dir / "euler_top.json"),
               "--x0", "1,1,1", "--h", h, "--T", T])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("h, T", [("1e-320", "1e10"), ("1e-3", "1e300")])
def test_integrate_too_many_steps_exit_2(example_dir, capsys, h, T):
    rc = main(["integrate", str(example_dir / "euler_top.json"),
               "--x0", "1,1,1", "--h", h, "--T", T])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("depth, code", [(32, 0), (33, 2), (3000, 2)])
def test_integrate_nesting_depth(tmp_path, capsys, depth, code):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "name": "deep", "coordinates": ["x1", "x2"],
        "vector_field": ["(" * depth + "x2" + ")" * depth, "sin(" * depth + "x1" + ")" * depth],
    }), encoding="utf-8")
    rc = main(["integrate", str(path), "--x0", "0.5,0.5", "--h", "1e-2", "--T", "0.1", "--tangent"])
    assert rc == code
    if code == 2:
        assert "nesting" in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["1,1", "nan,0.1,0.2", "inf,0.1,0.2", "0.1,-inf,0.2",
                                "0.1,0.2,1e400"])
@pytest.mark.parametrize("tangent", [False, True])
def test_integrate_bad_x0_exit_2(example_dir, capsys, x0, tangent):
    rc = main(["integrate", str(example_dir / "euler_top.json"),
               f"--x0={x0}", "--h", "1e-3", "--T", "0.01"] + ["--tangent"] * tangent)
    assert rc == 2
    assert "non-finite state" not in capsys.readouterr().err


def test_integrate_huge_x0_overflows_exit_1(example_dir, capsys):
    rc = main(["integrate", str(example_dir / "euler_top.json"),
               "--x0=1e200,1e200,1e200", "--h", "1e-3", "--T", "0.01", "--tangent"])
    assert rc == 1
    assert "error: non-finite state encountered at step 1" in capsys.readouterr().err


def test_integrate_sweep(example_dir, capsys):
    rc = main(["integrate", str(example_dir / "harmonic_oscillator_m1.json"),
               "--x0", "1,0", "--h", "1e-3", "--T", str(2 * math.pi), "--sweep"])
    out = read_json(capsys)
    assert rc == 0
    sweep = out["diagnostics"]["sweep"]
    assert sweep["seeds"] == 5
    assert sweep["max_residual"] <= 1e-6


def test_integrate_twice_in_one_process_gives_the_cold_bytes(tmp_path, capsys):
    csv = tmp_path / "F.csv"
    abc = ["integrate", str(BENCH_BUNDLED / "abc_flow.json"), "--param", "A=1", "B=1", "C=1",
           "--x0=0.1,0.2,0.3", "--h", "1e-2", "--T", "1", "--tangent", "--csv", str(csv)]
    sweep = ["integrate", str(BENCH_BUNDLED / "harmonic_oscillator_m1.json"),
             "--x0", "1,0", "--h", "1e-2", "--T", "1", "--sweep"]
    compile_source.cache_clear()
    for argv in (abc, sweep):
        runs, misses = [], []
        for _ in range(2):
            assert main(argv) == 0
            runs.append((capsys.readouterr().out, csv.read_bytes() if csv.exists() else None))
            csv.unlink(missing_ok=True)
            misses.append(compile_source.cache_info().misses)
        # the first run compiled its code, the second compiled nothing
        assert runs[1] == runs[0]
        assert misses[0] > 0 and misses[1] == misses[0]
        compile_source.cache_clear()


def test_integrate_sweep_seeds_the_split_chart_by_coordinate_name(tmp_path, capsys, monkeypatch):
    data = json.loads((BENCH_BUNDLED / "euler_top.json").read_text(encoding="utf-8"))
    data["base_split"] = {"base_count": 2, "verticals": ["x1", "x2"]}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    seen = []
    sweep = cli.section_sweep

    def recording(dec, seeds, *args, **kwargs):
        seen.append((dec.space.coordinates, dec.k, seeds))
        return sweep(dec, seeds, *args, **kwargs)

    monkeypatch.setattr(cli, "section_sweep", recording)
    assert main(["integrate", str(path), "--x0", "0.1,0.2,0.3", "--h", "1e-2", "--T", "0.1",
                 "--sweep"]) == 0
    capsys.readouterr()
    [(chart, k, seeds)] = seen
    assert chart == ("t", "x3", "x1", "x2")
    centre = dict(zip(chart, seeds[2]))
    assert centre == {"t": 0.0, "x1": 0.1, "x2": 0.2, "x3": 0.3}
    assert [seed[k] - seeds[2][k] for seed in seeds] == pytest.approx([-0.1, -0.05, 0, 0.05, 0.1])


def test_integrate_sweep_takes_the_parameter_overrides(tmp_path, capsys):
    data = json.loads((BENCH_BUNDLED / "euler_top.json").read_text(encoding="utf-8"))
    data["parameters"]["mu1"] = "-2"
    path = tmp_path / "mu1.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    flow = ["--x0", "0.1,0.2,0.3", "--h", "1e-2", "--T", "1", "--sweep"]
    assert main(["integrate", str(BENCH_BUNDLED / "euler_top.json"), "--param", "mu1=-2", *flow]) == 0
    overridden = read_json(capsys)["diagnostics"]["sweep"]
    assert main(["integrate", str(path), *flow]) == 0
    assert overridden == read_json(capsys)["diagnostics"]["sweep"]


@pytest.mark.parametrize("argv, seed", [(["--seed", "777"], 777), ([], 314159)])
def test_integrate_sweep_decides_properness_at_the_commands_seed(example_dir, capsys, monkeypatch,
                                                                 argv, seed):
    seen = []
    decide = liouville.is_proper

    def recording(dec, seed):
        seen.append(seed)
        return decide(dec, seed)

    monkeypatch.setattr(liouville, "is_proper", recording)
    rc = main(["integrate", str(example_dir / "abc_flow.json"), "--param", "A=1", "B=1", "C=1",
               "--x0", "0.1,0.2,0.3", "--h", "1e-2", "--T", "0.1", "--sweep", *argv])
    out = read_json(capsys)
    assert rc == 0 and out["zero_test"]["seed"] == seed
    assert seen == [seed]


# --------------------------------------------------------------------------
# cold start: the other tests import numpy before the first call, so only a
# fresh interpreter shows which commands load it

COLD_SCRIPT = """
import contextlib, io, json, sys
import liouvar
from liouvar import cli
loaded = ["numpy" in sys.modules]
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
    loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def test_only_integrate_imports_numpy_in_a_fresh_interpreter(tmp_path, capsys):
    path, csv = str(BENCH_BUNDLED / "euler_top.json"), tmp_path / "traj.csv"
    argvs = [
        ["verify", path, "--hodge"],
        ["characteristic", path],
        ["solve-gamma", path],
        ["integrate", path, "--x0=0.3,-0.2,0.1", "--h", "1e-2", "--T", "1",
         "--tangent", "--csv", str(csv)],
    ]
    src = str(Path(liouvar.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_SCRIPT, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    cold = json.loads(proc.stdout)
    assert cold["loaded"] == [False, False, False, False, True]
    assert [run[0] for run in cold["runs"]] == [0, 0, 0, 0]
    cold_csv = csv.read_bytes()
    for argv, run in zip(argvs, cold["runs"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert [code, out, err] == run, argv[0]
    assert csv.read_bytes() == cold_csv


# --------------------------------------------------------------------------
# examples


def test_examples_round_trip(example_dir):
    from liouvar.systems import load_system
    files = sorted(p.name for p in example_dir.glob("*.json"))
    assert files == [
        "abc_flow.json", "abc_paper_verbatim.json", "charged_particle_constB.json",
        "euler_top.json", "free_particle.json", "harmonic_oscillator_m1.json",
        "harmonic_oscillator_m2.json", "hyperham_generic.json", "nambu_rotor.json",
        "pauli_spin.json",
    ]
    for name in files:
        path = example_dir / name
        first = path.read_text(encoding="utf-8")
        loaded = load_system(path)
        save_system(loaded, path)
        assert path.read_text(encoding="utf-8") == first, name


def test_emitted_examples_equal_the_benchmark_inputs_byte_for_byte(example_dir):
    emitted = sorted(p.name for p in example_dir.glob("*.json"))
    assert emitted == sorted(p.name for p in BENCH_BUNDLED.glob("*.json"))
    for name in emitted:
        assert (example_dir / name).read_bytes() == (BENCH_BUNDLED / name).read_bytes(), name


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--out", "report.json"]])
def test_examples_takes_only_emit(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["examples", "--emit", "emit", *flag])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_examples_emit_into_file_path_fails(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    rc = main(["examples", "--emit", str(blocker)])
    assert rc == 2


# --------------------------------------------------------------------------
# hostile input


_FUZZ_SYSTEMS = ("euler_top", "abc_flow", "harmonic_oscillator_m1", "nambu_rotor", "pauli_spin",
                 "free_particle")
_FUZZ_DEADLINE_S = 2.0


def _rename(value, old, new):
    """``value`` with the symbol ``old`` renamed in every string but the name."""
    if isinstance(value, str):
        return re.sub(rf"\b{re.escape(old)}\b", new, value)
    if isinstance(value, list):
        return [_rename(v, old, new) for v in value]
    if isinstance(value, dict):
        return {k: v if k == "name" else _rename(v, old, new) for k, v in value.items()}
    return value


@st.composite
def _hostile_runs(draw):
    """A bundled system file after edits that keep every JSON type valid,
    and the arguments of one subcommand with edge values in its flags.
    Each hostile edit is drawn a third of the time, so that most runs get
    past the first check.  ``@file``, ``@dir`` and ``@missing`` stand for
    paths of the test."""
    sometimes = st.sampled_from([False, False, True])
    stem = draw(st.sampled_from(_FUZZ_SYSTEMS))
    data = json.loads((BENCH_BUNDLED / f"{stem}.json").read_text(encoding="utf-8"))
    params = list(data.get("parameters", {}))
    if draw(sometimes):
        old = draw(st.sampled_from(data["coordinates"]))
        data = _rename(data, old, draw(st.sampled_from(
            ["t", "sin", "cos", *params, *data["coordinates"]])))
    coordinates = data["coordinates"]
    names = st.sampled_from(["t", *coordinates])
    if draw(sometimes):
        count = draw(st.sampled_from([len(coordinates) - 1, 0, len(coordinates)]))
        data["base_split"] = {"base_count": count, "verticals": draw(
            st.lists(names, min_size=2, max_size=2) | st.lists(names, min_size=1, max_size=3))}
    if draw(sometimes):
        data["coordinates"] = coordinates = draw(st.permutations(coordinates))
    number = st.sampled_from(["0", "1", "-1", "0.5", "1e200", "-0", "nan", "inf", "-inf", "",
                              "1e400", "x"])
    command = draw(st.sampled_from(["verify", "verify", "characteristic", "characteristic",
                                    "solve-gamma", "integrate", "integrate", "integrate",
                                    "examples"]))
    argv = [command, "@file"]
    if command == "examples":
        argv = [command, "--emit", draw(st.sampled_from(["@dir", "@file", "@missing"]))]
    if command == "verify" and draw(st.booleans()):
        argv.append("--hodge")
    if command in ("verify", "characteristic") and draw(sometimes):
        argv.append("--base-split=" + draw(
            st.builds("{}:{},{}".format, st.integers(-1, len(coordinates) + 1), names, names)
            | st.sampled_from(["", ":", "1:", "x1", "1:x1", "a:b,c", "1:x1,x2,x3", "1:,"])))
    if command == "integrate":
        dim = len(coordinates)
        good_x0 = st.lists(st.sampled_from(["0", "1", "-1", "0.5"]), min_size=dim, max_size=dim)
        bad_x0 = st.lists(number, min_size=max(dim - 1, 1), max_size=dim + 1)
        argv.append("--x0=" + ",".join(draw(bad_x0 if draw(sometimes) else good_x0)))
        h, T = "1e-3", "0.1"
        if draw(sometimes):
            h = draw(st.sampled_from(["0.1", "1", "0", "-1e-3", "1e-320", "nan", "inf"]))
            T = draw(st.sampled_from(["0", "0.01", "1", "-1", "nan", "inf", "1e300"]))
        argv += ["--h=" + h, "--T=" + T]
        items = [f"{p}=1" for p in params]
        if draw(sometimes):
            items = draw(st.lists(
                st.builds("{}={}".format, st.sampled_from(["", "mu", *params, *coordinates]), number)
                | st.sampled_from(["=", "A", *params]), max_size=3))
        argv += ["--param=" + item for item in items]
        for flag in ("--tangent", "--sweep"):
            if draw(st.booleans()):
                argv.append(flag)
        if draw(sometimes):
            argv += ["--csv", draw(st.sampled_from(["@dir/x.csv", "@missing/x.csv"]))]
    if command != "examples" and draw(sometimes):
        argv += ["--out", draw(st.sampled_from(["@dir/report.json", "@missing/report.json"]))]
    return data, argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_hostile_runs())
def test_hostile_edits_of_bundled_files_exit_0_1_or_2_without_a_traceback(fuzz_dir, run):
    """Every subcommand, in process, on type-valid but hostile edits of the
    bundled files and edge values of its flags.  An exit code of 2 comes
    with an ``error:`` line, and each run ends within the deadline."""
    data, argv = run
    case_dir = Path(tempfile.mkdtemp(dir=fuzz_dir))
    path = case_dir / "system.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    paths = {"@file": str(path), "@dir": str(case_dir), "@missing": str(case_dir / "missing")}
    argv = [re.sub("@file|@dir|@missing", lambda m: paths[m.group()], a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
    assert elapsed < _FUZZ_DEADLINE_S
