"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import sys
import time
from pathlib import Path

import pytest

import liouvar
import liouvar.cli as cli
from liouvar.cli import main
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


def test_verify_seed_env(example_dir, capsys, monkeypatch):
    monkeypatch.setenv("LIOUVILLE_SEED", "4242")
    rc = main(["verify", str(example_dir / "abc_flow.json")])
    report = read_json(capsys)
    assert rc == 0
    assert report["zero_test"]["seed"] == 4242


def test_verify_base_split_override(example_dir, capsys):
    rc = main(["verify", str(example_dir / "euler_top.json"),
               "--base-split", "2:x1,x3"])
    report = read_json(capsys)
    assert rc == 0 and report["overall"] == "PASS"


def test_verify_bad_base_split(example_dir, capsys):
    rc = main(["verify", str(example_dir / "euler_top.json"),
               "--base-split", "1:x1,x3"])
    assert rc == 2


def test_verify_abc_flow_reports_the_certainty_of_each_zero_test(capsys):
    # d(theta) has trig atoms, so the zero tests behind theta_nondegenerate
    # and proper_principle are sampled, not decided by the normal form
    rc = main(["verify", str(BENCH_BUNDLED / "abc_flow.json"), "--hodge"])
    report = read_json(capsys)
    assert rc == 0
    assert [(c["name"], c["verdict"], c["certainty"]) for c in report["certificates"]] == [
        ("liouville_flux_closed", "PASS", "exact"),
        ("gamma_flux_match", "PASS", "exact"),
        ("theta_nondegenerate", "PASS", "probabilistic"),
        ("characteristic_annihilation", "PASS", "exact"),
        ("characteristic_normalization", "PASS", "exact"),
        ("proper_principle", "PASS", "probabilistic"),
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


def test_verify_over_the_term_budget_of_a_contraction_exit_2_within_a_second(tmp_path, capsys):
    """Each entry loads within the budget (231 terms); the contractions of
    the certificates multiply them and are refused before multiplying."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"name": "s", "coordinates": ["x1", "x2", "x3"],
                                "vector_field": ["(x2 + x3 + 1)^20", "(x1 + x3 + 1)^20",
                                                 "(x1 + x2 + 1)^20"]}), encoding="utf-8")
    t0 = time.perf_counter()
    rc = main(["verify", str(path)])
    elapsed = time.perf_counter() - t0
    assert rc == 2 and elapsed < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget of 10000 term products" in err


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


def test_verify_deterministic_bytes(example_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", str(example_dir / "abc_flow.json"), "--out", str(a)])
    main(["verify", str(example_dir / "abc_flow.json"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _count_substitute_calls(monkeypatch):
    """Wrap ``substitute`` in every liouvar module that imports it."""
    original = liouvar.expr.substitute
    calls = []

    def counting(nf, mapping):
        calls.append(1)
        return original(nf, mapping)

    for name, module in list(sys.modules.items()):
        if name.startswith("liouvar") and getattr(module, "substitute", None) is original:
            monkeypatch.setattr(module, "substitute", counting)
    return calls


def test_verify_binds_the_loaded_system_once(example_dir, monkeypatch, capsys):
    path = str(example_dir / "euler_top.json")
    calls = _count_substitute_calls(monkeypatch)
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


def test_characteristic_improper_exit_1(tmp_path, capsys):
    # H = q gives d(theta) without a dt∧dp term, improper for verticals (t, p)
    sys = build_hamiltonian("q", 1, name="drift")
    sys.base_split = (1, ("t", "p"))
    path = tmp_path / "improper.json"
    save_system(sys, path)
    rc = main(["characteristic", str(path)])
    assert rc == 1
    assert "improper" in capsys.readouterr().err


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
    assert "'mu1'" in capsys.readouterr().err


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


def test_integrate_bad_x0_exit_2(example_dir, capsys):
    rc = main(["integrate", str(example_dir / "euler_top.json"),
               "--x0", "1,1", "--h", "1e-3", "--T", "1"])
    assert rc == 2


def test_integrate_sweep(example_dir, capsys):
    rc = main(["integrate", str(example_dir / "harmonic_oscillator_m1.json"),
               "--x0", "1,0", "--h", "1e-3", "--T", str(2 * math.pi), "--sweep"])
    out = read_json(capsys)
    assert rc == 0
    sweep = out["diagnostics"]["sweep"]
    assert sweep["seeds"] == 5
    assert sweep["max_residual"] <= 1e-6


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


def test_examples_emit_into_file_path_fails(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    rc = main(["examples", "--emit", str(blocker)])
    assert rc == 2
