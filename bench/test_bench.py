"""Checks of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

CLI = run.import_cli()


def test_generator_is_seeded_and_independent_of_liouvar():
    code = ("import sys, workloads\n"
            "a = workloads.input_bytes('certify_poly_ladder', 7, 3)\n"
            "assert a == workloads.input_bytes('certify_poly_ladder', 7, 3)\n"
            "assert a != workloads.input_bytes('certify_poly_ladder', 8, 3)\n"
            "assert not [m for m in sys.modules if m.startswith('liouvar')]\n")
    subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, check=True)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.METRICS)


def _run_traced(tracer, workload, jobs, tmp_path):
    client = run.Client(CLI, workload, 1, tmp_path)
    for index in jobs:
        client.run(index, before=tracer.start_job)
    return client


def test_wrappers_cover_every_reference_and_uninstall_restores(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer.patched)
        assert tracer.unwrapped_references() == []
        diffform = sys.modules["liouvar.exterior"].DiffForm
        assert vars(diffform)["__init__"] is tracer.wrappers["exterior.DiffForm"]
        # names bound by "from .expr import normal_form" are wrapped too
        assert sys.modules["liouvar.exterior"].normal_form is tracer.wrappers["expr.normal_form"]
        assert sys.modules["liouvar"].load_system is tracer.wrappers["systems.load_system"]
        client = _run_traced(tracer, "certify_bundled", range(3), tmp_path)
        assert client.failed == 0
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_job_wall_time(workload, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        client = _run_traced(tracer, workload, range(2), tmp_path)
    finally:
        tracer.uninstall()
    metrics, problems = tracing.layer_metrics(tracer, client.walls, 1.0)
    assert problems == []
    assert metrics["trace.self_time_gap"] <= 0.01
    assert metrics["cli.self_s"] > 0


def test_normalised_times_follow_the_reference():
    walls = [0.01, 0.02, 0.03, 0.04]
    nominal = [run.REF_NOMINAL_S] * 5
    assert run.normalised(walls, nominal) == pytest.approx(walls)
    # a machine at half speed doubles both the jobs and the reference loop
    halved = [2 * run.REF_NOMINAL_S] * 5
    assert run.normalised([2 * w for w in walls], halved) == pytest.approx(walls)
    # one interrupted reference moves nothing
    nominal[2] = 50 * run.REF_NOMINAL_S
    assert run.normalised(walls, nominal) == pytest.approx(walls)


def test_checker_rejects_wrong_answers(tmp_path):
    verbatim = next(i for i, s in enumerate(workloads.SLOTS["certify_bundled"])
                    if s.system == "abc_paper_verbatim" and s.command == "verify")
    job = workloads.make_job("certify_bundled", 1, verbatim, tmp_path)
    code, out, _, _ = run.run_job(CLI.main, job.argv)
    assert workloads.check(job, code, out) is None
    assert workloads.check(job, 0, out) is not None
    passing = out.replace('"FAIL"', '"PASS"')
    assert workloads.check(job, 1, passing) is not None

    euler = next(i for i, s in enumerate(workloads.SLOTS["flow_numeric"]) if "--csv" in s.flags)
    job = workloads.make_job("flow_numeric", 1, euler, tmp_path)
    code, out, _, _ = run.run_job(CLI.main, job.argv)
    assert workloads.check(job, code, out) is None
    lines = job.csv.read_text(encoding="utf-8").splitlines()
    job.csv.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert workloads.check(job, code, out) is not None


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(run.BENCH, bare / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify_bundled",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
