"""liouvar benchmark: one closed-loop client calling the CLI in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
client runs one job at a time in this one process and thread: it writes
the job's input, calls ``liouvar.cli.main`` and checks the output against
the job's known answer (see ``workloads.py``).  Jobs are started until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs jobs for
half the time with every layer wrapped (see ``tracing.py``), replays the
same jobs unwrapped to measure the tracing overhead, and prints the
per-layer metrics.  ``--workload all`` runs every workload, each in its
own process.

The end-to-end times are normalised to the machine's speed.  A shared
host can run this process at half speed for minutes at a time, which no
run length averages out.  So a fixed pure-Python loop that does not touch
liouvar (``reference_s``) is timed after every job and around every
set-up, and each time is scaled by ``REF_NOMINAL_S`` over the loop's time
measured next to it: the result is in seconds at the speed at which the
loop takes ``REF_NOMINAL_S``.  The raw figures are printed on a line of
their own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# numpy's det must use one thread; set before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"

SETUP_REPEATS = 9

# The reference loop's size and the time it stands for: about its time on
# an idle 2.1 GHz Xeon vCPU with Python 3.11.
REF_LOOPS = 7500
REF_NOMINAL_S = 1e-3

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_cli():
    """Import liouvar.cli from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "liouvar" / "__init__.py").is_file():
        raise BenchError(f"no liouvar package under {SRC}")
    sys.path.insert(0, str(SRC))
    import liouvar.cli
    if Path(liouvar.cli.__file__).resolve().parent != SRC / "liouvar":
        raise BenchError(f"imported liouvar from {liouvar.cli.__file__}, not {SRC}")
    return liouvar.cli


def reference_s() -> float:
    """Wall time of a fixed loop of dict and float operations.

    It allocates nothing the garbage collector tracks (a dict of ints is
    untracked), so no collection runs inside it, and it reads nothing that
    a job leaves behind.
    """
    t0 = time.perf_counter()
    counts = {}
    acc = 0.0
    for i in range(REF_LOOPS):
        key = (i * 7919) % 211
        counts[key] = counts.get(key, 0) + 1
        acc += (i % 13) * 0.5
    return time.perf_counter() - t0


def normalised(walls, refs):
    """Each wall time scaled to the reference speed.

    ``refs[j]`` is the reference time measured before ``walls[j]`` and
    ``refs[j + 1]`` the one after it; a job is scaled by the median of the
    four nearest, so that one interrupted reference moves nothing.
    """
    assert len(refs) == len(walls) + 1
    return [wall * REF_NOMINAL_S / statistics.median(refs[max(j - 1, 0):j + 3])
            for j, wall in enumerate(walls)]


def setup(workload: str, seed: int, workdir: Path):
    """Import liouvar and write the inputs of the first job cycle.

    Returns the CLI module and a SHA-256 of the cycle's inputs together
    with the stored bundled snapshot.
    """
    cli = import_cli()
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for path in sorted(workloads.BUNDLED_DIR.glob("*.json")):
        digest.update(path.read_bytes())
    for index in range(len(workloads.SLOTS[workload])):
        digest.update(workloads.input_bytes(workload, seed, index)[1])
        workloads.make_job(workload, seed, index, workdir)
    return cli, digest.hexdigest()


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time, normalised and raw, of SETUP_REPEATS fresh
    processes that each set up, after one untimed one that fills the
    caches (compiled modules, file pages)."""
    walls, refs = [], []
    for rep in range(SETUP_REPEATS + 1):
        workdir = WORK / f"setup-{os.getpid()}-{rep}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-only", str(workdir)],
                       check=True, cwd=ROOT)
        if rep:
            walls.append(time.perf_counter() - t0)
        refs.append(reference_s())
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(normalised(walls, refs)), statistics.median(walls)


def run_job(main, argv):
    """Call the CLI once; returns (exit code, or None on an exception, stdout,
    stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), wall


class Client:
    """Closed-loop client: one job at a time, each checked on return."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli, self.workload, self.seed, self.workdir = cli, workload, seed, workdir
        self.walls: list[float] = []
        self.refs = [reference_s()]
        self.failed = 0

    def run(self, index: int, before=None) -> None:
        job = workloads.make_job(self.workload, self.seed, index, self.workdir)
        if before is not None:
            before(index)
        code, out, err, wall = run_job(self.cli.main, job.argv)
        self.refs.append(reference_s())
        problem = "exception" if code is None else workloads.check(job, code, out)
        if problem:
            self.failed += 1
            print(f"job {index} {' '.join(job.argv)}: {problem}; stderr: {err.strip()[:300]}",
                  file=sys.stderr)
        self.walls.append(wall)
        if job.slot.size:
            Path(job.argv[1]).unlink()
        if job.csv is not None:
            job.csv.unlink(missing_ok=True)

    def run_for(self, seconds: float, before=None) -> int:
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            self.run(index, before)
            index += 1
        return index


def job_times(walls) -> dict:
    return {
        "jobs_per_s": len(walls) / sum(walls),
        "job_s.p50": statistics.median(walls),
        "job_s.p90": statistics.quantiles(walls, n=10)[8],
    }


def end_to_end(client: Client, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        **job_times(normalised(client.walls, client.refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(cli, workload, seed, workdir, seconds):
    """Traced jobs for half of ``seconds``, then the same jobs untraced."""
    tracer = tracing.Tracer()
    tracer.install()
    problems = [f"unwrapped after install: {n}" for n in tracer.unwrapped_references()]
    client = Client(cli, workload, seed, workdir)
    try:
        jobs = client.run_for(seconds / 2, before=tracer.start_job)
    finally:
        tracer.uninstall()
    problems += [f"wrapper left after uninstall: {n}" for n in tracer.leftover_wrappers()]
    replay = Client(cli, workload, seed, workdir)
    for index in range(jobs):
        replay.run(index)
    overhead = (sum(normalised(client.walls, client.refs))
                / sum(normalised(replay.walls, replay.refs)))
    metrics, gap_problems = tracing.layer_metrics(tracer, client.walls, overhead)
    problems += gap_problems
    TRACES.mkdir(exist_ok=True)
    tracing.write_spans(tracer, TRACES / f"{workload}-seed{seed}.npz")
    return metrics, problems, client.failed + replay.failed, 2 * jobs


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cli, digest = setup(args.workload, args.seed, workdir)
        import numpy
        print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
              f"numpy={numpy.__version__}")
        print(f"inputs sha256: {digest}")
        if args.trace:
            metrics, problems, failed, attempted = traced(
                cli, args.workload, args.seed, workdir, args.seconds)
            units = {name: unit for name, unit, _ in tracing.METRICS}
        else:
            setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
            client = Client(cli, args.workload, args.seed, workdir)
            client.run_for(args.seconds)
            metrics, problems = end_to_end(client, setup_s), []
            failed, attempted = client.failed, len(client.walls)
            units = dict(END_TO_END)
            print(f"jobs: {attempted}  error_rate: {failed / attempted:.4g} (fraction)")
            raw = {"setup_s": raw_setup_s, **job_times(client.walls)}
            print("raw, not normalised: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
            print(f"reference loop: median {statistics.median(client.refs) * 1e3:.4g} ms, "
                  f"range {min(client.refs) * 1e3:.4g}-{max(client.refs) * 1e3:.4g} ms "
                  f"(nominal {REF_NOMINAL_S * 1e3:g} ms)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()   # left in place while another run still uses it
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:22s} {name:40s} {value:.6g} {units[name]}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a process of its own; metrics keyed workload/name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        merged["correct"] &= proc.returncode == 0 and result["correct"]
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, Path(args.setup_only))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
