"""The four workloads: their job plans and the known answer of every job.

A workload is a fixed cycle of job slots.  Job ``i`` runs slot
``i % len(slots)``; its input is the stored bundled snapshot or a system
file generated from ``(workload, seed, i)``, so every ladder job reads a
file no earlier job read.  Expected results come from the mathematics of
the input, never from a liouvar run:

* every generated system and every bundled one except
  ``abc_paper_verbatim`` is volume-preserving, so ``verify`` passes every
  certificate and ``characteristic`` reports ``W_matches_annihilator``;
* ``abc_paper_verbatim`` is not solenoidal: ``verify`` exits 1 with
  ``liouville_flux_closed`` FAIL and ``characteristic`` exits 1;
* ``solve-gamma`` refuses trigonometric input (exit 1) and on polynomial
  input returns a potential with an empty residual;
* ``integrate`` keeps the README's acceptance bounds (invariant drift
  <= 1e-8, tangent-map det deviation <= 1e-6), the sweep residual stays
  within h^2, and the CSV has steps + 1 rows.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import gen

BUNDLED_DIR = Path(__file__).resolve().parent / "bundled"

DRIFT_BOUND = 1e-8
DET_BOUND = 1e-6
FLOW_H = 1e-3
FLOW_T = 1.0


@dataclass(frozen=True)
class Slot:
    """One position in a workload's job cycle."""

    command: str          # verify | characteristic | solve-gamma | integrate
    system: str           # bundled file stem, or a gen.BUILDERS kind
    size: int = 0         # ladder size; 0 for bundled systems
    flags: tuple = ()     # extra CLI arguments for integrate


@dataclass
class Job:
    argv: list
    slot: Slot
    csv: Path | None = None


def _interleave(groups):
    """Spread each (slot, count) group evenly over one cycle, so that any
    prefix of the cycle holds about the same mix as the whole cycle."""
    keyed = []
    for order, (slot, count) in enumerate(groups):
        for k in range(count):
            keyed.append(((k + 0.5) / count, order, slot))
    return [slot for _, _, slot in sorted(keyed, key=lambda t: t[:2])]


def _ladder(groups):
    return _interleave([(Slot(cmd, kind, size), count)
                        for kind, size, counts in groups
                        for cmd, count in zip(("verify", "characteristic"), counts)])


BUNDLED = sorted(p.stem for p in BUNDLED_DIR.glob("*.json"))

# Job counts per cycle; for the ladders (verify jobs, characteristic jobs)
# per (system, size).  Small sizes repeat so a run holds over 100 jobs.  The
# counts put the median job inside one class with about a third of the
# jobs (cubic_nambu 4 verify, pendulum_chain 3 characteristic, the two
# tangent integrations) and the 90th percentile inside one class with
# about a tenth (pauli_spin characteristic, the second-largest ladder
# size, the sweep), not on a step between two classes whose times differ.
# The largest ladder size runs verify only for the same reason.
SLOTS = {
    "certify_bundled": _interleave(
        [(Slot(cmd, name), 3 if (name, cmd) == ("pauli_spin", "characteristic") else 1)
         for name in BUNDLED for cmd in ("verify", "characteristic", "solve-gamma")]),
    "certify_poly_ladder": _ladder([
        ("quartic_chain", 3, (2, 2)),
        ("quartic_chain", 4, (1, 1)),
        ("quartic_chain", 5, (1, 1)),
        ("cubic_nambu", 4, (8, 2)),
        ("cubic_nambu", 5, (3, 1)),
        ("cubic_nambu", 6, (1, 0)),
    ]),
    "certify_trig_ladder": _ladder([
        ("pendulum_chain", 2, (5, 4)),
        ("pendulum_chain", 3, (1, 8)),
        ("pendulum_chain", 4, (2, 1)),
        ("trig_nambu", 4, (3, 1)),
        ("trig_nambu", 5, (1, 0)),
    ]),
    "flow_numeric": _interleave([
        (Slot("integrate", "euler_top"), 2),
        (Slot("integrate", "euler_top", flags=("--csv",)), 1),
        (Slot("integrate", "euler_top", flags=("--tangent",)), 2),
        (Slot("integrate", "abc_flow", flags=("--param", "A=1", "B=1", "C=1", "--tangent")), 2),
        (Slot("integrate", "harmonic_oscillator_m1", flags=("--sweep",)), 2),
    ]),
}

WORKLOADS = tuple(SLOTS)


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _x0(rng, system):
    if system == "abc_flow":
        values = [rng.uniform(0.0, 2 * math.pi) for _ in range(3)]
    elif system == "euler_top":
        values = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    else:
        angle = rng.uniform(0.0, 2 * math.pi)
        values = [math.cos(angle), math.sin(angle)]
    return ",".join(f"{v:.6f}" for v in values)


def input_bytes(workload: str, seed: int, index: int) -> tuple[str, bytes]:
    """File name and content of job ``index``'s system file."""
    slot = SLOTS[workload][index % len(SLOTS[workload])]
    if slot.size == 0:
        return f"{slot.system}.json", (BUNDLED_DIR / f"{slot.system}.json").read_bytes()
    text = gen.system_text(slot.system, slot.size, job_rng(workload, seed, index))
    return f"job{index}.json", text.encode("utf-8")


def make_job(workload: str, seed: int, index: int, workdir: Path) -> Job:
    """Write job ``index``'s input under ``workdir`` and return its argv."""
    slot = SLOTS[workload][index % len(SLOTS[workload])]
    name, data = input_bytes(workload, seed, index)
    path = workdir / name
    if slot.size or not path.exists():
        path.write_bytes(data)
    argv = [slot.command, str(path)]
    if slot.command == "verify":
        argv.append("--hodge")
    csv = None
    if slot.command == "integrate":
        rng = job_rng(workload, seed, index)
        argv += [f"--x0={_x0(rng, slot.system)}", "--h", repr(FLOW_H), "--T", repr(FLOW_T)]
        for flag in slot.flags:
            if flag == "--csv":
                csv = workdir / f"job{index}.csv"
                argv += ["--csv", str(csv)]
            else:
                argv.append(flag)
    elif workload == "certify_bundled":
        # the zero-test sampling seed is the one input of a bundled job
        # that varies with the benchmark seed
        argv += ["--seed", str(job_rng(workload, seed, index).randrange(1, 2**31))]
    return Job(argv, slot, csv)


# --------------------------------------------------------------------------
# Known answers


def _is_trig(path: Path) -> bool:
    data = json.loads(path.read_text(encoding="utf-8"))
    return any("sin(" in c or "cos(" in c for c in data["vector_field"])


def check(job: Job, code: int, stdout: str) -> str | None:
    """None when the job's result matches its known answer, else why not."""
    slot = job.slot
    solenoidal = slot.system != "abc_paper_verbatim"
    try:
        report = json.loads(stdout) if stdout else None
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if slot.command == "verify":
        if solenoidal:
            if code != 0 or report is None:
                return f"verify exit {code}, expected 0"
            failed = [c["name"] for c in report["certificates"] if c["verdict"] != "PASS"]
            return f"certificates failed: {failed}" if failed else None
        if code != 1 or report is None:
            return f"verify exit {code}, expected 1"
        flux = [c["verdict"] for c in report["certificates"] if c["name"] == "liouville_flux_closed"]
        return None if flux == ["FAIL"] else f"liouville_flux_closed verdict {flux}, expected FAIL"
    if slot.command == "characteristic":
        if not solenoidal:
            return None if code == 1 else f"characteristic exit {code}, expected 1"
        if code != 0 or report is None or report.get("W_matches_annihilator") is not True:
            return f"characteristic exit {code}, expected 0 with W_matches_annihilator true"
        return None
    if slot.command == "solve-gamma":
        if _is_trig(Path(job.argv[1])):
            return None if code == 1 else f"solve-gamma exit {code} on trig input, expected 1"
        if code != 0 or report is None or report["residual"] != []:
            return f"solve-gamma exit {code}, expected 0 with an empty residual"
        return None
    if code != 0 or report is None:
        return f"integrate exit {code}, expected 0"
    diag = report["diagnostics"]
    steps = round(FLOW_T / FLOW_H)
    if any(d > DRIFT_BOUND for d in diag["invariant_drifts"]):
        return f"invariant drift {diag['invariant_drifts']} above {DRIFT_BOUND}"
    if "--tangent" in slot.flags and not diag.get("det_deviation", math.inf) <= DET_BOUND:
        return f"det deviation {diag.get('det_deviation')} above {DET_BOUND}"
    if "--sweep" in slot.flags and not diag["sweep"]["max_residual"] <= FLOW_H ** 2:
        return f"sweep residual {diag['sweep']['max_residual']} above h^2"
    if job.csv is not None:
        with job.csv.open(encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != steps + 1 or diag.get("csv_rows") != steps + 1:
            return f"CSV has {rows} rows, expected {steps + 1}"
    return None
