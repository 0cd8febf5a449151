"""percospec benchmark: whole CLI runs on pinned workloads.

    python3 perfbench/run.py --workload ids-line-sub --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` times fresh ``percospec`` CLI
child processes (wall time, peak RSS from ``wait4``) and fresh set-up
interpreters; ``--trace 1`` calls ``cli.main`` in-process with the layer
functions wrapped (see ``tracer.py``) and reports per-layer numbers.  Every
run's outputs are checked; a failed check counts as a failed run and its
time is left out.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(environment, every timing, checks, coverage, spans) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

# One BLAS/OpenMP thread and one worker: on a 2-core machine shared with
# other work, anything parallel measures the neighbours as much as the code.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
WORKERS = 1

# A run repeats set-up for SETUP_SHARE of --seconds, then CLI runs until
# --seconds have passed since it started; each phase repeats at least
# MIN_RUNS times and reports medians.
SETUP_SHARE = 0.2
MIN_RUNS = 2
# Stop starting runs once one more could end past this many seconds, so a
# benchmark run ends within 180 s.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

BCS = ["neumann", "adjacency", "dirichlet"]
KERNEL_FREE_BCS = ("adjacency", "dirichlet")
TOL = 1e-8
# Neumann n_at_zero on Z may sit this many exact standard errors from its
# mean: a correct program lands outside with probability ~6e-7 per seed.
NEUMANN_Z = 5.0


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: dict
    expected_spans: tuple

    def windows(self) -> list:
        """Radii of the balls the run enumerates, each once."""
        w = self.config["window"]
        if self.subcommand == "ids":
            return [w["radius"] + 1]
        return sorted(set(range(1, w["return_max"] + 1))
                      | {2 * d for d in w["depths"]})

    def units(self) -> int:
        """Work units of one run: Monte Carlo samples x boundary
        conditions for ids, windows checked (tetrahedron depths plus
        return-probability radii) for lamplighter."""
        if self.subcommand == "ids":
            sp = self.config["spectra"]
            return sp["n_samples"] * len(sp["boundary_conditions"])
        w = self.config["window"]
        return len(w["depths"]) + w["return_max"]


def _ids_config(group: dict, percolation: dict, radius: int, e_max: float,
                n_samples: int) -> dict:
    return {"group": group, "percolation": percolation,
            "window": {"radius": radius},
            "spectra": {"boundary_conditions": BCS, "n_samples": n_samples,
                        "energy_grid": {"min": 0.0, "max": e_max,
                                        "points": 65}}}


_IDS_SPANS = ("cayley.enumerate_ball", "percolation.sample",
              "operators.subgraph_laplacian", "operators.restrict",
              "spectra.empirical_ids", "spectra.block_eigenvalues")

# Why each workload: see perfbench/README.md.
WORKLOADS = {
    "ids-line-sub": Workload(
        "ids",
        _ids_config({"kind": "free_abelian", "rank": 1},
                    {"kind": "site", "p": 0.5}, 2000, 4.0, 10),
        _IDS_SPANS),
    "ids-z2-bond-super": Workload(
        "ids",
        _ids_config({"kind": "free_abelian", "rank": 2},
                    {"kind": "bond", "p": 0.6}, 24, 8.0, 10),
        _IDS_SPANS),
    "lamplighter-m3": Workload(
        "lamplighter",
        {"group": {"kind": "lamplighter", "modulus": 3},
         "window": {"depths": [2, 3, 4, 5], "return_max": 4}},
        ("cayley.enumerate_ball", "cayley.tetrahedron",
         "operators.subgraph_laplacian", "bounds.tetrahedron_checks",
         "spectra.return_probability")),
}

# Metric names and units come from BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

SETUP_CODE = """
import json, sys
from percospec import cayley, cli
group = cli.build_group({"group": json.loads(sys.argv[1])})
for radius in json.loads(sys.argv[2]):
    cayley.enumerate_ball(group, radius)
"""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    # Import from cached bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(loadavg) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "thread_pins": THREAD_PINS,
        "workers": WORKERS,
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def line_cluster_density(p: float, radius: int, n_samples: int) -> tuple:
    """Exact mean and standard error of the Neumann n_at_zero on Z.

    The kernel of the Neumann Laplacian has one dimension per cluster, so
    n_at_zero is K / N, where K counts the clusters of open sites in the
    N = 2 radius + 1 sites of the window, averaged over n_samples
    independent samples.  K = sum_i X_i with X_1 = open_1 and
    X_i = open_i (1 - open_{i-1}); neighbouring X_i are negatively
    correlated and the rest independent.  With q = p(1-p):
    E K = p + (N-1) q and
    Var K = p(1-p) + (N-1) q(1-q) - 2pq - 2(N-2) q^2.
    """
    n = 2 * radius + 1
    q = p * (1 - p)
    mean = (p + (n - 1) * q) / n
    var = p * (1 - p) + (n - 1) * q * (1 - q) - 2 * p * q - 2 * (n - 2) * q * q
    return mean, (var / n_samples) ** 0.5 / n


def output_digests(out: Path) -> dict:
    files = sorted(out.glob("ids_*.csv")) + [out / "ids_report.json",
                                             out / "return_probability.csv"]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.exists()}


def check_outputs(workload: str, out: Path) -> list:
    """Problems with one run's outputs; empty when the run is correct."""
    wl = WORKLOADS[workload]
    problems = []
    try:
        if wl.subcommand == "ids":
            report = json.loads((out / "ids_report.json").read_text())
            if sorted(report) != sorted(BCS):
                problems.append(f"ids_report.json covers {sorted(report)}")
            for bc in KERNEL_FREE_BCS:
                if report[bc]["n_at_zero"] != 0:
                    problems.append(f"{bc} n_at_zero = {report[bc]['n_at_zero']}")
            if (wl.config["group"] == {"kind": "free_abelian", "rank": 1}
                    and wl.config["percolation"]["kind"] == "site"):
                mean, se = line_cluster_density(
                    wl.config["percolation"]["p"], wl.config["window"]["radius"],
                    wl.config["spectra"]["n_samples"])
                nz = report["neumann"]["n_at_zero"]
                if abs(nz - mean) > NEUMANN_Z * se:
                    problems.append(f"neumann n_at_zero {nz} vs {mean} "
                                    f"+- {NEUMANN_Z} x {se}")
            rows = wl.config["spectra"]["energy_grid"]["points"] + 1
            for bc in BCS:
                lines = (out / f"ids_{bc}.csv").read_text().splitlines()
                if len(lines) != rows:
                    problems.append(f"ids_{bc}.csv has {len(lines)} lines")
        else:
            report = json.loads((out / "lamplighter_report.json").read_text())
            m = wl.config["group"]["modulus"]
            for depth in wl.config["window"]["depths"]:
                t = report["tetrahedron"][str(depth)]
                if t["vertex_count"] != t["expected_count"]:
                    problems.append(f"depth {depth}: {t['vertex_count']} vertices, "
                                    f"expected {t['expected_count']}")
                if not t["eigenvalue_gap"] <= TOL:
                    problems.append(f"depth {depth}: gap {t['eigenvalue_gap']}")
                if not t["boundary_ratio"] <= TOL:
                    problems.append(f"depth {depth}: boundary ratio "
                                    f"{t['boundary_ratio']}")
            first = report["return_probability"]["first_value"]
            if first != 1.0 / (2 * m):
                problems.append(f"first return probability {first} != 1/{2 * m}")
            rows = (out / "return_probability.csv").read_text().splitlines()
            if len(rows) != wl.config["window"]["return_max"] + 1:
                problems.append(f"return_probability.csv has {len(rows)} lines")
    except (OSError, KeyError, ValueError, TypeError) as err:
        problems.append(f"unreadable outputs: {type(err).__name__}: {err}")
    return problems


class OutputChecker:
    """Checks each run's outputs, and that every run gave the same bytes.

    The first correct run of a benchmark run is the reference for the rest;
    for configs and seeds recorded in digests.json the bytes must also equal
    those produced at the seed commit (``"any"`` marks seed-free outputs).
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.reference = None
        entry = json.loads(DIGESTS.read_text()).get(workload, {})
        self.recorded = None
        if entry.get("config") == WORKLOADS[workload].config:
            self.recorded = entry["outputs"].get(
                "any", entry["outputs"].get(str(seed)))
        self.problems: list = []

    def check(self, label: str, code: int, out: Path) -> bool:
        if code != 0:
            self.problems.append(f"{label}: exit code {code}")
            return False
        problems = check_outputs(self.workload, out)
        digests = output_digests(out)
        if self.recorded is not None and digests != self.recorded:
            problems.append("output bytes differ from the recorded digests")
        if self.reference is None and not problems:
            self.reference = digests
        elif self.reference is not None and digests != self.reference:
            problems.append("output bytes differ between repeats")
        self.problems += [f"{label}: {p}" for p in problems]
        return not problems


# ---------------------------------------------------------------------------
# timed child processes
# ---------------------------------------------------------------------------

def run_child(cmd: list, log: Path, timeout: float):
    """Wall seconds, peak RSS (MB) and exit code of one child process."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def write_config(work: Path, workload: str, seed: int) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(dict(WORKLOADS[workload].config, seed=seed)))
    return path


def cli_args(workload: str, config: Path, out: Path) -> list:
    return [WORKLOADS[workload].subcommand, "--config", str(config),
            "--workers", str(WORKERS), "--out", str(out)]


def keep_going(n_done: int, until: float, started: float, last: float) -> bool:
    now = time.perf_counter()
    if now - started + 1.5 * last > DEADLINE_S:
        return False
    return n_done < MIN_RUNS or now < until


def time_setup(workload: str, work: Path, until: float, started: float,
               result: dict):
    wl = WORKLOADS[workload]
    cmd = [sys.executable, "-c", SETUP_CODE,
           json.dumps(wl.config["group"]), json.dumps(wl.windows())]
    wall, i = 0.0, 0
    while keep_going(i, until, started, wall):
        wall, _, code = run_child(cmd, work / f"setup{i}.log",
                                  CHILD_TIMEOUT_S - (time.perf_counter() - started))
        result["attempted"] += 1
        if code == 0:
            result["setup_s"].append(wall)
        else:
            result["failed"] += 1
            result["problems"].append(f"setup {i}: exit code {code}")
        i += 1


@contextmanager
def work_dir(workload: str):
    """A scratch directory for one benchmark run's configs and outputs."""
    work = STATE / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_untraced(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    result = {"attempted": 0, "failed": 0, "problems": [], "setup_s": [],
              "wall_s": [], "peak_rss_mb": []}
    with work_dir(workload) as work:
        config = write_config(work, workload, seed)
        checker = OutputChecker(workload, seed)
        time_setup(workload, work, started + SETUP_SHARE * seconds, started,
                   result)
        last = 0.0
        i = 0
        while keep_going(i, started + seconds, started, last):
            out = work / f"out{i}"
            cmd = [sys.executable, "-m", "percospec.cli",
                   *cli_args(workload, config, out)]
            last, rss, code = run_child(
                cmd, work / f"run{i}.log",
                CHILD_TIMEOUT_S - (time.perf_counter() - started))
            result["attempted"] += 1
            if checker.check(f"run {i}", code, out):
                result["wall_s"].append(last)
                result["peak_rss_mb"].append(rss)
            else:
                result["failed"] += 1
            shutil.rmtree(out, ignore_errors=True)
            i += 1
        result["problems"] += checker.problems
    return result


def end_to_end_metrics(workload: str, result: dict) -> dict:
    wall = statistics.median(result["wall_s"])
    return {
        "wall_s": wall,
        "samples_per_s": WORKLOADS[workload].units() / wall,
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"]),
    }


# ---------------------------------------------------------------------------
# traced in-process runs
# ---------------------------------------------------------------------------

def import_cli():
    """percospec.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    from percospec import cli

    if Path(cli.__file__).resolve().parent != SRC / "percospec":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's copy")
    return cli


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    cli = import_cli()
    import tracer  # after main() set the thread pins: it loads numpy
    started = time.perf_counter()
    result = {"attempted": 0, "failed": 0, "problems": [], "untraced_s": [],
              "reports": [], "spans": []}
    with work_dir(workload) as work:
        config = write_config(work, workload, seed)
        checker = OutputChecker(workload, seed)
        last = 0.0
        i = 0
        while keep_going(i, started + seconds, started, last):
            # alternate which side goes first, so warm-up favours neither
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                out = work / f"out{i}-{int(traced)}"
                trace = tracer.Trace()
                start = time.perf_counter()
                with tracer.installed(trace) if traced else nullcontext():
                    code = cli.main(cli_args(workload, config, out))
                wall = time.perf_counter() - start
                result["attempted"] += 1
                ok = checker.check(f"run {i}/{int(traced)}", code, out)
                leftover = tracer.leftover_wrappers()
                if leftover:
                    ok = False
                    checker.problems.append(f"wrappers left installed: {leftover}")
                if not ok:
                    result["failed"] += 1
                elif traced:
                    result["reports"].append(tracer.layer_report(trace, wall))
                    result["spans"] = [vars(s) for s in trace.spans]
                else:
                    result["untraced_s"].append(wall)
                shutil.rmtree(out, ignore_errors=True)
                last = max(last, 2 * wall)
            i += 1
        result["problems"] += checker.problems
    return result


def layer_value(report: dict, name: str):
    """One per-layer metric from one traced run's report; None if unmeasured."""
    if name.endswith(".self_s") or name.endswith(".calls"):
        span, field = name.rsplit(".", 1)
        row = report["spans"].get(span)
        return None if row is None else row[field]
    if name == "trace.wall_s":
        return report["wall_s"]
    if name == "trace.covered_share":
        return report["covered_share"]
    return report["counters"].get(name)


def per_layer_metrics(result: dict) -> tuple:
    metrics, unmeasured = {}, []
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        values = [layer_value(r, name) for r in result["reports"]]
        if any(v is None for v in values):
            unmeasured.append(name)
            continue
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(
        r["wall_s"] for r in result["reports"])
        - statistics.median(result["untraced_s"]))
    return metrics, unmeasured


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "percospec" / "cli.py").is_file():
        print(f"perfbench: no percospec sources under {SRC}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    for key, value in THREAD_PINS.items():
        os.environ[key] = value

    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
        ok_runs = result["reports"] and result["untraced_s"]
    else:
        result = measure_untraced(args.workload, args.seed, args.seconds)
        ok_runs = result["wall_s"] and result["setup_s"]
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not ok_runs:
        print("perfbench: no run succeeded; nothing to report", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(loadavg),
              "config": WORKLOADS[args.workload].config,
              "error_rate": result["failed"] / result["attempted"], **result}
    if args.trace:
        values, unmeasured = per_layer_metrics(result)
        units = PER_LAYER_UNITS
        expected = WORKLOADS[args.workload].expected_spans
        record["coverage"] = {
            "expected_spans": list(expected),
            "missing_expected_spans": [s for s in expected if not any(
                s in r["spans"] for r in result["reports"])],
            "unmeasured_spans": result["reports"][-1]["unmeasured"],
            "unmeasured_metrics": unmeasured,
            "covered_share": values["trace.covered_share"],
        }
        for span in record["coverage"]["missing_expected_spans"]:
            print(f"perfbench: expected span {span} was never called",
                  file=sys.stderr)
        print("coverage: " + json.dumps(record["coverage"]))
    else:
        values = end_to_end_metrics(args.workload, result)
        unmeasured = []
        units = END_TO_END_UNITS
    print("environment: " + json.dumps(record["environment"]))
    print(f"{'error_rate':36s} {record['error_rate']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for name in units:
        shown = ("unmeasured" if name in unmeasured
                 else f"{values[name]:.6g} {units[name]}")
        print(f"{name:36s} {shown}")
    # The result line needs a number for every per-layer metric; an
    # unmeasured one reads 0 there and is named in "coverage" above.
    values.update(dict.fromkeys(unmeasured, 0))

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
