"""Batch experiment runner.

Usage: ``percospec <subcommand> --config cfg.json [--seed N] [--workers N]
[--out DIR]``.  Subcommands: growth, percolate, ids, free-ids, bounds,
exponents, chain, lamplighter.  Each run writes CSV/JSON artifacts plus a
manifest into a temporary directory beside the output directory, and moves
them there only when it succeeds; rerunning with an identical config
reproduces identical CSV and report bytes, independent of the worker count.

Exit codes: 0 success, 1 validation, 2 resource budget, 3 oracle violation,
4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import asymptotics, bounds as bounds_mod, cayley, percolation, spectra
from .errors import BudgetError, OracleViolationError, ValidationError

ENV_BUDGET = "PERCOSPEC_BUDGET_VERTICES"

_BC_ALL = ("neumann", "adjacency", "dirichlet")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------
# Every check of a config is here and runs before the output directory
# exists; the run_* functions read ``cfg`` as validated.

_GROWTH_N_MIN = 4
_EXPONENTS_RADIUS = 20
_RETURN_MAX = 8
_LINE_MAX = 64


def _int(minimum=None, **for_subcommand):
    """An integer >= ``minimum``; ``for_subcommand`` raises the minimum for
    a subcommand whose library call needs more, e.g. ``ids=10``."""
    def check(value, path, subcommand):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{path} must be an integer")
        low = for_subcommand.get(subcommand, minimum)
        if low is not None and value < low:
            raise ValidationError(f"{path} must be >= {low}")
    return check


def _num(lo=-math.inf, hi=math.inf):
    def check(value, path, subcommand):
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or not lo <= value <= hi:
            raise ValidationError(f"{path} must be a finite number in [{lo}, {hi}]")
    return check


def _one_of(*choices):
    def check(value, path, subcommand):
        if value not in choices:
            raise ValidationError(f"{path} must be one of {list(choices)}")
    return check


def _list(item):
    """A list of entries that pass ``item``."""
    def check(value, path, subcommand):
        if not isinstance(value, list):
            raise ValidationError(f"{path} must be a list")
        for i, entry in enumerate(value):
            item(entry, f"{path}[{i}]", subcommand)
    return check


def _seed(value, path, subcommand):
    """A 64-bit unsigned integer: the width of the sampling key."""
    _int(0)(value, path, subcommand)
    if value >= 2 ** 64:
        raise ValidationError(f"{path} must be < 2**64")


def _text(value, path, subcommand):
    if not isinstance(value, str):
        raise ValidationError(f"{path} must be a string")


# every accepted key and the check its value must pass; dicts are sections
_SCHEMA = {
    "seed": _seed, "workers": _int(1), "output_dir": _text,
    "budget_vertices": _int(1),
    "group": {"kind": _one_of("free_abelian", "heisenberg", "lamplighter"),
              "rank": _int(1), "modulus": _int(2),
              "generators": _list(_list(_int()))},
    "percolation": {"kind": _one_of("site", "bond"), "p": _num(0, 1),
                    "tail_max": _int(1),
                    "n_samples": _int(1, percolate=percolation.MIN_STATS_SAMPLES)},
    "window": {"radius": _int(1), "depth": _int(1), "return_max": _int(1),
               "depths": _list(_int(bounds_mod.MIN_TETRAHEDRON_DEPTH))},
    "spectra": {"boundary_conditions": _list(_one_of(*_BC_ALL)),
                "energy_grid": {"min": _num(), "max": _num(), "points": _int(1),
                                "values": _list(_num()),
                                "scale": _one_of("linear", "log")},
                "n_samples": _int(1, ids=spectra.MIN_IDS_SAMPLES),
                "dense_cap": _int(1), "couplings": _list(_num(0))},
    "fits": {"growth_n_min": _int(0), "growth_n_max": _int(1),
             "van_hove_range": _list(_num()), "lifshitz_range": _list(_num()),
             "dirichlet_n_max": _int(2), "line_max": _int(2)},
}

# what each subcommand cannot run without
_NEEDS = {
    "growth": ("group", "window.radius"),
    "percolate": ("group", "percolation", "window.radius"),
    "ids": ("group", "percolation", "window", "spectra.energy_grid"),
    "free-ids": ("group", "spectra.energy_grid"),
    "bounds": ("group",),
    "exponents": ("group",),
    "chain": ("group", "percolation", "window.radius", "spectra.energy_grid"),
    "lamplighter": ("group",),
}


def _walk(section, schema, path, subcommand):
    """Check every key given in ``section`` against ``schema``."""
    unknown = sorted(set(section) - set(schema))
    if unknown:
        raise ValidationError(f"unknown keys {unknown} in {path or 'config'}")
    for key, value in section.items():
        rule, where = schema[key], f"{path}.{key}".lstrip(".")
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise ValidationError(f"{where} must be an object")
            _walk(value, rule, where, subcommand)
        else:
            rule(value, where, subcommand)


def validate_config(raw: dict, subcommand: str) -> dict:
    """Check a config for ``subcommand`` and return a copy with ``workers``
    and ``output_dir`` defaulted; raise ValidationError on the first fault."""
    if "seed" not in raw:
        raise ValidationError("seed is mandatory (config key or --seed)")
    cfg = {"workers": 1, "output_dir": "out", **raw}
    _walk(cfg, _SCHEMA, "", subcommand)
    needs = _NEEDS[subcommand]
    if "percolation" in cfg:
        needs += ("percolation.kind", "percolation.p")
    for path in needs:
        section, _, key = path.partition(".")
        if section not in cfg or key and key not in cfg[section]:
            raise ValidationError(f"{path} is required for {subcommand}")
    # the group is built as the run will build it, so its checks are the library's
    try:
        group = build_group(cfg)
    except KeyError as err:
        raise ValidationError(f"group.{err.args[0]} is required") from None
    except ValueError as err:
        raise ValidationError(f"group: {err}") from None

    window, fits = cfg.get("window", {}), cfg.get("fits", {})
    if "generators" in cfg["group"] and group.kind != "free_abelian":
        raise ValidationError("group.generators needs group.kind free_abelian")
    if subcommand == "ids" and ("radius" in window) == ("depth" in window):
        raise ValidationError("ids needs exactly one of window.radius or window.depth")
    if subcommand == "ids" and "depth" in window and group.kind != "lamplighter":
        raise ValidationError("window.depth needs a lamplighter group")
    if subcommand in ("growth", "exponents"):
        radius = window.get("radius", _EXPONENTS_RADIUS)
        n_min = fits.get("growth_n_min", _GROWTH_N_MIN)
        n_max = fits.get("growth_n_max", radius)
        if not n_min + 4 <= n_max <= radius:
            raise ValidationError(
                f"growth fit needs fits.growth_n_min + 4 <= fits.growth_n_max <= "
                f"window.radius, got {n_min}, {n_max}, {radius}")
    bcs = cfg.get("spectra", {}).get("boundary_conditions")
    if bcs is not None and (not bcs or len(set(bcs)) != len(bcs)):
        raise ValidationError("spectra.boundary_conditions must be non-empty "
                              "and name each boundary condition once")
    eg = cfg.get("spectra", {}).get("energy_grid")
    if eg is not None and eg.get("values") == []:
        raise ValidationError("spectra.energy_grid.values must not be empty")
    if eg is not None and "values" not in eg:
        if not {"min", "max", "points"} <= eg.keys():
            raise ValidationError("spectra.energy_grid needs values or min/max/points")
        if eg.get("scale") == "log" and min(eg["min"], eg["max"]) <= 0:
            raise ValidationError(
                "spectra.energy_grid.min and .max must be > 0 on a log scale")
    for key in ("van_hove_range", "lifshitz_range"):
        span = fits.get(key)
        if span is not None and (len(span) != 2 or not 0 < span[0] < span[1]):
            raise ValidationError(f"fits.{key} must be [lo, hi] with 0 < lo < hi")
    if subcommand == "exponents" and _line_site_fits(cfg, group) \
            and not 0 < cfg["percolation"]["p"] < 1:
        raise ValidationError("percolation.p must lie strictly between 0 and 1 "
                              "for the exact line-model fits of exponents")
    if subcommand == "free-ids" and "radius" not in window and not _torus_ids(group):
        raise ValidationError("free-ids needs window.radius, or Z^d with d <= 4 "
                              "and the standard generators")
    if subcommand == "chain" and cfg["percolation"]["kind"] != "site":
        raise ValidationError("chain needs percolation.kind site")
    if subcommand == "lamplighter":
        if group.kind != "lamplighter":
            raise ValidationError("lamplighter needs group.kind lamplighter")
        return_max = window.get("return_max", _RETURN_MAX)
        limit = spectra.max_exact_return_n(group)
        if return_max > limit:
            default = "" if "return_max" in window else " (the default)"
            raise ValidationError(
                f"window.return_max is {return_max}{default}, but return "
                f"probabilities on {group.label()} are exact only up to n = {limit}")
    return cfg


def _torus_ids(group: cayley.GroupSpec) -> bool:
    """Whether ``spectra.free_ids_zd`` is the free IDS of the Cayley graph:
    Z^d with d <= 4 and the ±unit vectors, in any order, as generators."""
    return group.is_hypercubic and group.rank <= 4


def _line_site_fits(cfg: dict, group: cayley.GroupSpec) -> bool:
    """Whether exponents runs the exact line-model fits: site percolation on
    Z with generators ±1."""
    return _torus_ids(group) and group.rank == 1 \
        and cfg.get("percolation", {}).get("kind") == "site"


def build_group(cfg: dict) -> cayley.GroupSpec:
    g = cfg["group"]
    kind = g["kind"]
    if kind == "free_abelian":
        return cayley.GroupSpec.free_abelian(
            g["rank"], generators=g.get("generators") or None)
    if kind == "heisenberg":
        return cayley.GroupSpec.heisenberg()
    return cayley.GroupSpec.lamplighter(g["modulus"])


def build_model(cfg: dict) -> percolation.PercolationModel:
    pc = cfg["percolation"]
    return percolation.PercolationModel(pc["kind"], float(pc["p"]), cfg["seed"])


def build_ball(cfg: dict, group: cayley.GroupSpec,
               radius: int) -> cayley.CayleyBall:
    """B(radius) of ``group`` within the config's vertex budget."""
    return cayley.enumerate_ball(group, radius, cfg.get("budget_vertices"))


def energy_grid(cfg: dict) -> np.ndarray:
    eg = cfg["spectra"]["energy_grid"]
    if "values" in eg:
        return np.asarray(eg["values"], dtype=np.float64)
    if eg.get("scale") == "log":
        return np.geomspace(eg["min"], eg["max"], eg["points"])
    return np.linspace(eg["min"], eg["max"], eg["points"])


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, (int, float, np.integer,
                                                        np.floating))
                              else str(x) for x in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def config_digest(cfg: dict) -> str:
    relevant = {k: v for k, v in cfg.items()
                if k not in ("workers", "output_dir")}
    blob = json.dumps(relevant, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# the thread counts BLAS and OpenMP read from the environment
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run_environment(workers: int) -> dict:
    """What a run's timing and last float bits depend on besides its config:
    library versions, cores, workers, the BLAS build and its thread pins
    (null when unset)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in _THREAD_VARS},
    }


def write_manifest(out: Path, subcommand: str, cfg: dict, outputs: list,
                   started: float, notes: dict) -> None:
    """The run's record; ``notes`` are the runner's own entries, such as
    the solve path of each ``ids`` boundary condition."""
    write_json(out / "manifest.json", {
        **notes,
        "subcommand": subcommand,
        "config": cfg,
        "config_digest": config_digest(cfg),
        "code_version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "environment": _run_environment(cfg["workers"]),
        "outputs": sorted(outputs),
    })


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_growth(cfg: dict, out: Path) -> tuple[list, dict]:
    group = build_group(cfg)
    n_max = cfg["window"]["radius"]
    fits = cfg.get("fits", {})
    n_min = fits.get("growth_n_min", _GROWTH_N_MIN)
    profile = cayley.growth_profile(build_ball(cfg, group, n_max))
    cls = asymptotics.fit_growth(profile, n_min=n_min,
                                 n_max=fits.get("growth_n_max"))
    write_csv(out / "growth.csv", ["n", "volume"],
              zip(profile.radii.tolist(), profile.volumes.tolist()))
    write_json(out / "growth_fit.json", {
        "classification": cls.label,
        "loglog": vars(cls.loglog),
        "semilog": vars(cls.semilog),
        "loglog_curvature": cls.loglog_curvature,
        "semilog_curvature": cls.semilog_curvature,
    })
    return ["growth.csv", "growth_fit.json"], {}


def run_percolate(cfg: dict, out: Path) -> tuple[list, dict]:
    group = build_group(cfg)
    model = build_model(cfg)
    radius = cfg["window"]["radius"]
    pc = cfg["percolation"]
    n_samples = pc.get("n_samples", 500)
    tail_max = pc.get("tail_max", 12)
    window = build_ball(cfg, group, radius)
    stats = percolation.cluster_stats(model, window, n_samples,
                                      tail_grid=range(1, tail_max + 1),
                                      workers=cfg["workers"])
    with open(out / "tail.csv", "w") as fh:
        percolation.export_cluster_stats(stats, fh)
    write_json(out / "percolate_report.json", {
        "samples": stats.samples,
        "tau_fit": vars(stats.tau_fit),
        "clusters_per_vertex": {"value": stats.clusters_per_vertex[0],
                                "stderr": stats.clusters_per_vertex[1]},
        "deleted_density": {"value": stats.deleted_density[0],
                            "stderr": stats.deleted_density[1]},
        "deleted_density_expected":
            percolation.deleted_density_expected(model, window.k),
    })
    return ["tail.csv", "percolate_report.json"], {}


def run_ids(cfg: dict, out: Path) -> tuple[list, dict]:
    group = build_group(cfg)
    model = build_model(cfg)
    window = cfg["window"]
    sp = cfg["spectra"]
    grid = energy_grid(cfg)
    ests = spectra.empirical_ids(
        group, model, sp.get("boundary_conditions", list(_BC_ALL)),
        radius=window.get("radius"), depth=window.get("depth"),
        n_samples=sp.get("n_samples", 100), energy_grid=grid,
        workers=cfg["workers"],
        dense_cap=sp.get("dense_cap", spectra.DENSE_CAP),
        budget=cfg.get("budget_vertices"))
    outputs = []
    summary = {}
    for bc, est in ests.items():
        with open(out / f"ids_{bc}.csv", "w") as fh:
            spectra.export_ids_csv(est, fh)
        write_csv(out / f"ids_{bc}_bracket.csv", ["E", "low", "high"],
                  zip(est.energies, est.bracket_low, est.bracket_high))
        summary[bc] = {"n_at_zero": est.n_at_zero[0],
                       "n_at_zero_stderr": est.n_at_zero[1]}
        outputs += [f"ids_{bc}.csv", f"ids_{bc}_bracket.csv"]
    write_json(out / "ids_report.json", summary)
    return outputs + ["ids_report.json"], {
        "solves": {bc: est.solve for bc, est in ests.items()}}


def run_free_ids(cfg: dict, out: Path) -> tuple[list, dict]:
    group = build_group(cfg)
    grid = energy_grid(cfg)
    outputs = []
    if _torus_ids(group):
        rows = []
        for e in grid:
            val = spectra.free_ids_zd(group.rank, float(e))
            rows.append((e, val.value, val.error, val.method))
        write_csv(out / "free_ids.csv", ["E", "value", "error", "method"], rows)
        outputs.append("free_ids.csv")
    radius = cfg.get("window", {}).get("radius")
    if radius is not None:
        trace = spectra.free_ids_ball(
            build_ball(cfg, group, radius), grid,
            dense_cap=cfg["spectra"].get("dense_cap", spectra.DENSE_CAP))
        rows = [(n, e, v) for n, vals in trace.trace
                for e, v in zip(grid, vals)]
        write_csv(out / "free_ids_ball.csv", ["n", "E", "value"], rows)
        outputs.append("free_ids_ball.csv")
    return outputs, {}


def _tetrahedron_reports(cfg: dict, m: int) -> tuple[dict, dict]:
    """Tetrahedron checks at each of the config's depths, and how each proved
    its facts (``bounds.tetrahedron_solve``)."""
    depths = cfg.get("window", {}).get("depths", [2, 3, 4, 5])
    # every depth's size is refused or let through before the first check
    solves = {str(d): bounds_mod.tetrahedron_solve(m, d) for d in depths}
    reports = {str(d): vars(bounds_mod.tetrahedron_checks(m, d))
               for d in depths}
    return reports, solves


def run_bounds(cfg: dict, out: Path) -> tuple[list, dict]:
    group = build_group(cfg)
    fits = cfg.get("fits", {})
    n_max = fits.get("dirichlet_n_max", 8)
    line_max = fits.get("line_max", _LINE_MAX)
    reports, notes = {}, {}
    if group.kind != "lamplighter":
        with_lines = group.kind == "free_abelian"
        # one ball: every ball, line and phi value below lies in a prefix
        ball = build_ball(cfg, group, max(
            2 * n_max, 16, line_max // 2 + 2 if with_lines else 0))
        growth = cayley.growth_profile(ball)
        ball_family = [cayley.induced_subgraph(ball, ball.ball_indices(n))
                       for n in range(1, n_max + 1)]
        reports["adjacency_lower_balls"] = vars(
            bounds_mod.lower_bound_check_adjacency(ball_family, growth))
        if with_lines:
            lengths = sorted({n for n in (2, 4, 8, 16, 32, 64)
                              if n <= line_max} | {line_max})
            lines = [cayley.line_subgraph(ball, n) for n in lengths]
            reports["adjacency_lower_lines"] = vars(
                bounds_mod.lower_bound_check_adjacency(lines, growth))
            reports["neumann_lower_lines"] = vars(
                bounds_mod.lower_bound_check_neumann(lines))
        reports["dirichlet_upper"] = vars(
            bounds_mod.upper_bound_check_dirichlet(ball, range(2, n_max + 1)))
    else:
        reports["tetrahedron"], solves = _tetrahedron_reports(cfg,
                                                              group.modulus)
        notes["tetrahedron_solves"] = solves
    write_json(out / "bounds_report.json", reports)
    return ["bounds_report.json"], notes


def _range_fit(key: str, lo: float, hi: float, fit, *args, context: str = ""):
    """``fit(*args, e_range=(lo, hi))``.  A range that leaves the fit too few
    usable points is a config mistake, reported against ``fits.<key>``."""
    try:
        return fit(*args, e_range=(lo, hi))
    except ValueError as err:
        raise ValidationError(f"fits.{key} [{lo}, {hi}]{context} leaves too few "
                              f"usable points: {err}") from None


def run_exponents(cfg: dict, out: Path) -> tuple[list, dict]:
    group = build_group(cfg)
    fits = cfg.get("fits", {})
    digest = config_digest(cfg)
    reports = []

    radius = cfg.get("window", {}).get("radius", _EXPONENTS_RADIUS)
    line_fits = _line_site_fits(cfg, group)
    line_max = fits.get("line_max", _LINE_MAX)
    # the growth fit and the lines read prefixes of this one ball
    ball = build_ball(cfg, group, max(
        radius, line_max // 2 + 2 if line_fits else 0))
    cls = asymptotics.fit_growth(cayley.growth_profile(ball),
                                 n_min=fits.get("growth_n_min", _GROWTH_N_MIN),
                                 n_max=fits.get("growth_n_max", radius))
    reports.append({"kind": "growth", "classification": cls.label,
                    "slope": cls.loglog.slope, "stderr": cls.loglog.stderr,
                    "r2": cls.loglog.r2, "range": cls.loglog.fit_range,
                    "inputs_digest": digest})

    if _torus_ids(group):
        lo, hi = fits.get("van_hove_range", (1e-3, 1e-1))
        grid = np.geomspace(lo, hi, 20)
        vals = np.array([spectra.free_ids_zd(group.rank, float(e)).value
                         for e in grid])
        fit = _range_fit("van_hove_range", lo, hi, asymptotics.fit_van_hove,
                         grid, vals)
        reports.append({"kind": fit.kind, "slope": fit.slope,
                        "stderr": fit.stderr, "r2": fit.r2,
                        "range": fit.fit_range, "inputs_digest": digest})

    if line_fits:
        p = float(cfg["percolation"]["p"])
        lo, hi = fits.get("lifshitz_range", (0.005, 0.2))
        grid = np.geomspace(lo, hi, 40)
        shift = p * (1 - p)

        def fit_lifshitz(values, shift):
            return _range_fit("lifshitz_range", lo, hi, asymptotics.fit_lifshitz,
                              grid, values, shift,
                              context=f" at percolation.p = {p}")

        values = spectra.line_site_ids_oracle(p, grid, "neumann")
        fit = fit_lifshitz(values, shift)
        reports.append({"kind": "lifshitz-neumann", "slope": fit.slope,
                        "stderr": fit.stderr, "r2": fit.r2,
                        "range": fit.fit_range, "inputs_digest": digest})

        ns = list(range(2, line_max + 1))
        family = [cayley.line_subgraph(ball, n) for n in ns]
        thresholds = [2 * (1 - np.cos(np.pi / n)) for n in ns]
        inputs = bounds_mod.sandwich_inputs(family, thresholds, "neumann",
                                            labels=ns)
        alpha_n = bounds_mod.lower_bound_check_neumann(family).constants["alpha_N"]
        # the lower envelope only reaches energies the family certifies
        lo_eff = max(lo, float(np.min(thresholds)))
        sw = asymptotics.sandwich_check(grid, values, shift,
                                        lambda x: np.sqrt(alpha_n / x), inputs,
                                        e_range=(lo_eff, hi))
        if sw.empty_measure:
            raise ValidationError(
                f"fits.line_max {line_max} certifies energies from {lo_eff:.4g} "
                f"on, which leaves fits.lifshitz_range [{lo}, {hi}] no usable "
                f"point for the sandwich")
        reports.append({"kind": "sandwich-neumann", "a": sw.a, "b": sw.b,
                        "upper_violations": sw.upper_violations,
                        "lower_violations": sw.lower_violations,
                        "envelope_ok": sw.envelope_ok,
                        "range": sw.e_range, "inputs_digest": digest})

        na = spectra.line_site_ids_oracle(p, grid, "adjacency")
        fit_a = fit_lifshitz(na, shift=0.0)
        reports.append({"kind": "lifshitz-adjacency", "slope": fit_a.slope,
                        "stderr": fit_a.stderr, "r2": fit_a.r2,
                        "range": fit_a.fit_range, "inputs_digest": digest})

    write_json(out / "exponents.json", reports)
    return ["exponents.json"], {}


def _chain_task(ctx, i):
    s = percolation.sample(ctx["model"], ctx["ball"], i)
    counts = spectra.five_operator_counts(s, ctx["grid"], ctx["couplings"],
                                          ctx["dense_cap"])
    return np.array([counts[name] for name in ctx["names"]])


def run_chain(cfg: dict, out: Path) -> tuple[list, dict]:
    from ._parallel import run_indexed
    group = build_group(cfg)
    model = build_model(cfg)
    radius = cfg["window"]["radius"]
    sp = cfg["spectra"]
    grid = energy_grid(cfg)
    couplings = [float(c) for c in sp.get("couplings", (1.0, 10.0, 100.0))]
    n_samples = sp.get("n_samples", 100)
    ball = build_ball(cfg, group, radius)
    names = (["neumann_extended", "free"]
             + [f"anderson:{lam:g}" for lam in couplings]
             + ["adjacency", "dirichlet"])
    ctx = {"model": model, "ball": ball, "grid": grid, "couplings": couplings,
           "dense_cap": sp.get("dense_cap", spectra.DENSE_CAP), "names": names}
    rows = run_indexed(_chain_task, range(n_samples), cfg["workers"], ctx)
    stack = np.stack(rows)          # (samples, operators, energies)
    means = stack.mean(axis=0)
    diffs = means[:-1] - means[1:]
    worst = float(diffs.min())
    per_sample_ok = bool(np.all(stack[:, :-1, :] >= stack[:, 1:, :] - 1e-12))
    write_csv(out / "chain.csv", ["E"] + names,
              [(e, *means[:, j]) for j, e in enumerate(grid)])
    write_json(out / "chain_report.json", {
        "names": names, "n_samples": n_samples,
        "ordering_violations": 0 if per_sample_ok else 1,
        "min_adjacent_margin": worst,
        "per_sample_ordering_holds": per_sample_ok,
    })
    return ["chain.csv", "chain_report.json"], {}


def run_lamplighter(cfg: dict, out: Path) -> tuple[list, dict]:
    group = build_group(cfg)
    return_max = cfg.get("window", {}).get("return_max", _RETURN_MAX)
    tets, solves = _tetrahedron_reports(cfg, group.modulus)
    # every walk's B(n) is a prefix of the largest one
    ball = build_ball(cfg, group, return_max)
    values = []
    for n in range(1, return_max + 1):
        rp = spectra.return_probability(ball, n)
        values.append((n, rp.steps, rp.value))
    write_csv(out / "return_probability.csv", ["n", "steps", "value"], values)
    vals = np.array([v for _, _, v in values])
    neg_log = -np.log(vals)
    write_json(out / "lamplighter_report.json", {
        "tetrahedron": tets,
        "return_probability": {
            "first_value": vals[0],
            "expected_first": 1.0 / (2 * group.modulus),
            "neg_log_increasing": bool(np.all(np.diff(neg_log) > 0)),
            "log_convex": bool(np.all(np.diff(np.log(vals), 2) >= -1e-12)),
        },
    })
    return (["return_probability.csv", "lamplighter_report.json"],
            {"tetrahedron_solves": solves})


# each runner returns the names of the files it wrote and its own entries
# for the manifest
_SUBCOMMANDS = {
    "growth": run_growth,
    "percolate": run_percolate,
    "ids": run_ids,
    "free-ids": run_free_ids,
    "bounds": run_bounds,
    "exponents": run_exponents,
    "chain": run_chain,
    "lamplighter": run_lamplighter,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="percospec",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    started = time.time()
    work = None     # the run writes here, and out gets the files on success
    try:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ValidationError(f"cannot read config: {err}")
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.workers is not None:
            raw["workers"] = args.workers
        if args.out is not None:
            raw["output_dir"] = args.out
        env_budget = os.environ.get(ENV_BUDGET)
        if env_budget is not None:
            try:
                raw["budget_vertices"] = int(env_budget)
            except ValueError:
                raise ValidationError(
                    f"{ENV_BUDGET} must be an integer, got {env_budget!r}")
        cfg = validate_config(raw, args.subcommand)
        out = Path(cfg["output_dir"])
        try:
            work = _work_dir(out)
        except (OSError, ValueError) as err:
            raise ValidationError(f"output_dir {str(out)!r} cannot be a "
                                  f"directory: {err}") from None
        outputs, notes = _SUBCOMMANDS[args.subcommand](cfg, work)
        write_manifest(work, args.subcommand, cfg, outputs, started, notes)
        _publish(work, out)
        return 0
    except ValidationError as err:
        code, message = 1, f"validation error: {err}"
    except BudgetError as err:
        code, message = 2, f"resource budget exceeded: {err}"
    except OracleViolationError as err:
        code, message = 3, f"oracle violation: {err}"
    except Exception as err:  # noqa: BLE001
        code, message = 4, f"internal error: {type(err).__name__}: {err}"
    finally:
        if work is not None:    # gone after a finished run
            shutil.rmtree(work, ignore_errors=True)
    print(f"percospec: {message}", file=sys.stderr)
    return code


def _work_dir(out: Path) -> Path:
    """A new empty directory beside ``out``, with the permissions that
    ``mkdir`` would give ``out``, for a run to write into."""
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"{str(out)!r} is a file")
    out.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    umask = os.umask(0o022)
    os.umask(umask)
    work.chmod(0o777 & ~umask)
    return work


def _publish(work: Path, out: Path) -> None:
    """Move a finished run's files from its temporary directory to ``out``:
    one rename when ``out`` is new, else file by file, so that files in
    ``out`` that the run did not write stay."""
    if not out.exists():
        work.rename(out)
        return
    for path in work.iterdir():
        path.replace(out / path.name)
    work.rmdir()


if __name__ == "__main__":
    sys.exit(main())
