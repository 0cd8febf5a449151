"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criteria 11 and 12 carry the documented desk-scale substitutions: the
E -> 0 limits themselves are below Monte Carlo resolution, so the agreed
property-level checks stand in for them.
"""

import json

import numpy as np

from percospec import asymptotics, bounds, cayley, spectra
from percospec.cayley import GroupSpec, enumerate_ball
from percospec.cli import main
from percospec.operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    free_laplacian,
    subgraph_laplacian,
)
from percospec.percolation import PercolationModel, cluster_stats, decompose, sample
from percospec.spectra import (
    block_eigenvalues,
    empirical_ids,
    five_operator_counts,
    free_ids_zd,
    line_site_ids_oracle,
    return_probability,
)


def _verdict(cid, ok, detail=""):
    print(f"[acceptance] criterion {cid:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid}: {detail}"


def make_site_sample(window, open_elements):
    s = sample(PercolationModel("site", 0.5, 0), window, 0)
    marks = np.zeros(len(window), dtype=bool)
    for el in open_elements:
        marks[window.index_of(el)] = True
    s.open_marks = marks
    return s


def test_criterion_01_exact_small_spectra():
    z = enumerate_ball(GroupSpec.free_abelian(1), 3)
    two = make_site_sample(z, [(0,), (1,)])
    expected = {NEUMANN: [0.0, 2.0], ADJACENCY: [1.0, 3.0], DIRICHLET: [2.0, 4.0]}
    worst = 0.0
    for bc, want in expected.items():
        got = block_eigenvalues(subgraph_laplacian(two.subgraph(), bc))
        worst = max(worst, float(np.max(np.abs(got - want))))
    z2 = enumerate_ball(GroupSpec.free_abelian(2), 2)
    iso = make_site_sample(z2, [(0, 0)])
    for bc, want in {NEUMANN: 0.0, ADJACENCY: 4.0, DIRICHLET: 8.0}.items():
        got = block_eigenvalues(subgraph_laplacian(iso.subgraph(), bc))
        worst = max(worst, float(abs(got[0] - want)))
    _verdict(1, worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_02_operator_order_chain():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 10)
    model = PercolationModel("site", 0.5, 2001)
    k = ball.k
    violations = 0
    trace_exact = True
    for i in range(200):
        s = sample(model, ball, i)
        ops = {bc: subgraph_laplacian(s.subgraph(), bc)
               for bc in (NEUMANN, ADJACENCY, DIRICHLET)}
        ev = {bc: block_eigenvalues(op) for bc, op in ops.items()}
        if not (np.all(ev[NEUMANN] <= ev[ADJACENCY] + 1e-10)
                and np.all(ev[ADJACENCY] <= ev[DIRICHLET] + 1e-10)
                and np.all(ev[NEUMANN] >= -1e-10)
                and np.all(ev[DIRICHLET] <= 2 * k + 1e-10)):
            violations += 1
        nv = len(s.active_vertices())
        ne = len(s.open_edges())
        trace = {bc: np.trace(op.to_dense()) for bc, op in ops.items()}
        if not (trace[ADJACENCY] == k * nv
                and trace[NEUMANN] == 2 * ne
                and trace[DIRICHLET] == 2 * k * nv - 2 * ne):
            trace_exact = False
    _verdict(2, violations == 0 and trace_exact,
             f"{violations} ordering violations over 200 samples; "
             f"traces exact: {trace_exact}")


def _kernel_dim(op):
    """Eigenvalues within the kernel tolerance, as the IDS runs count them."""
    return int(np.count_nonzero(
        np.abs(block_eigenvalues(op)) <= spectra.KERNEL_TOL * op.inf_norm()))


def test_criterion_03_kernel_law():
    cases = [(GroupSpec.free_abelian(1), 25), (GroupSpec.free_abelian(2), 7)]
    bad = 0
    for spec, radius in cases:
        ball = enumerate_ball(spec, radius)
        for kind in ("site", "bond"):
            model = PercolationModel(kind, 0.5, 31337)
            for i in range(50):
                s = sample(model, ball, i)
                dec = decompose(s)
                sub = s.subgraph()
                if _kernel_dim(subgraph_laplacian(sub, NEUMANN)) != dec.cluster_count:
                    bad += 1
                for bc in (ADJACENCY, DIRICHLET):
                    if _kernel_dim(subgraph_laplacian(sub, bc)):
                        bad += 1
    _verdict(3, bad == 0, f"{bad} kernel mismatches over 200 samples")


def test_criterion_04_bipartite_symmetry():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 6)
    model = PercolationModel("site", 0.55, 404)
    k = ball.k
    worst = 0.0
    for i in range(50):
        s = sample(model, ball, i)
        ev_a = block_eigenvalues(subgraph_laplacian(s.subgraph(), ADJACENCY))
        if len(ev_a):
            worst = max(worst, float(np.max(np.abs(
                ev_a - np.sort(2 * k - ev_a)))))
        ev_n = block_eigenvalues(subgraph_laplacian(s.subgraph(), NEUMANN))
        ev_d = block_eigenvalues(subgraph_laplacian(s.subgraph(), DIRICHLET))
        if len(ev_n):
            worst = max(worst, float(np.max(np.abs(
                ev_n - np.sort(2 * k - ev_d)))))
    _verdict(4, worst <= 1e-10, f"max reflection deviation {worst:.2e}")


def test_criterion_05_five_operator_ids_chain():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 8)
    model = PercolationModel("site", 0.5, 555)
    grid = np.linspace(0.0, 2 * ball.k + 1.0, 50)
    order = ["neumann_extended", "free", "anderson:1", "anderson:10",
             "anderson:100", "adjacency", "dirichlet"]
    free = block_eigenvalues(free_laplacian(ball))
    stacks = []
    for i in range(100):
        counts = five_operator_counts(sample(model, ball, i), grid,
                                      (1.0, 10.0, 100.0), free)
        stacks.append(np.array([counts[name] for name in order]))
    arr = np.stack(stacks)
    means = arr.mean(axis=0)
    stderr = arr.std(axis=0, ddof=1) / np.sqrt(len(arr))
    ok = True
    for j in range(len(order) - 1):
        slack = 3 * np.hypot(stderr[j], stderr[j + 1])
        if np.any(means[j] < means[j + 1] - slack):
            ok = False
    per_sample = bool(np.all(arr[:, :-1, :] >= arr[:, 1:, :] - 1e-12))
    _verdict(5, ok and per_sample,
             f"mean chain ordered within 3 sigma: {ok}; "
             f"per-sample ordering exact: {per_sample}")


def test_criterion_06_van_hove_exponents():
    grid = np.geomspace(1e-3, 1e-1, 20)
    slopes = {d: asymptotics.fit_van_hove(
        grid, np.array([free_ids_zd(d, e).value for e in grid])).slope
        for d in (1, 2, 3, 4)}
    ok = all(abs(s - d / 2) <= 0.02 for d, s in slopes.items())
    _verdict(6, ok, ", ".join(f"d={d}: {s:.4f} (want {d / 2:.2f}+-0.02)"
                              for d, s in slopes.items()))


def test_criterion_07_growth_classification():
    results = []
    for spec, d, n_max, n_min in [
            (GroupSpec.free_abelian(1), 1, 40, 16),
            (GroupSpec.free_abelian(2), 2, 40, 16),
            (GroupSpec.free_abelian(3), 3, 40, 16)]:
        cls = asymptotics.fit_growth(
            cayley.growth_profile(enumerate_ball(spec, n_max)), n_min=n_min)
        results.append((f"Z^{d}", cls.label == "polynomial"
                        and abs(cls.loglog.slope - d) <= 0.1,
                        cls.loglog.slope))
    heis = asymptotics.fit_growth(
        cayley.growth_profile(enumerate_ball(GroupSpec.heisenberg(), 20)), n_min=6)
    results.append(("Heisenberg", heis.label == "polynomial"
                    and abs(heis.loglog.slope - 4.0) <= 0.3,
                    heis.loglog.slope))
    lamp = asymptotics.fit_growth(
        cayley.growth_profile(enumerate_ball(GroupSpec.lamplighter(2), 12)), n_min=3)
    results.append(("Lamplighter", lamp.label == "superpolynomial",
                    lamp.semilog.slope))
    ok = all(r[1] for r in results)
    _verdict(7, ok, "; ".join(f"{name}: slope {slope:.3f} {'ok' if good else 'BAD'}"
                              for name, good, slope in results))


def test_criterion_08_subcritical_decay():
    # exact renewal tail on Z at p = 1/2; the 3 sigma band uses the
    # oracle's binomial deviation
    window = enumerate_ball(GroupSpec.free_abelian(1), 120)
    n_samples = 800
    stats = cluster_stats(PercolationModel("site", 0.5, 808), window,
                          n_samples, tail_grid=range(1, 9))
    def tail_oracle(p, n):
        return p ** n * (n * (1 - p) + p)
    z_ok = all(abs(t - tail_oracle(0.5, int(n)))
               <= 3 * np.sqrt(tail_oracle(0.5, int(n))
                              * (1 - tail_oracle(0.5, int(n))) / n_samples)
               for n, t in zip(stats.tail_grid, stats.tail))
    # log-linear tail for subcritical bond percolation on Z^2
    window2 = enumerate_ball(GroupSpec.free_abelian(2), 18)
    stats2 = cluster_stats(PercolationModel("bond", 0.25, 909), window2, 1500,
                           tail_grid=range(1, 13))
    fit = stats2.tau_fit
    fit_ok = fit.valid and fit.r2 > 0.9 and fit.tau > 0
    # an invalid fit has no r2 or tau
    fit_text = f"r2={fit.r2:.3f} tau={fit.tau:.3f}" if fit.valid else "invalid"
    _verdict(8, z_ok and fit_ok,
             f"Z tail within 3 sigma: {z_ok}; Z^2 bond fit {fit_text}")


def test_criterion_09_neumann_mass_at_zero():
    est = empirical_ids(GroupSpec.free_abelian(1),
                        PercolationModel("site", 0.5, 9090), NEUMANN,
                        radius=2000, n_samples=200,
                        energy_grid=np.array([0.0, 1.0]))
    value, se = est.n_at_zero
    ok = abs(value - 0.25) <= 3 * max(se, 1e-5)
    _verdict(9, ok, f"N(0) = {value:.5f} +- {se:.2g} (want 0.25 within 3 sigma)")


def test_criterion_10_neumann_lifshitz_and_sandwich():
    p = 0.5
    grid = np.geomspace(0.005, 0.2, 40)
    values = line_site_ids_oracle(p, grid, NEUMANN)
    shift = p * (1 - p)
    fit = asymptotics.fit_lifshitz(grid, values, shift)
    slope_ok = abs(fit.slope - 0.5) <= 0.15

    ball = enumerate_ball(GroupSpec.free_abelian(1), 35)
    ns = list(range(2, 65))
    family = [cayley.line_subgraph(ball, n) for n in ns]
    thresholds = [2 * (1 - np.cos(np.pi / n)) for n in ns]
    inputs = bounds.sandwich_inputs(family, thresholds, NEUMANN, labels=ns)
    alpha_n = bounds.lower_bound_check_neumann(family).constants["alpha_N"]
    report = asymptotics.sandwich_check(grid, values, shift,
                                        lambda e: np.sqrt(alpha_n / e), inputs)
    sandwich_ok = report.a is not None and report.a > 0 and report.b > 0 \
        and report.upper_violations == 0 and report.lower_violations == 0
    _verdict(10, slope_ok and sandwich_ok,
             f"double-log slope {fit.slope:.3f} (want 0.5+-0.15); "
             f"a={report.a:.3g} b={report.b:.3g} violations "
             f"{report.upper_violations}+{report.lower_violations}")


def test_criterion_11_adjacency_dirichlet_substitutes():
    # (i) adjacency lower bound on ball and line families, zero violations
    spec2 = GroupSpec.free_abelian(2)
    growth2 = cayley.growth_profile(enumerate_ball(spec2, 16))
    ball2 = enumerate_ball(spec2, 8)
    ball_family = [cayley.induced_subgraph(ball2, ball2.ball_indices(n))
                   for n in range(1, 7)]
    holdout = [cayley.induced_subgraph(ball2, ball2.ball_indices(n))
               for n in (7, 8)]
    fit_balls = bounds.lower_bound_check_adjacency(ball_family, growth2,
                                                   holdout=holdout)
    spec1 = GroupSpec.free_abelian(1)
    growth1 = cayley.growth_profile(enumerate_ball(spec1, 40))
    ball1 = enumerate_ball(spec1, 35)
    lines = [cayley.line_subgraph(ball1, n) for n in (2, 4, 8, 16, 32, 64)]
    line_holdout = [cayley.line_subgraph(ball1, n) for n in (3, 6, 12, 24, 48)]
    fit_lines = bounds.lower_bound_check_adjacency(lines, growth1,
                                                   holdout=line_holdout)
    part_i = fit_balls.constants["alpha"] > 0 and fit_balls.violations == 0 \
        and fit_lines.constants["alpha"] > 0 and fit_lines.violations == 0

    # (ii) the radial test vector certifies the Dirichlet upper bound, n <= 10
    fit_d = bounds.upper_bound_check_dirichlet(enumerate_ball(spec2, 10),
                                               range(2, 11))
    part_ii = fit_d.violations == 0 and all(
        m["rayleigh"] >= m["lambda"] - 1e-10 for m in fit_d.per_member)

    # (iii) adjacency double-log slope on the exact line oracle
    grid = np.geomspace(0.005, 0.2, 40)
    na = line_site_ids_oracle(0.5, grid, ADJACENCY)
    fit_a = asymptotics.fit_lifshitz(grid, na, shift=0.0)
    part_iii = 0.4 <= fit_a.slope <= 0.6
    _verdict(11, part_i and part_ii and part_iii,
             f"(i) alphas {fit_balls.constants['alpha']:.3f}/"
             f"{fit_lines.constants['alpha']:.3f} zero violations: {part_i}; "
             f"(ii) radial certificates: {part_ii}; "
             f"(iii) adjacency slope {fit_a.slope:.3f} in [0.4, 0.6]: {part_iii}")


def test_criterion_12_lamplighter_suite():
    # tetrahedron facts (a)-(c) for m in {2,3}, depths 2..5
    facts_ok = True
    details = []
    for m in (2, 3):
        for n in (2, 3, 4, 5):
            rep = bounds.tetrahedron_checks(m, n)
            good = (rep.vertex_count == rep.expected_count
                    and rep.eigenvalue_gap <= 1e-8
                    and rep.boundary_ratio <= 1e-8)
            facts_ok &= good
            details.append(f"T({m},{n}) gap {rep.eigenvalue_gap:.1e}")
    # exact first return probability
    first_ok = all(return_probability(
        enumerate_ball(GroupSpec.lamplighter(m), 1), 1).value == 1.0 / (2 * m)
        for m in (2, 3))
    # decay shape for m = 2, n <= 8: -log mu is increasing, and mu is
    # log-convex (the correct convexity statement for even-step returns;
    # see the ledger note on the stated criterion)
    ball = enumerate_ball(GroupSpec.lamplighter(2), 8)
    vals = np.array([return_probability(ball, n).value for n in range(1, 9)])
    neg_log = -np.log(vals)
    shape_ok = bool(np.all(np.diff(neg_log) > 0)
                    and np.all(np.diff(np.log(vals), 2) >= -1e-12))
    # substitute for the doubly exponential IDS regime:
    # lambda^A(T_n) <= 2m(1 - cos pi/n) for n <= 6, m = 2
    tets = [cayley.tetrahedron(2, n) for n in range(2, 7)]
    cs = [4 * (1 - np.cos(np.pi / n)) for n in range(2, 7)]
    inputs = bounds.sandwich_inputs(tets, cs, ADJACENCY, labels=range(2, 7))
    bound_ok = bool(np.all(inputs.lambdas <= inputs.thresholds + 1e-8))
    _verdict(12, facts_ok and first_ok and shape_ok and bound_ok,
             f"facts: {facts_ok}; mu(2)=1/(2m): {first_ok}; decay shape: "
             f"{shape_ok}; lambda^A(T_n) bound: {bound_ok}")


def test_criterion_13_cli_determinism(tmp_path):
    configs = {
        "growth": {"group": {"kind": "free_abelian", "rank": 2},
                   "window": {"radius": 12}, "fits": {"growth_n_min": 4}},
        "percolate": {"group": {"kind": "free_abelian", "rank": 2},
                      "percolation": {"kind": "site", "p": 0.4,
                                      "n_samples": 100, "tail_max": 5},
                      "window": {"radius": 7}},
        "ids": {"group": {"kind": "free_abelian", "rank": 1},
                "percolation": {"kind": "site", "p": 0.5},
                "window": {"radius": 25},
                "spectra": {"boundary_conditions": ["neumann", "dirichlet"],
                            "n_samples": 12,
                            "energy_grid": {"min": 0.0, "max": 4.0,
                                            "points": 5}}},
        "free-ids": {"group": {"kind": "free_abelian", "rank": 1},
                     "spectra": {"energy_grid": {"values": [0.5, 2.0]}},
                     "window": {"radius": 20}},
        "bounds": {"group": {"kind": "free_abelian", "rank": 2},
                   "fits": {"dirichlet_n_max": 4, "line_max": 8}},
        "exponents": {"group": {"kind": "free_abelian", "rank": 1},
                      "percolation": {"kind": "site", "p": 0.5},
                      "window": {"radius": 24},
                      "fits": {"growth_n_min": 8, "line_max": 32}},
        "chain": {"group": {"kind": "free_abelian", "rank": 2},
                  "percolation": {"kind": "site", "p": 0.5},
                  "window": {"radius": 3},
                  "spectra": {"n_samples": 8, "couplings": [1, 10],
                              "energy_grid": {"min": 0.0, "max": 9.0,
                                              "points": 8}}},
        "lamplighter": {"group": {"kind": "lamplighter", "modulus": 2},
                        "window": {"depths": [2], "return_max": 3}},
    }
    mismatches = []
    for sub, body in configs.items():
        outs = []
        for tag, workers in (("w1", 1), ("w8", 8)):
            out = tmp_path / f"{sub}-{tag}"
            cfg = {"seed": 13013, "workers": workers, "output_dir": str(out),
                   **body}
            cfg_path = tmp_path / f"{sub}-{tag}.json"
            cfg_path.write_text(json.dumps(cfg))
            code = main([sub, "--config", str(cfg_path)])
            assert code == 0, f"{sub} exited {code}"
            outs.append(out)
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        for name in manifest["outputs"]:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                mismatches.append(f"{sub}/{name}")
    _verdict(13, not mismatches,
             f"byte-identical artifacts for workers 1 vs 8 across "
             f"{len(configs)} subcommands"
             + (f"; mismatches: {mismatches}" if mismatches else ""))
