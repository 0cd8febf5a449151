"""Rayleigh certificates, geometric bound fits, tetrahedron oracle, sandwich inputs."""

import itertools

import numpy as np
import pytest
from scipy import linalg

from percospec.cayley import (
    GroupSpec,
    enumerate_ball,
    growth_profile,
    induced_subgraph,
    inner_vertex_boundary,
    line_subgraph,
    tetrahedron,
)
from percospec import bounds
from percospec.bounds import (
    CERTIFICATE,
    FULL_SOLVE,
    MIN_TETRAHEDRON_DEPTH,
    TetrahedronReport,
    dirichlet_radial,
    lower_bound_check_adjacency,
    lower_bound_check_neumann,
    rayleigh,
    sandwich_inputs,
    tetrahedron_checks,
    tetrahedron_eigenvalue,
    tetrahedron_multiplicity,
    tetrahedron_solve,
    upper_bound_check_dirichlet,
)
from percospec.errors import (
    BudgetError,
    DegenerateSpectrumError,
    OracleViolationError,
)
from percospec.operators import ADJACENCY, DIRICHLET, NEUMANN, subgraph_laplacian
from percospec.spectra import lowest_nonzero


def neumann_line_threshold(n):
    return 2.0 * (1.0 - np.cos(np.pi / n))


# ---------------------------------------------------------------------------
# Rayleigh quotients
# ---------------------------------------------------------------------------

def test_neumann_linear_on_l3_is_sharp():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 4)
    path = line_subgraph(ball, 3)
    op = subgraph_laplacian(path, NEUMANN)
    val = rayleigh(op, bounds.TestFunction(path, [-1, 0, 1]))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert val == pytest.approx(lowest_nonzero(op), abs=1e-12)


def test_dirichlet_radial_on_b1_z():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 2)
    phi = dirichlet_radial(ball, 1)
    assert sorted(phi.values.tolist()) == [0.0, 0.0, 1.0]
    op = subgraph_laplacian(phi.subgraph, DIRICHLET)
    val = rayleigh(op, phi)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert val >= lowest_nonzero(op) - 1e-12


def test_constant_vector_rejected_for_neumann():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 4)
    path = line_subgraph(ball, 4)
    op = subgraph_laplacian(path, NEUMANN)
    const = bounds.TestFunction(subgraph=path, values=np.ones(4))
    with pytest.raises(DegenerateSpectrumError):
        rayleigh(op, const)


def test_rayleigh_upper_bounds_lowest_eigenvalue():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 6)
    rng = np.random.Generator(np.random.Philox(key=np.array([2, 0], dtype=np.uint64)))
    for n in (2, 3, 4):
        sub = induced_subgraph(ball, ball.ball_indices(n))
        for bc in (ADJACENCY, DIRICHLET, NEUMANN):
            op = subgraph_laplacian(sub, bc)
            phi = bounds.TestFunction(subgraph=sub, values=rng.normal(size=sub.size))
            assert rayleigh(op, phi) >= lowest_nonzero(op) - 1e-10


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

def test_adjacency_lower_bound_on_z2_balls():
    spec = GroupSpec.free_abelian(2)
    growth = growth_profile(enumerate_ball(spec, 16))
    ball = enumerate_ball(spec, 8)
    family = [induced_subgraph(ball, ball.ball_indices(n)) for n in range(1, 7)]
    holdout = [induced_subgraph(ball, ball.ball_indices(n)) for n in (7, 8)]
    fit = lower_bound_check_adjacency(family, growth, holdout=holdout)
    assert fit.constants["alpha"] > 0
    assert fit.violations == 0


def test_adjacency_lower_bound_on_lines():
    spec = GroupSpec.free_abelian(1)
    growth = growth_profile(enumerate_ball(spec, 40))
    ball = enumerate_ball(spec, 35)
    family = [line_subgraph(ball, n) for n in (2, 4, 8, 16, 32, 64)]
    fit = lower_bound_check_adjacency(family, growth)
    assert fit.constants["alpha"] > 0


def test_adjacency_lower_single_vertex():
    spec = GroupSpec.free_abelian(2)
    growth = growth_profile(enumerate_ball(spec, 4))
    ball = enumerate_ball(spec, 2)
    sub = induced_subgraph(ball, [0])
    fit = lower_bound_check_adjacency([sub], growth)
    # lambda^A = k and phi(1) = 1
    assert fit.per_member[0]["lambda"] == pytest.approx(4.0)
    assert fit.per_member[0]["phi"] == 1.0


def test_neumann_lower_bound_on_lines():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 35)
    family = [line_subgraph(ball, n) for n in (2, 3, 4, 8, 16, 32, 64)]
    fit = lower_bound_check_neumann(family)
    products = [m["product"] for m in fit.per_member]
    # 2(1 - cos(pi/n)) n^2 increases towards pi^2, within 1% by n = 64
    assert np.all(np.diff(products) > 0)
    assert fit.constants["alpha_N"] == pytest.approx(8.0, abs=1e-9)
    assert products[-1] <= np.pi ** 2
    assert abs(products[-1] / np.pi ** 2 - 1.0) < 0.01


def test_neumann_lower_bound_two_vertices():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    fit = lower_bound_check_neumann([line_subgraph(ball, 2)])
    assert fit.per_member[0]["lambda"] == pytest.approx(2.0)
    assert fit.constants["alpha_N"] == pytest.approx(8.0)


def test_neumann_lower_bound_z2_balls_grows():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 6)
    family = [induced_subgraph(ball, ball.ball_indices(n)) for n in range(2, 7)]
    fit = lower_bound_check_neumann(family)
    assert fit.constants["alpha_N"] > 0
    products = [m["product"] for m in fit.per_member]
    assert np.all(np.diff(products) > 0)


# ---------------------------------------------------------------------------
# Dirichlet upper bound
# ---------------------------------------------------------------------------

def test_dirichlet_upper_bound_z2():
    fit = upper_bound_check_dirichlet(enumerate_ball(GroupSpec.free_abelian(2), 10),
                                      range(2, 11))
    gamma = fit.constants["gamma_D"]
    assert gamma > 0
    assert fit.violations == 0
    for m in fit.per_member:
        assert m["rayleigh"] >= m["lambda"] - 1e-10
        assert m["lambda"] <= gamma * m["shape"] + 1e-12


def test_dirichlet_upper_bound_z_n1():
    fit = upper_bound_check_dirichlet(enumerate_ball(GroupSpec.free_abelian(1), 1),
                                      [1])
    member = fit.per_member[0]
    assert member["rayleigh"] == pytest.approx(2.0, abs=1e-12)
    assert member["shape"] == pytest.approx(3.0)


def test_fitted_constants_stable_under_family_doubling():
    spec = GroupSpec.free_abelian(2)
    growth = growth_profile(enumerate_ball(spec, 18))
    ball = enumerate_ball(spec, 8)
    half = [induced_subgraph(ball, ball.ball_indices(n)) for n in range(1, 5)]
    full = [induced_subgraph(ball, ball.ball_indices(n)) for n in range(1, 9)]
    a_half = lower_bound_check_adjacency(half, growth).constants["alpha"]
    a_full = lower_bound_check_adjacency(full, growth).constants["alpha"]
    assert abs(a_full - a_half) <= 0.2 * a_half


# ---------------------------------------------------------------------------
# tetrahedron oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3)])
def test_tetrahedron_checks_pass(m, n):
    rep = tetrahedron_checks(m, n)
    assert rep.vertex_count == (n + 1) * m ** n
    assert rep.eigenvalue_gap <= 1e-8
    assert rep.boundary_ratio <= 1e-8


def test_tetrahedron_target_values():
    rep = tetrahedron_checks(2, 4)
    assert rep.target_eigenvalue == pytest.approx(4 - 2 * np.sqrt(2), abs=1e-12)
    rep = tetrahedron_checks(3, 3)
    assert rep.target_eigenvalue == pytest.approx(3.0, abs=1e-12)


def test_tetrahedron_depth2_count():
    rep = tetrahedron_checks(2, 2)
    assert rep.vertex_count == 12


@pytest.mark.parametrize("m", [2, 3])
def test_depth_one_tetrahedron_lacks_the_eigenvalue(m):
    # T_1 is K_{m,m}: the adjacency Laplacian has spectrum {m, 2m, 3m}, so
    # 2m(1 - cos pi) = 4m is no eigenvalue and the facts start at depth 2
    op = subgraph_laplacian(tetrahedron(m, 1), ADJACENCY)
    vals = np.linalg.eigvalsh(op.to_dense())
    assert np.array_equal(np.unique(np.round(vals, 9)), [m, 2 * m, 3 * m])
    assert MIN_TETRAHEDRON_DEPTH == 2
    with pytest.raises(ValueError, match="depth n >= 2"):
        tetrahedron_checks(m, 1)
    assert tetrahedron_checks(m, MIN_TETRAHEDRON_DEPTH).eigenvalue_gap <= 1e-8


def full_tetrahedron_reference(m, n):
    """The former check: every eigenpair from one full ``eigh``, then the
    eigenspace within 1e-8 of the target."""
    tet = tetrahedron(m, n)
    op = subgraph_laplacian(tet, ADJACENCY)
    vals, vecs = linalg.eigh(op.to_dense())
    target = 2.0 * m * (1.0 - np.cos(np.pi / n))
    gap = float(np.min(np.abs(vals - target)))
    sel = np.abs(vals - target) <= 1e-8
    space = vecs[:, sel]
    rows = op.local_of(inner_vertex_boundary(tet))
    _, _, vt = np.linalg.svd(space[rows, :], full_matrices=True)
    vec = space @ vt[-1]
    ratio = float(np.max(np.abs(vec[rows])) / np.max(np.abs(vec)))
    return TetrahedronReport(m=m, n=n, vertex_count=tet.size,
                             expected_count=(n + 1) * m ** n,
                             target_eigenvalue=target, eigenvalue_gap=gap,
                             eigenspace_dim=int(sel.sum()),
                             boundary_ratio=ratio)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3),
                                 (4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
                                 (9, 2), (2, 6), (3, 4), (3, 5), (4, 3),
                                 (5, 3), (10, 2)])
def test_certificate_matches_the_full_solve(m, n):
    assert tetrahedron_solve(m, n) == CERTIFICATE
    rep, ref = tetrahedron_checks(m, n), full_tetrahedron_reference(m, n)
    assert rep.vertex_count == ref.vertex_count
    assert rep.target_eigenvalue == ref.target_eigenvalue
    assert rep.eigenspace_dim == ref.eigenspace_dim
    for r in (rep, ref):
        assert r.eigenvalue_gap <= 1e-8
        assert r.boundary_ratio <= 1e-8
    # the certificate vanishes exactly on the inner boundary
    assert rep.boundary_ratio == 0.0


def test_small_tetrahedron_keeps_the_full_solve():
    # the criterion-13 lamplighter_report.json sum pins these bits
    assert tetrahedron_solve(2, 2) == FULL_SOLVE
    assert (vars(tetrahedron_checks(2, 2))
            == vars(full_tetrahedron_reference(2, 2)))


@pytest.mark.parametrize("m,n,solve", [(2, 2, FULL_SOLVE),
                                       (2, 3, CERTIFICATE),
                                       (3, 2, CERTIFICATE),
                                       (4, 3, CERTIFICATE),
                                       (2, 6, CERTIFICATE)])
def test_eigenvectors_only_for_the_target_above_the_floor(monkeypatch, m, n,
                                                          solve):
    # (2, 2) has 12 vertices, (3, 2) 27, (2, 3) 32, (4, 3) 256 and (2, 6)
    # 448; from 13 on the one eigenvector is the closed-form one, and
    # nothing is solved
    calls = []

    def spying(module, name):
        solver = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    for module in (linalg, np.linalg):
        for name in ("eigh", "eigvalsh", "svd"):
            spying(module, name)
    tetrahedron_checks(m, n)
    assert tetrahedron_solve(m, n) == solve
    assert calls == (["eigh", "svd"] if solve == FULL_SOLVE else [])


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 5), (2, 6)])
def test_missing_eigenvalue_names_the_depth_and_target(monkeypatch, m, n):
    # 12 vertices, below the certificate floor, and 32, 192 and 448 above it
    target = bounds.tetrahedron_eigenvalue(m, n) + 1e-6
    monkeypatch.setattr(bounds, "tetrahedron_eigenvalue", lambda m, n: target)
    with pytest.raises(OracleViolationError) as err:
        tetrahedron_checks(m, n)
    message = str(err.value)
    assert f"depth-{n} tetrahedron" in message
    assert f"of {target}" in message
    # only the full solve sees the eigenvalue outside the window
    assert ("nearest at distance" in message) == (
        tetrahedron_solve(m, n) == FULL_SOLVE)


def test_tetrahedron_solve_refuses_before_building():
    # (3, 5) has 1458 vertices, (5, 5) 18750 and (5, 10) 107,421,875
    assert tetrahedron_solve(3, 5) == tetrahedron_solve(5, 5) == CERTIFICATE
    with pytest.raises(BudgetError, match="depth-10 tetrahedron of Z_5"):
        tetrahedron_solve(5, 10)
    with pytest.raises(ValueError, match="depth n >= 2"):
        tetrahedron_solve(2, 1)


def sector_spectrum(m, n):
    """The adjacency-Laplacian spectrum of the depth-n tetrahedron, and the
    multiplicity of its target, from the split by lamp characters: the
    lamps S in {1..n} with a nontrivial character give (m-1)^|S| copies of
    2m - m (path adjacency) on {0..n} cut before each p in S."""
    vals, count = [], 0
    for lit in itertools.product((False, True), repeat=n):
        copies = (m - 1) ** sum(lit)
        cuts = [0] + [p for p in range(1, n + 1) if lit[p - 1]] + [n + 1]
        for s in np.diff(cuts):
            j = np.arange(1, s + 1)
            vals += [2 * m * (1 - np.cos(np.pi * j / (s + 1)))] * copies
            # pi j / (s + 1) = pi / n for j = (s + 1) / n, which is <= s
            count += copies * int((s + 1) % n == 0)
    return np.sort(np.concatenate(vals)), count


@pytest.mark.parametrize("m,n", [
    (m, n) for m in range(2, 23) for n in range(2, 8)
    if (n + 1) * m ** n <= 1500])
def test_closed_form_spectrum_matches_eigvalsh(m, n):
    vals = np.linalg.eigvalsh(
        subgraph_laplacian(tetrahedron(m, n), ADJACENCY).to_dense())
    closed, count = sector_spectrum(m, n)
    assert len(closed) == len(vals) == (n + 1) * m ** n
    assert np.max(np.abs(closed - vals)) <= 1e-12
    target = tetrahedron_eigenvalue(m, n)
    assert count == tetrahedron_multiplicity(m, n)
    assert np.count_nonzero(np.abs(vals - target) <= 1e-8) == count


# ---------------------------------------------------------------------------
# sandwich inputs
# ---------------------------------------------------------------------------

def test_sandwich_inputs_neumann_lines():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 35)
    ns = list(range(2, 65))
    family = [line_subgraph(ball, n) for n in ns]
    c = [neumann_line_threshold(n) for n in ns]
    inputs = sandwich_inputs(family, c, NEUMANN, labels=ns)
    assert np.allclose(inputs.lambdas, inputs.thresholds, atol=1e-9)
    # n(E) for the pi^2/n^2-like family at E = 0.1
    e = 0.1
    member = inputs.member_at(e)
    assert inputs.labels[member] == 10
    assert neumann_line_threshold(10) <= e < neumann_line_threshold(9)


def test_sandwich_inputs_tetrahedra():
    ns = [2, 3, 4, 5, 6]
    family = [tetrahedron(2, n) for n in ns]
    c = [2 * 2 * (1 - np.cos(np.pi / n)) for n in ns]
    inputs = sandwich_inputs(family, c, ADJACENCY, labels=ns)
    assert np.all(inputs.lambdas <= inputs.thresholds + 1e-8)


def test_sandwich_inputs_rejects_bad_thresholds():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 10)
    family = [line_subgraph(ball, n) for n in (4, 8)]
    with pytest.raises(ValueError, match="verification failed"):
        sandwich_inputs(family, [neumann_line_threshold(4) / 10, 1.0], NEUMANN,
                        labels=[4, 8])
