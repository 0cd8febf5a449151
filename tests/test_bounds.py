"""Rayleigh certificates, geometric bound fits, tetrahedron oracle, sandwich inputs."""

import numpy as np
import pytest

from percospec.cayley import (
    GroupSpec,
    enumerate_ball,
    growth_profile,
    induced_subgraph,
    line_subgraph,
    tetrahedron,
)
from percospec.bounds import (
    MIN_TETRAHEDRON_DEPTH,
    dirichlet_radial,
    lower_bound_check_adjacency,
    lower_bound_check_neumann,
    neumann_linear,
    rayleigh,
    sandwich_inputs,
    tetrahedron_checks,
    upper_bound_check_dirichlet,
)
from percospec.errors import DegenerateSpectrumError
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
    phi = neumann_linear(path)
    assert phi.values.tolist() == [-1.0, 0.0, 1.0]
    assert phi.values.sum() == 0.0
    val = rayleigh(op, phi)
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
    from percospec.bounds import CUSTOM, TestFunction
    const = TestFunction(subgraph=path, values=np.ones(4), kind=CUSTOM)
    with pytest.raises(DegenerateSpectrumError):
        rayleigh(op, const)


def test_rayleigh_upper_bounds_lowest_eigenvalue():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 6)
    rng = np.random.Generator(np.random.Philox(key=np.array([2, 0], dtype=np.uint64)))
    from percospec.bounds import CUSTOM, TestFunction
    for n in (2, 3, 4):
        sub = induced_subgraph(ball, ball.ball_indices(n))
        for bc in (ADJACENCY, DIRICHLET, NEUMANN):
            op = subgraph_laplacian(sub, bc)
            phi = TestFunction(subgraph=sub, values=rng.normal(size=sub.size),
                               kind=CUSTOM)
            assert rayleigh(op, phi) >= lowest_nonzero(op) - 1e-10


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

def test_adjacency_lower_bound_on_z2_balls():
    spec = GroupSpec.free_abelian(2)
    growth = growth_profile(spec, 16)
    ball = enumerate_ball(spec, 8)
    family = [induced_subgraph(ball, ball.ball_indices(n)) for n in range(1, 7)]
    holdout = [induced_subgraph(ball, ball.ball_indices(n)) for n in (7, 8)]
    fit = lower_bound_check_adjacency(family, growth, holdout=holdout)
    assert fit.constants["alpha"] > 0
    assert fit.violations == 0


def test_adjacency_lower_bound_on_lines():
    spec = GroupSpec.free_abelian(1)
    growth = growth_profile(spec, 40)
    ball = enumerate_ball(spec, 35)
    family = [line_subgraph(ball, n) for n in (2, 4, 8, 16, 32, 64)]
    fit = lower_bound_check_adjacency(family, growth)
    assert fit.constants["alpha"] > 0


def test_adjacency_lower_single_vertex():
    spec = GroupSpec.free_abelian(2)
    growth = growth_profile(spec, 4)
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
    fit = upper_bound_check_dirichlet(GroupSpec.free_abelian(2), range(2, 11))
    gamma = fit.constants["gamma_D"]
    assert gamma > 0
    assert fit.violations == 0
    for m in fit.per_member:
        assert m["rayleigh"] >= m["lambda"] - 1e-10
        assert m["lambda"] <= gamma * m["shape"] + 1e-12


def test_dirichlet_upper_bound_z_n1():
    fit = upper_bound_check_dirichlet(GroupSpec.free_abelian(1), [1])
    member = fit.per_member[0]
    assert member["rayleigh"] == pytest.approx(2.0, abs=1e-12)
    assert member["shape"] == pytest.approx(3.0)


def test_fitted_constants_stable_under_family_doubling():
    spec = GroupSpec.free_abelian(2)
    growth = growth_profile(spec, 18)
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
    ball = enumerate_ball(GroupSpec.lamplighter(m), 2)
    op = subgraph_laplacian(tetrahedron(m, 1, ball), ADJACENCY)
    vals = np.linalg.eigvalsh(op.to_dense())
    assert np.array_equal(np.unique(np.round(vals, 9)), [m, 2 * m, 3 * m])
    assert MIN_TETRAHEDRON_DEPTH == 2
    with pytest.raises(ValueError, match="depth n >= 2"):
        tetrahedron_checks(m, 1, ball=ball)
    assert tetrahedron_checks(m, MIN_TETRAHEDRON_DEPTH).eigenvalue_gap <= 1e-8


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
    ball = enumerate_ball(GroupSpec.lamplighter(2), 12)
    from percospec.cayley import tetrahedron
    ns = [2, 3, 4, 5, 6]
    family = [tetrahedron(2, n, ball) for n in ns]
    c = [2 * 2 * (1 - np.cos(np.pi / n)) for n in ns]
    inputs = sandwich_inputs(family, c, ADJACENCY, labels=ns)
    assert np.all(inputs.lambdas <= inputs.thresholds + 1e-8)


def test_sandwich_inputs_rejects_bad_thresholds():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 10)
    family = [line_subgraph(ball, n) for n in (4, 8)]
    with pytest.raises(ValueError, match="verification failed"):
        sandwich_inputs(family, [neumann_line_threshold(4) / 10, 1.0], NEUMANN,
                        labels=[4, 8])
