"""Spectra: dense solves, counting, empirical IDS, free IDS, return probability."""

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.sparse import csgraph

from percospec import spectra
from percospec.cayley import FiniteSubgraph, GroupSpec, enumerate_ball, tetrahedron
from percospec.errors import BudgetError, DegenerateSpectrumError
from percospec.operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    LabeledOperator,
    free_laplacian,
    percolation_laplacian,
    restrict,
)
from percospec.percolation import PercolationModel, sample
from percospec.spectra import (
    COUNT_TOL,
    CountingFunction,
    block_eigenvalues,
    count_below,
    eigenvalues_dense,
    empirical_ids,
    five_operator_counts,
    free_ids_ball,
    free_ids_zd,
    line_site_ids_oracle,
    lowest_nonzero,
    return_probability,
)


def make_site_sample(window, open_elements, seed=0):
    s = sample(PercolationModel("site", 0.5, seed), window, 0)
    marks = np.zeros(len(window), dtype=bool)
    for el in open_elements:
        marks[window.index_of(el)] = True
    s.open_marks = marks
    return s


@pytest.fixture(scope="module")
def z_ball():
    return enumerate_ball(GroupSpec.free_abelian(1), 8)


def path_neumann_eigenvalues(n):
    """Closed form for the Neumann Laplacian of an n-vertex path."""
    return 2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n))


# ---------------------------------------------------------------------------
# dense spectra
# ---------------------------------------------------------------------------

def test_two_site_neumann_spectrum(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    spec = eigenvalues_dense(percolation_laplacian(s, NEUMANN), validate=True)
    assert np.allclose(spec.eigenvalues, [0, 2], atol=1e-12)
    assert spec.kernel_dim == 1


def test_path_neumann_closed_form(z_ball):
    for n in (3, 5, 8):
        s = make_site_sample(z_ball, [(j,) for j in range(-(n // 2), n - n // 2)])
        spec = eigenvalues_dense(percolation_laplacian(s, NEUMANN))
        assert np.allclose(spec.eigenvalues, np.sort(path_neumann_eigenvalues(n)),
                           atol=1e-10)


def test_bipartite_spectrum_symmetric_about_k():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 4)
    model = PercolationModel("site", 0.6, 3)
    for i in range(5):
        s = sample(model, ball, i)
        vals = eigenvalues_dense(percolation_laplacian(s, ADJACENCY)).eigenvalues
        assert np.allclose(vals, np.sort(2 * ball.k - vals), atol=1e-10)


def test_dense_cap(z_ball):
    op = free_laplacian(z_ball)
    with pytest.raises(BudgetError, match="count_below"):
        eigenvalues_dense(op, dense_cap=5)


def test_block_eigenvalues_matches_dense():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 5)
    model = PercolationModel("site", 0.5, 9)
    for i in range(5):
        s = sample(model, ball, i)
        op = percolation_laplacian(s, NEUMANN)
        direct = np.linalg.eigvalsh(op.to_dense())
        assert np.allclose(block_eigenvalues(op), direct, atol=1e-10)
        assert np.array_equal(eigenvalues_dense(op).eigenvalues,
                              block_eigenvalues(op))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_below_two_site(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    op = percolation_laplacian(s, ADJACENCY)  # eigenvalues {1, 3}
    assert count_below(op, 2.0) == 1
    assert count_below(op, -0.5) == 0
    assert count_below(op, 2 * z_ball.k) == 2


def _component_sizes(op):
    return np.bincount(csgraph.connected_components(op.matrix, directed=False)[1])


@pytest.mark.parametrize("rank,radius,kind,p_range", [
    (1, 60, "site", (0.3, 0.7)),
    (1, 60, "bond", (0.3, 0.7)),
    (2, 8, "site", (0.2, 0.45)),   # below p_c(site) ~ 0.593
    (2, 8, "bond", (0.2, 0.4)),    # below p_c(bond) = 1/2
], ids=["Z1-site", "Z1-bond", "Z2-site", "Z2-bond"])
def test_count_below_matches_eigvalsh_above_cap(rank, radius, kind, p_range):
    """Operators above the dense cap made of small clusters, and their
    compressions, are counted per component, exactly as a dense solve of
    the whole operator counts them: at integer eigenvalues and on a 1/8
    grid."""
    rng = np.random.Generator(np.random.Philox(key=np.array([5, rank],
                                                            dtype=np.uint64)))
    ball = enumerate_ball(GroupSpec.free_abelian(rank), radius)
    inner = ball.volume(radius - 1)
    grid = np.arange(-4, 16 * ball.k + 5) / 8
    on_eigenvalue = 0
    for i in range(3):
        model = PercolationModel(kind, float(rng.uniform(*p_range)),
                                 int(rng.integers(1 << 30)))
        s = sample(model, ball, i)
        for bc in (NEUMANN, ADJACENCY, DIRICHLET):
            op = percolation_laplacian(s, bc)
            for o in (op, restrict(op, op.index_set[op.index_set < inner])):
                cap = int(_component_sizes(o).max())
                assert o.dim > cap
                vals = np.linalg.eigvalsh(o.to_dense())
                integers = np.unique(np.round(vals[np.abs(vals - np.round(vals))
                                                   < 1e-9]))
                on_eigenvalue += len(integers)
                for e in np.concatenate([grid, integers]):
                    expect = int((vals <= e + COUNT_TOL).sum())
                    assert count_below(o, float(e), dense_cap=cap) == expect
    assert on_eigenvalue


def test_count_below_connected_above_cap_raises_budget_error():
    op = free_laplacian(enumerate_ball(GroupSpec.free_abelian(1), 30))
    with pytest.raises(BudgetError,
                       match="component of dimension 61 exceeds the dense cap 10"):
        count_below(op, 2.0, dense_cap=10)
    vals = np.linalg.eigvalsh(op.to_dense())
    for e in (0.5, 2.0, 3.7):
        assert count_below(op, e, dense_cap=61) == \
            int((vals <= e + COUNT_TOL).sum())


def test_no_dense_matrix_above_the_cap(monkeypatch):
    ball = enumerate_ball(GroupSpec.free_abelian(1), 40)
    op = percolation_laplacian(sample(PercolationModel("site", 0.5, 3), ball, 0),
                               NEUMANN)
    cap = int(_component_sizes(op).max())
    small = restrict(op, op.index_set[:cap])
    assert small.dim <= cap < op.dim
    to_dense = LabeledOperator.to_dense

    def guarded(self):
        if self.dim > cap:
            raise AssertionError(f"dense matrix of dimension {self.dim} "
                                 f"above the cap {cap}")
        return to_dense(self)

    monkeypatch.setattr(LabeledOperator, "to_dense", guarded)
    assert count_below(op, 1.0, dense_cap=cap) == \
        int((block_eigenvalues(op, cap) <= 1.0 + COUNT_TOL).sum())
    assert lowest_nonzero(op, dense_cap=cap) > 0
    with pytest.raises(BudgetError, match="count_below"):
        eigenvalues_dense(op, dense_cap=cap)
    assert eigenvalues_dense(small, dense_cap=cap, validate=True).dim == small.dim


def test_block_eigenvalues_bond_all_bcs():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 5)
    model = PercolationModel("bond", 0.35, 77)
    for i in range(5):
        s = sample(model, ball, i)
        for bc in (NEUMANN, ADJACENCY, DIRICHLET):
            op = percolation_laplacian(s, bc)
            assert np.allclose(block_eigenvalues(op),
                               eigenvalues_dense(op).eigenvalues, atol=1e-10)


def _block_eigenvalues_reference(op):
    """Slow reference: slice one dense block per connected component."""
    ncomp, labels = csgraph.connected_components(op.matrix, directed=False)
    if ncomp == 1:
        return np.sort(linalg.eigvalsh(op.to_dense()))
    order = np.argsort(labels, kind="stable")
    permuted = op.matrix[order][:, order].tocsr()
    offsets = np.concatenate([[0], np.cumsum(np.bincount(labels))])
    buckets = {}
    for c in range(ncomp):
        a, b = offsets[c], offsets[c + 1]
        buckets.setdefault(b - a, []).append(permuted[a:b, a:b].toarray())
    out = []
    for size, blocks in buckets.items():
        if size == 1:
            out.append(np.concatenate([blk.ravel() for blk in blocks]))
        else:
            out.append(np.linalg.eigvalsh(np.stack(blocks)).ravel())
    return np.sort(np.concatenate(out))


def _split_entries(op):
    """Same operator with every stored entry stored twice, as two halves."""
    m = op.matrix
    counts = np.diff(m.indptr)
    indptr = np.concatenate([[0], np.cumsum(2 * counts)])
    mat = sparse.csr_matrix((np.repeat(m.data / 2, 2), np.repeat(m.indices, 2),
                             indptr), shape=m.shape)
    return LabeledOperator(index_set=op.index_set, matrix=mat, tag="split",
                           k=op.k, bc=op.bc)


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(1), 80),
    (GroupSpec.free_abelian(2), 6),
    (GroupSpec.free_abelian(3), 3),
    (GroupSpec.heisenberg(), 4),
])
def test_block_eigenvalues_bit_identical_to_reference(spec, radius):
    rng = np.random.Generator(np.random.Philox(key=np.array([31, radius],
                                                            dtype=np.uint64)))
    ball = enumerate_ball(spec, radius)
    window = ball.ball_indices(radius - 1)
    seen_singletons = seen_blocks = 0
    for i in range(12):
        kind = ("site", "bond")[i % 2]
        model = PercolationModel(kind, float(rng.uniform(0.15, 0.85)),
                                 int(rng.integers(1 << 30)))
        s = sample(model, ball, i)
        for bc in (NEUMANN, ADJACENCY, DIRICHLET):
            op = percolation_laplacian(s, bc)
            compressed = restrict(op, op.index_set[op.index_set < len(window)])
            for o in (op, compressed, _split_entries(op)):
                assert np.array_equal(block_eigenvalues(o),
                                      _block_eigenvalues_reference(o))
                if o.dim:
                    sizes = np.bincount(csgraph.connected_components(
                        o.matrix, directed=False)[1])
                    seen_singletons += int((sizes == 1).sum())
                    seen_blocks += int((sizes > 1).sum())
    assert seen_singletons and seen_blocks


def test_block_eigenvalues_dense_cap_applies_per_component():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 6)
    # clusters of sizes 3, 1 and 5 (the last one is the whole right end)
    s = make_site_sample(ball, [(-6,), (-5,), (-4,), (-2,),
                                (2,), (3,), (4,), (5,), (6,)])
    op = percolation_laplacian(s, NEUMANN)
    assert np.array_equal(block_eigenvalues(op, dense_cap=5),
                          _block_eigenvalues_reference(op))
    with pytest.raises(BudgetError, match="dimension 5 exceeds the dense cap 4"):
        block_eigenvalues(op, dense_cap=4)
    with pytest.raises(BudgetError, match="dimension 13 exceeds"):
        block_eigenvalues(free_laplacian(ball), dense_cap=12)


def test_count_below_counts_eigenvalue_on_the_shift():
    # an eigenvalue exactly at E + tol is counted, also above the cap
    diag = np.array([1.0 + COUNT_TOL, 5.0])
    op = LabeledOperator(index_set=np.arange(2),
                         matrix=sparse.diags(diag, format="csr"), tag="synthetic",
                         k=2)
    for cap in (1, 2):
        assert count_below(op, 1.0, dense_cap=cap) == 1


def test_counting_function_right_continuous():
    cf = CountingFunction.from_eigenvalues([0.0, 1.0, 1.0, 3.0], normalization=4.0)
    assert cf(np.array([-1.0, 0.0, 0.9999, 1.0, 2.0, 3.0])).tolist() == \
        [0.0, 0.25, 0.25, 0.75, 0.75, 1.0]


def test_lowest_nonzero(z_ball):
    s = make_site_sample(z_ball, [(-1,), (0,), (1,)])
    assert lowest_nonzero(percolation_laplacian(s, NEUMANN)) == pytest.approx(1.0)
    iso = make_site_sample(z_ball, [(0,)])
    with pytest.raises(DegenerateSpectrumError):
        lowest_nonzero(percolation_laplacian(iso, NEUMANN))


def test_lowest_nonzero_single_vertex_z2():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 1)
    s = make_site_sample(ball, [(0, 0)])
    assert lowest_nonzero(percolation_laplacian(s, ADJACENCY)) == pytest.approx(4.0)


def test_neumann_line_scaling(z_ball):
    # n^2 * lambda^N(L_n) is bounded (tends to pi^2 from below)
    big = enumerate_ball(GroupSpec.free_abelian(1), 40)
    for n in (4, 8, 16, 32):
        s = make_site_sample(big, [(j,) for j in range(-(n // 2), n - n // 2)])
        lam = lowest_nonzero(percolation_laplacian(s, NEUMANN))
        assert lam * n * n <= np.pi ** 2 + 1e-9


# ---------------------------------------------------------------------------
# empirical IDS
# ---------------------------------------------------------------------------

def test_ids_p_one_equals_free_window():
    group = GroupSpec.free_abelian(2)
    grid = np.linspace(0.0, 8.0, 9)
    est = empirical_ids(group, PercolationModel("site", 1.0, 1), ADJACENCY,
                        radius=4, n_samples=10, energy_grid=grid)
    ball = enumerate_ball(group, 4)
    free_vals = eigenvalues_dense(free_laplacian(ball)).eigenvalues
    cf = CountingFunction.from_eigenvalues(free_vals, normalization=len(ball))
    assert np.allclose(est.mean, cf(grid))
    assert np.all(est.stderr < 1e-12)


def test_ids_monotone_and_ordered():
    group = GroupSpec.free_abelian(2)
    grid = np.linspace(0.0, 8.0, 12)
    ests = {bc: empirical_ids(group, PercolationModel("site", 0.5, 11), bc,
                              radius=5, n_samples=30, energy_grid=grid)
            for bc in (NEUMANN, ADJACENCY, DIRICHLET)}
    for bc, est in ests.items():
        assert np.all(np.diff(est.mean) >= -1e-12)
        assert np.all(est.bracket_low <= est.mean + 1e-12)
    # pointwise ordering of the means (holds sample by sample)
    assert np.all(ests[NEUMANN].mean >= ests[ADJACENCY].mean - 1e-12)
    assert np.all(ests[ADJACENCY].mean >= ests[DIRICHLET].mean - 1e-12)


def test_ids_neumann_mass_at_zero_matches_cluster_density():
    est = empirical_ids(GroupSpec.free_abelian(1),
                        PercolationModel("site", 0.5, 2024), NEUMANN,
                        radius=400, n_samples=60,
                        energy_grid=np.array([0.0, 1.0]))
    val, se = est.n_at_zero
    assert abs(val - 0.25) <= 3 * max(se, 1e-4)


def test_ids_monotone_in_p_by_coupling():
    # same seed => coupled marks => adjacency counting monotone in p
    group = GroupSpec.free_abelian(2)
    grid = np.linspace(0.0, 8.0, 10)
    lo = empirical_ids(group, PercolationModel("site", 0.3, 5), ADJACENCY,
                       radius=4, n_samples=25, energy_grid=grid)
    hi = empirical_ids(group, PercolationModel("site", 0.7, 5), ADJACENCY,
                       radius=4, n_samples=25, energy_grid=grid)
    assert np.all(lo.mean <= hi.mean + 1e-12)


def test_ids_isolated_vertex_jump():
    # jump of the adjacency IDS at E = k from isolated vertices; larger
    # clusters also carry eigenvalues at k (e.g. 3-site segments), so p is
    # kept small enough that their density 2 p^3 (1-p)^8 + O(p^4) stays
    # well inside the band
    p = 0.08
    group = GroupSpec.free_abelian(2)
    k = 4.0
    est = empirical_ids(group, PercolationModel("site", p, 31), ADJACENCY,
                        radius=10, n_samples=200,
                        energy_grid=np.array([k - 1e-6, k]))
    jump = est.mean[1] - est.mean[0]
    sigma = float(np.hypot(est.stderr[0], est.stderr[1]))
    assert abs(jump - p * (1 - p) ** 4) <= 3 * max(sigma, 2e-4) + 2 * p ** 3


def test_ids_workers_identical():
    group = GroupSpec.free_abelian(1)
    grid = np.linspace(0.0, 4.0, 6)
    a = empirical_ids(group, PercolationModel("site", 0.5, 3), NEUMANN,
                      radius=50, n_samples=20, energy_grid=grid, workers=1)
    b = empirical_ids(group, PercolationModel("site", 0.5, 3), NEUMANN,
                      radius=50, n_samples=20, energy_grid=grid, workers=4)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_ids_tetrahedron_window():
    group = GroupSpec.lamplighter(2)
    grid = np.linspace(0.0, 8.0, 5)
    est = empirical_ids(group, PercolationModel("site", 0.6, 9), NEUMANN,
                        depth=2, n_samples=12, energy_grid=grid)
    assert est.params["depth"] == 2
    assert np.all(np.diff(est.mean) >= -1e-12)


@pytest.mark.parametrize("window,group", [
    ({"radius": 4}, GroupSpec.free_abelian(2)),
    ({"depth": 2}, GroupSpec.lamplighter(2))])
@pytest.mark.parametrize("kind", ["site", "bond"])
@pytest.mark.parametrize("workers", [1, 2])
def test_ids_bc_list_equals_one_bc_calls(window, group, kind, workers):
    model = PercolationModel(kind, 0.5, 5)
    grid = np.linspace(0.0, 8.0, 9)
    bcs = [DIRICHLET, NEUMANN, ADJACENCY]  # not the CLI's default order
    together = empirical_ids(group, model, bcs, n_samples=10, energy_grid=grid,
                             workers=workers, **window)
    assert list(together) == bcs
    for bc in bcs:
        alone = empirical_ids(group, model, bc, n_samples=10, energy_grid=grid,
                              workers=workers, **window)
        for field in ("mean", "stderr", "bracket_low", "bracket_high",
                      "n_at_zero", "params"):
            got, want = getattr(together[bc], field), getattr(alone, field)
            assert (np.array_equal(got, want) if isinstance(want, np.ndarray)
                    else got == want), (bc, field)


@pytest.mark.parametrize("bcs", [[], [NEUMANN, ADJACENCY, NEUMANN]])
def test_ids_rejects_an_empty_or_repeated_bc_list(bcs):
    with pytest.raises(ValueError, match="distinct boundary conditions"):
        empirical_ids(GroupSpec.free_abelian(1),
                      PercolationModel("site", 0.5, 5), bcs, radius=3,
                      n_samples=10, energy_grid=[1.0])


def window_cut_reference(s, window_mask):
    """The percolation subgraph of a sample cut to a window by masking the
    vertices and edges of the full sample subgraph: site keeps the active
    window vertices, bond the vertices touching an open window edge."""
    full = s.subgraph()
    edges = full.edges
    open_w = edges[window_mask[edges[:, 0]] & window_mask[edges[:, 1]]]
    if s.model.kind == "site":
        active_w = full.vertex_indices[window_mask[full.vertex_indices]]
    else:
        active_w = np.unique(open_w)
    return FiniteSubgraph(parent=s.window, vertex_indices=active_w,
                          edges=open_w, induced=s.model.kind == "site")


@pytest.mark.parametrize("window", ["radius", "depth"])
@pytest.mark.parametrize("kind", ["site", "bond"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 1.0])
def test_ids_window_cut_matches_reference(monkeypatch, window, kind, p):
    seen = []
    laplacian = spectra.subgraph_laplacian

    def recording_laplacian(sub, bc, tag=None):
        seen.append(sub)
        return laplacian(sub, bc, tag)

    # both operators of a sample are built by spectra's subgraph_laplacian
    monkeypatch.setattr(spectra, "subgraph_laplacian", recording_laplacian)
    model = PercolationModel(kind, p, 31)
    n = 15
    if window == "radius":
        empirical_ids(GroupSpec.free_abelian(2), model, NEUMANN, radius=3,
                      n_samples=n, energy_grid=[1.0])
    else:
        empirical_ids(GroupSpec.lamplighter(2), model, NEUMANN, depth=2,
                      n_samples=n, energy_grid=[1.0])
    # each sample builds its intrinsic window operator first, then the full one
    assert len(seen) == 2 * n
    ball = seen[0].parent
    window_mask = np.zeros(len(ball), dtype=bool)
    if window == "radius":
        window_mask[:ball.volume(3)] = True
    else:
        window_mask[tetrahedron(2, 2, ball).vertex_indices] = True
    for i, got in enumerate(seen[::2]):
        ref = window_cut_reference(sample(model, ball, i), window_mask)
        assert got.vertex_indices.dtype == ref.vertex_indices.dtype
        assert got.edges.dtype == ref.edges.dtype
        assert np.array_equal(got.vertex_indices, ref.vertex_indices)
        assert np.array_equal(got.edges, ref.edges)
        assert got.induced == ref.induced


# ---------------------------------------------------------------------------
# five-operator chain
# ---------------------------------------------------------------------------

def test_five_operator_chain_ordering():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 5)
    model = PercolationModel("site", 0.5, 8)
    grid = np.linspace(0.0, 9.0, 19)
    for i in range(5):
        s = sample(model, ball, i)
        c = five_operator_counts(s, grid, couplings=(1.0, 10.0, 100.0))
        chain = [c["neumann_extended"], c["free"], c["anderson:1"],
                 c["anderson:10"], c["anderson:100"], c["adjacency"],
                 c["dirichlet"]]
        for upper, lower in zip(chain, chain[1:]):
            assert np.all(upper >= lower - 1e-12)


# ---------------------------------------------------------------------------
# free IDS
# ---------------------------------------------------------------------------

def test_free_ids_zd_closed_points():
    assert free_ids_zd(1, 2.0).value == pytest.approx(0.5, abs=1e-12)
    for d in (1, 2, 3, 4):
        assert free_ids_zd(d, 0.0).value == 0.0
        assert free_ids_zd(d, 4.0 * d).value == 1.0
        assert free_ids_zd(d, -1.0).clamped
        assert free_ids_zd(d, 4.0 * d + 1).clamped


def test_free_ids_z2_quadrature_accuracy():
    # against the d=1 convolution: N_2(E) = integral of N_1 slices; spot
    # check with a dense Riemann sum
    E = 1.3
    thetas = np.linspace(0, np.pi, 20001)
    inner = 1.0 - (E - 2 * (1 - np.cos(thetas))) / 2.0
    vals = np.arccos(np.clip(inner, -1, 1))
    riemann = np.trapezoid(vals, thetas) / np.pi ** 2
    got = free_ids_zd(2, E)
    assert got.value == pytest.approx(riemann, abs=1e-5)
    assert got.error <= 1e-6


def test_free_ids_mc_dims():
    v3 = free_ids_zd(3, 6.0)
    assert v3.method == "monte-carlo"
    assert 0.3 < v3.value < 0.7
    assert v3.error < 0.01


def test_free_ids_ball_converges_to_torus_value_z():
    grid = np.array([0.5, 1.0, 2.0, 3.0, 3.5])
    res = free_ids_ball(GroupSpec.free_abelian(1), 100, grid,
                        trace_radii=[25, 50, 100])
    exact = np.array([free_ids_zd(1, e).value for e in grid])
    assert np.all(np.abs(res.values - exact) < 0.02)


def test_free_ids_ball_z_midband_value():
    res = free_ids_ball(GroupSpec.free_abelian(1), 200, np.array([2.0]),
                        trace_radii=[200])
    assert abs(res.values[0] - 0.5) <= 0.01


def test_free_ids_ball_converges_to_torus_value_z2():
    grid = np.array([1.0, 2.0, 3.0, 5.0, 7.0])
    res = free_ids_ball(GroupSpec.free_abelian(2), 40, grid,
                        trace_radii=[20, 40])
    exact = np.array([free_ids_zd(2, e).value for e in grid])
    assert np.all(np.abs(res.values - exact) < 0.02)


def test_free_ids_ball_high_energy_saturates():
    res = free_ids_ball(GroupSpec.free_abelian(2), 6, np.array([16.0]))
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)


def test_free_ids_ball_lamplighter_fast_decay():
    # desk-scale check: the ball IDS of the exponential-growth group decays
    # faster than E^3 at the tested energies
    grid = np.array([0.125, 0.25, 0.5])
    res = free_ids_ball(GroupSpec.lamplighter(2), 8, grid, trace_radii=[4, 8])
    assert np.all(res.values <= grid ** 3)


# ---------------------------------------------------------------------------
# return probabilities
# ---------------------------------------------------------------------------

def test_return_probability_values():
    assert return_probability(GroupSpec.lamplighter(2), 1).value == 0.25
    assert return_probability(GroupSpec.lamplighter(3), 1).value == pytest.approx(1 / 6)
    assert return_probability(GroupSpec.free_abelian(1), 2).value == 0.375


def test_return_probability_binomial_on_z():
    from math import comb
    for n in (1, 2, 3, 4):
        expect = comb(2 * n, n) / 4 ** n
        assert return_probability(GroupSpec.free_abelian(1), n).value == \
            pytest.approx(expect, abs=1e-14)


def test_return_probability_on_a_larger_ball():
    for spec, radius in ((GroupSpec.lamplighter(2), 6),
                         (GroupSpec.free_abelian(2), 5),
                         (GroupSpec.heisenberg(), 4)):
        ball = enumerate_ball(spec, radius)
        for n in range(1, radius + 1):
            assert return_probability(spec, n, ball=ball) == \
                return_probability(spec, n)
    with pytest.raises(ValueError, match="needs B\\(5\\)"):
        return_probability(spec, 5, ball=ball)
    with pytest.raises(ValueError, match="needs B\\(2\\)"):
        return_probability(GroupSpec.lamplighter(2), 2, ball=ball)


def test_return_probability_monotone_and_log_convex():
    vals = np.array([return_probability(GroupSpec.lamplighter(2), n).value
                     for n in range(1, 9)])
    assert np.all(np.diff(vals) < 0)
    # even-step return probabilities are log-convex (Cauchy-Schwarz)
    logs = np.log(vals)
    assert np.all(np.diff(logs, 2) >= -1e-12)


# ---------------------------------------------------------------------------
# exact line oracle
# ---------------------------------------------------------------------------

def test_line_oracle_mass_at_zero():
    for p in (0.3, 0.5):
        n0 = line_site_ids_oracle(p, np.array([0.0]), NEUMANN)[0]
        assert n0 == pytest.approx(p * (1 - p), abs=1e-12)
        # adjacency and Dirichlet operators are injective: no mass at zero
        assert line_site_ids_oracle(p, np.array([0.0]), ADJACENCY)[0] == 0.0
        assert line_site_ids_oracle(p, np.array([0.0]), DIRICHLET)[0] == 0.0


def test_line_oracle_matches_monte_carlo():
    grid = np.array([0.5, 1.0, 2.0, 3.0])
    est = empirical_ids(GroupSpec.free_abelian(1),
                        PercolationModel("site", 0.5, 99), NEUMANN,
                        radius=300, n_samples=60, energy_grid=grid)
    exact = line_site_ids_oracle(0.5, grid, NEUMANN)
    assert np.all(np.abs(est.mean - exact) <= 3 * np.maximum(est.stderr, 1e-4))


def test_line_oracle_ordering():
    grid = np.geomspace(1e-3, 3.9, 60)
    nn = line_site_ids_oracle(0.4, grid, NEUMANN)
    na = line_site_ids_oracle(0.4, grid, ADJACENCY)
    nd = line_site_ids_oracle(0.4, grid, DIRICHLET)
    assert np.all(nn >= na - 1e-15)
    assert np.all(na >= nd - 1e-15)
