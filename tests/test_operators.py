"""Operator assembly: closed forms, trace identities, orderings, symmetries."""

import io

import numpy as np
import pytest
from scipy import sparse

from percospec.cayley import (
    GroupSpec,
    enumerate_ball,
    induced_subgraph,
    is_bipartite,
    multiply,
)
from percospec.errors import UnsupportedModelError
from percospec.operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    LabeledOperator,
    anderson,
    bipartite_conjugate,
    boundary_potential,
    export_matrix,
    extend,
    free_laplacian,
    percolation_laplacian,
    restrict,
    subgraph_laplacian,
)
from percospec.percolation import PercolationModel, sample


def make_site_sample(window, open_elements, p=0.5, seed=0):
    s = sample(PercolationModel("site", p, seed), window, 0)
    marks = np.zeros(len(window), dtype=bool)
    for el in open_elements:
        marks[window.index_of(el)] = True
    s.open_marks = marks
    return s


@pytest.fixture(scope="module")
def z_ball():
    return enumerate_ball(GroupSpec.free_abelian(1), 6)


@pytest.fixture(scope="module")
def z2_ball():
    return enumerate_ball(GroupSpec.free_abelian(2), 5)


# ---------------------------------------------------------------------------
# free Laplacian
# ---------------------------------------------------------------------------

def test_free_laplacian_on_z_segment():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 1)
    op = free_laplacian(ball)
    dense = op.to_dense()
    assert np.array_equal(np.diag(dense), [2, 2, 2])
    assert dense.sum() == 2 * 3 - 2 * 2  # off-diagonal -1 per edge, twice


def test_free_laplacian_single_vertex_z2():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 0)
    op = free_laplacian(ball)
    assert op.to_dense().tolist() == [[4.0]]


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(1), 0), (GroupSpec.free_abelian(2), 4),
    (GroupSpec.free_abelian(3), 2), (GroupSpec.heisenberg(), 3),
    (GroupSpec.lamplighter(2), 4), (GroupSpec.lamplighter(3), 3)])
def test_free_laplacian_matches_direct_assembly(spec, radius):
    from percospec.operators import _assemble

    ball = enumerate_ball(spec, radius)
    n = len(ball)
    expect = _assemble(n, ball.edges, np.full(n, ball.k, dtype=np.float64))
    op = free_laplacian(ball)
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(op.matrix, attr), getattr(expect, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert op.matrix.shape == (n, n)
    assert np.array_equal(op.index_set, np.arange(n))
    assert (op.tag, op.k, op.bc) == ("free", ball.k, ADJACENCY)


def test_free_laplacian_row_sums(z2_ball):
    # row sum = k - number of neighbors inside the window
    op = free_laplacian(z2_ball)
    rowsums = np.asarray(op.matrix.sum(axis=1)).ravel()
    deg = np.zeros(len(z2_ball))
    for u, v in z2_ball.edges:
        deg[u] += 1
        deg[v] += 1
    assert np.array_equal(rowsums, z2_ball.k - deg)


# ---------------------------------------------------------------------------
# percolation Laplacians
# ---------------------------------------------------------------------------

def test_two_site_cluster_matrices(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    n = percolation_laplacian(s, NEUMANN).to_dense()
    a = percolation_laplacian(s, ADJACENCY).to_dense()
    d = percolation_laplacian(s, DIRICHLET).to_dense()
    assert np.array_equal(n, [[1, -1], [-1, 1]])
    assert np.array_equal(a, [[2, -1], [-1, 2]])
    assert np.array_equal(d, [[3, -1], [-1, 3]])
    assert np.allclose(np.linalg.eigvalsh(n), [0, 2])
    assert np.allclose(np.linalg.eigvalsh(a), [1, 3])
    assert np.allclose(np.linalg.eigvalsh(d), [2, 4])
    w = boundary_potential(s).to_dense()
    assert np.array_equal(d, a + w)
    assert np.array_equal(n, a - w)


def test_isolated_site_z2(z2_ball):
    s = make_site_sample(z2_ball, [(0, 0)])
    assert percolation_laplacian(s, NEUMANN).to_dense().tolist() == [[0.0]]
    assert percolation_laplacian(s, ADJACENCY).to_dense().tolist() == [[4.0]]
    assert percolation_laplacian(s, DIRICHLET).to_dense().tolist() == [[8.0]]
    assert boundary_potential(s).to_dense().tolist() == [[4.0]]


def test_dirichlet_plus_neumann_is_twice_adjacency(z2_ball):
    model = PercolationModel("site", 0.55, 42)
    for i in range(10):
        s = sample(model, z2_ball, i)
        n = percolation_laplacian(s, NEUMANN)
        a = percolation_laplacian(s, ADJACENCY)
        d = percolation_laplacian(s, DIRICHLET)
        assert (d.matrix + n.matrix - 2 * a.matrix).nnz == 0
        w = boundary_potential(s)
        assert abs(d.matrix - a.matrix - w.matrix).nnz == 0


def test_empty_active_set(z2_ball):
    s = make_site_sample(z2_ball, [])
    op = percolation_laplacian(s, NEUMANN)
    assert op.dim == 0


def test_trace_identities(z2_ball):
    # Tr A = k|V'|, Tr N = 2|E'|, Tr D = 2k|V'| - 2|E'|, all exact integers
    for kind, p in (("site", 0.6), ("bond", 0.45)):
        model = PercolationModel(kind, p, 7)
        for i in range(10):
            s = sample(model, z2_ball, i)
            nv = len(s.active_vertices())
            ne = len(s.open_edges())
            k = z2_ball.k
            assert percolation_laplacian(s, ADJACENCY).trace() == k * nv
            assert percolation_laplacian(s, NEUMANN).trace() == 2 * ne
            assert percolation_laplacian(s, DIRICHLET).trace() == 2 * k * nv - 2 * ne


def test_form_ordering_eigenvalues(z2_ball):
    model = PercolationModel("site", 0.5, 13)
    for i in range(15):
        s = sample(model, z2_ball, i)
        ev = {bc: np.linalg.eigvalsh(percolation_laplacian(s, bc).to_dense())
              for bc in (NEUMANN, ADJACENCY, DIRICHLET)}
        assert np.all(ev[NEUMANN] <= ev[ADJACENCY] + 1e-10)
        assert np.all(ev[ADJACENCY] <= ev[DIRICHLET] + 1e-10)
        assert np.all(ev[NEUMANN] >= -1e-10)
        assert np.all(ev[DIRICHLET] <= 2 * z2_ball.k + 1e-10)


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_extend_empty_active_set(z_ball):
    window = enumerate_ball(GroupSpec.free_abelian(1), 2)
    s = make_site_sample(window, [])
    op = percolation_laplacian(s, NEUMANN)
    ext = extend(op, window, K=9.0)
    assert np.allclose(np.linalg.eigvalsh(ext.to_dense()), [9] * 5)


def test_extend_two_site_cluster():
    window = enumerate_ball(GroupSpec.free_abelian(1), 2)
    s = make_site_sample(window, [(0,), (1,)])
    op = percolation_laplacian(s, NEUMANN)
    ext = extend(op, window, K=5.0)
    assert np.allclose(np.linalg.eigvalsh(ext.to_dense()), [0, 2, 5, 5, 5])


def test_extend_warns_inside_band():
    window = enumerate_ball(GroupSpec.free_abelian(1), 2)
    s = make_site_sample(window, [(0,), (1,)])
    op = percolation_laplacian(s, NEUMANN)
    with pytest.warns(UserWarning, match="K=0"):
        extend(op, window, K=0.0)


def test_neumann_zero_extension_kernel(z2_ball):
    # kernel of the zero-extended Neumann operator counts deleted vertices
    # plus finite clusters
    from percospec.percolation import decompose
    model = PercolationModel("site", 0.5, 3)
    for i in range(5):
        s = sample(model, z2_ball, i)
        op = percolation_laplacian(s, NEUMANN)
        ext = extend(op, z2_ball, K=0.0, check_separation=False)
        ev = np.linalg.eigvalsh(ext.to_dense())
        kernel = int((np.abs(ev) <= 1e-9 * max(ext.inf_norm(), 1)).sum())
        dec = decompose(s)
        deleted = len(z2_ball) - len(dec.active)
        assert kernel == deleted + dec.cluster_count


# ---------------------------------------------------------------------------
# Anderson Hamiltonian
# ---------------------------------------------------------------------------

def test_anderson_zero_coupling(z2_ball):
    s = sample(PercolationModel("site", 0.5, 5), z2_ball, 0)
    op = anderson(s, z2_ball, 0.0)
    assert abs(op.matrix - free_laplacian(z2_ball).matrix).nnz == 0


def test_anderson_all_closed(z2_ball):
    s = make_site_sample(z2_ball, [])
    op = anderson(s, z2_ball, 10.0)
    expect = free_laplacian(z2_ball).to_dense() + 10 * np.eye(len(z2_ball))
    assert np.array_equal(op.to_dense(), expect)


def test_anderson_monotone_in_coupling(z2_ball):
    s = sample(PercolationModel("site", 0.5, 5), z2_ball, 1)
    prev = np.linalg.eigvalsh(anderson(s, z2_ball, 1.0).to_dense())
    for lam in (10.0, 100.0):
        cur = np.linalg.eigvalsh(anderson(s, z2_ball, lam).to_dense())
        assert np.all(cur >= prev - 1e-10)
        prev = cur


def test_anderson_rejects_bond(z2_ball):
    s = sample(PercolationModel("bond", 0.5, 5), z2_ball, 0)
    with pytest.raises(UnsupportedModelError):
        anderson(s, z2_ball, 1.0)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_free_z(z_ball):
    op = free_laplacian(z_ball)
    sub = restrict(op, [0])
    assert sub.to_dense().tolist() == [[2.0]]


def test_restrict_identity(z2_ball):
    s = sample(PercolationModel("site", 0.6, 9), z2_ball, 0)
    op = percolation_laplacian(s, ADJACENCY)
    again = restrict(op, op.index_set)
    assert abs(op.matrix - again.matrix).nnz == 0


def test_restrict_free_equals_adjacency_laplacian(z2_ball):
    subset = z2_ball.ball_indices(3)
    restricted = restrict(free_laplacian(z2_ball), subset)
    intrinsic = subgraph_laplacian(induced_subgraph(z2_ball, subset), ADJACENCY)
    assert abs(restricted.matrix - intrinsic.matrix).nnz == 0


def test_restrict_outside_raises(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    op = percolation_laplacian(s, ADJACENCY)
    with pytest.raises(ValueError):
        restrict(op, [z_ball.index_of((3,))])


def test_local_of_matches_dict_reference():
    rng = np.random.Generator(np.random.Philox(key=np.array([12, 0],
                                                            dtype=np.uint64)))
    for n in (1, 2, 17, 300):
        index_set = rng.permutation(3 * n)[:n]
        op = LabeledOperator(index_set=index_set, matrix=sparse.eye(n, format="csr"),
                             tag="synthetic", k=2)
        pos = {int(w): r for r, w in enumerate(index_set)}
        wanted = rng.choice(index_set, size=2 * n)
        assert op.local_of(wanted).tolist() == [pos[int(w)] for w in wanted]
        assert op.local_of(int(index_set[-1])).tolist() == [n - 1]


def test_local_of_names_missing_index():
    op = LabeledOperator(index_set=[7, 3, 5], matrix=sparse.eye(3, format="csr"),
                         tag="synthetic", k=2)
    for wanted, missing in (([3, 4, 9], 4), ([9], 9), ([-1], -1)):
        with pytest.raises(ValueError,
                           match=f"^window index {missing} not in the operator "
                                 "index set$"):
            op.local_of(wanted)
    empty = LabeledOperator(index_set=[], matrix=sparse.csr_matrix((0, 0)),
                            tag="synthetic", k=2)
    assert empty.local_of([]).tolist() == []
    with pytest.raises(ValueError, match="window index 0 not in"):
        empty.local_of([0])


# ---------------------------------------------------------------------------
# bipartite conjugation
# ---------------------------------------------------------------------------

def test_diagonal_operator_fixed_point(z2_ball):
    s = sample(PercolationModel("site", 0.5, 2), z2_ball, 0)
    w = boundary_potential(s)
    colors = is_bipartite(z2_ball).coloring
    conj = bipartite_conjugate(w, colors)
    assert abs(conj.matrix - w.matrix).nnz == 0


def test_two_site_conjugation_identity(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    a = percolation_laplacian(s, ADJACENCY)
    colors = is_bipartite(z_ball).coloring
    conj = bipartite_conjugate(a, colors)
    # 2k*I - U A U = A for the adjacency Laplacian of a bipartite subgraph
    lhs = 2 * z_ball.k * np.eye(2) - conj.to_dense()
    assert np.array_equal(lhs, a.to_dense())
    assert np.array_equal(lhs, [[2, -1], [-1, 2]])


def test_neumann_dirichlet_reflection(z2_ball):
    colors = is_bipartite(z2_ball).coloring
    model = PercolationModel("site", 0.5, 6)
    for i in range(8):
        s = sample(model, z2_ball, i)
        n = percolation_laplacian(s, NEUMANN)
        d = percolation_laplacian(s, DIRICHLET)
        evn = np.linalg.eigvalsh(n.to_dense())
        evd = np.linalg.eigvalsh(d.to_dense())
        assert np.allclose(evn, np.sort(2 * z2_ball.k - evd), atol=1e-10)


def test_invalid_coloring_rejected(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    a = percolation_laplacian(s, ADJACENCY)
    bad = np.ones(len(z_ball), dtype=np.int64)
    with pytest.raises(ValueError, match="not proper"):
        bipartite_conjugate(a, bad)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def test_translation_equivariance():
    spec = GroupSpec.free_abelian(2)
    small = enumerate_ball(spec, 4)
    big = enumerate_ball(spec, 5)
    gamma = (1, 0)
    model = PercolationModel("site", 0.5, 17)
    for i in range(5):
        s = sample(model, small, i)
        marks_big = np.zeros(len(big), dtype=bool)
        for v_idx in np.flatnonzero(s.open_marks):
            moved = multiply(spec, gamma, small.vertices[v_idx])
            marks_big[big.index_of(moved)] = True
        s_t = sample(model, big, i)
        s_t.open_marks = marks_big
        for bc in (ADJACENCY, DIRICHLET, NEUMANN):
            ev_a = np.linalg.eigvalsh(percolation_laplacian(s, bc).to_dense())
            ev_b = np.linalg.eigvalsh(percolation_laplacian(s_t, bc).to_dense())
            assert np.allclose(ev_a, ev_b, atol=1e-10)


# ---------------------------------------------------------------------------
# band splitting
# ---------------------------------------------------------------------------

def test_anderson_band_gap_on_z():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 8)
    model = PercolationModel("site", 0.5, 23)
    lam, eps = 20.0, 0.5
    for i in range(10):
        s = sample(model, ball, i)
        ev = np.linalg.eigvalsh(anderson(s, ball, lam).to_dense())
        in_gap = (ev > 4 + eps) & (ev < lam - eps)
        assert not np.any(in_gap)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_matrix_export(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    op = percolation_laplacian(s, ADJACENCY)
    buf = io.StringIO()
    export_matrix(op, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# n=2 sym=1 tag=perc:adjacency"
    assert lines[1:] == ["0 0 2", "0 1 -1", "1 1 2"]
