"""Operator assembly: closed forms, trace identities, orderings, symmetries."""

import numpy as np
import pytest
from scipy import sparse

from percospec.bounds import _certificate
from percospec.cayley import (
    GroupSpec,
    enumerate_ball,
    induced_subgraph,
    multiply,
    tetrahedron,
)
from percospec.errors import UnsupportedModelError
from percospec.operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    LabeledOperator,
    anderson,
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
    assert (op.k, op.bc) == (ball.k, ADJACENCY)


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
    # the boundary potential k - d of the active set
    w = np.diag(z_ball.k - s.subgraph().degrees())
    assert np.array_equal(d, a + w)
    assert np.array_equal(n, a - w)


def test_isolated_site_z2(z2_ball):
    s = make_site_sample(z2_ball, [(0, 0)])
    assert percolation_laplacian(s, NEUMANN).to_dense().tolist() == [[0.0]]
    assert percolation_laplacian(s, ADJACENCY).to_dense().tolist() == [[4.0]]
    assert percolation_laplacian(s, DIRICHLET).to_dense().tolist() == [[8.0]]


def test_dirichlet_plus_neumann_is_twice_adjacency(z2_ball):
    model = PercolationModel("site", 0.55, 42)
    for i in range(10):
        s = sample(model, z2_ball, i)
        n = percolation_laplacian(s, NEUMANN)
        a = percolation_laplacian(s, ADJACENCY)
        d = percolation_laplacian(s, DIRICHLET)
        assert (d.matrix + n.matrix - 2 * a.matrix).nnz == 0
        w = sparse.diags(z2_ball.k - s.subgraph().degrees(), dtype=np.float64)
        assert abs(d.matrix - a.matrix - w).nnz == 0


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
                             k=2)
        pos = {int(w): r for r, w in enumerate(index_set)}
        wanted = rng.choice(index_set, size=2 * n)
        assert op.local_of(wanted).tolist() == [pos[int(w)] for w in wanted]
        assert op.local_of(int(index_set[-1])).tolist() == [n - 1]


def test_local_of_names_missing_index():
    op = LabeledOperator(index_set=[7, 3, 5], matrix=sparse.eye(3, format="csr"),
                         k=2)
    for wanted, missing in (([3, 4, 9], 4), ([9], 9), ([-1], -1)):
        with pytest.raises(ValueError,
                           match=f"^window index {missing} not in the operator "
                                 "index set$"):
            op.local_of(wanted)
    empty = LabeledOperator(index_set=[], matrix=sparse.csr_matrix((0, 0)),
                            k=2)
    assert empty.local_of([]).tolist() == []
    with pytest.raises(ValueError, match="window index 0 not in"):
        empty.local_of([0])


def test_every_builder_carries_its_window(z2_ball):
    s = sample(PercolationModel("site", 0.5, 5), z2_ball, 0)
    op = percolation_laplacian(s, NEUMANN)
    ops = [op, subgraph_laplacian(induced_subgraph(z2_ball, [0, 1, 2]), ADJACENCY),
           free_laplacian(z2_ball), anderson(s, z2_ball, 1.0),
           extend(op, z2_ball, 10.0), restrict(op, op.index_set[:5])]
    assert all(o.window is z2_ball for o in ops)
    bare = LabeledOperator(index_set=[0, 1], matrix=sparse.eye(2, format="csr"),
                           k=4)
    assert bare.window is None and restrict(bare, [1]).window is None


# ---------------------------------------------------------------------------
# bipartite reflection
# ---------------------------------------------------------------------------

def test_neumann_dirichlet_reflection(z2_ball):
    model = PercolationModel("site", 0.5, 6)
    for i in range(8):
        s = sample(model, z2_ball, i)
        n = percolation_laplacian(s, NEUMANN)
        d = percolation_laplacian(s, DIRICHLET)
        evn = np.linalg.eigvalsh(n.to_dense())
        evd = np.linalg.eigvalsh(d.to_dense())
        assert np.allclose(evn, np.sort(2 * z2_ball.k - evd), atol=1e-10)


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
# canonical form
# ---------------------------------------------------------------------------
# References: each constructor as it was written before the canonical form,
# with its own sparse idiom and its own sort_indices repair.

def _ref_assemble(n, local_edges, diag):
    rows, cols, data = [], [], []
    if len(local_edges):
        u, v = local_edges[:, 0], local_edges[:, 1]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = -np.ones(2 * len(local_edges))
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    mat = mat + sparse.diags(diag.astype(np.float64), format="csr", shape=(n, n))
    mat.sort_indices()
    return mat


def _ref_laplacian(sub, bc):
    k, degrees = sub.parent.k, sub.degrees()
    diag = {ADJACENCY: np.full(len(degrees), k, dtype=np.float64),
            DIRICHLET: 2.0 * k - degrees,
            NEUMANN: degrees.astype(np.float64)}[bc]
    return _ref_assemble(sub.size, sub.local_edges(), diag)


def _ref_free(window):
    return _ref_laplacian(induced_subgraph(window, np.arange(len(window))),
                          ADJACENCY)


def _ref_extend(op, n, K):
    deleted = np.setdiff1d(np.arange(n, dtype=np.int64), op.index_set)
    coo = op.matrix.tocoo()
    rows, cols, data = op.index_set[coo.row], op.index_set[coo.col], coo.data
    if len(deleted) and K != 0.0:
        rows = np.concatenate([rows, deleted])
        cols = np.concatenate([cols, deleted])
        data = np.concatenate([data, np.full(len(deleted), float(K))])
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    mat.sort_indices()
    return mat


def _ref_anderson(s, window, coupling):
    closed = (~s.open_marks).astype(np.float64) * coupling
    mat = (_ref_free(window) + sparse.diags(closed, format="csr")).tocsr()
    mat.sort_indices()
    return mat


def _ref_restrict(op, subset):
    positions = op.local_of(subset)
    mat = op.matrix[positions][:, positions].tocsr()
    mat.sort_indices()
    return mat


def _assert_canonical(mat):
    assert isinstance(mat, sparse.csr_matrix) and mat.dtype == np.float64
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    # strictly increasing columns in each row: sorted, one entry per position
    assert np.all(np.diff(mat.indices)[rows[1:] == rows[:-1]] > 0)
    assert np.all(mat.data != 0)


def _assert_same_csr(got, want):
    _assert_canonical(got)
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(1), 12), (GroupSpec.free_abelian(2), 5),
    (GroupSpec.heisenberg(), 3), (GroupSpec.lamplighter(2), 4)],
    ids=["Z1", "Z2", "heisenberg", "lamplighter2"])
def test_constructors_are_canonical_and_equal_the_reference(spec, radius):
    rng = np.random.Generator(np.random.Philox(key=np.array([909, radius],
                                                            dtype=np.uint64)))
    ball = enumerate_ball(spec, radius)
    n = len(ball)
    _assert_same_csr(free_laplacian(ball).matrix, _ref_free(ball))
    for i in range(10):
        kind = ("site", "bond")[i % 2]
        # p = 0 and p = 1 once each: the empty and the full active set
        p = {0: 0.0, 3: 1.0}.get(i, float(rng.uniform(0.2, 0.8)))
        s = sample(PercolationModel(kind, p, int(rng.integers(1 << 30))), ball, i)
        sub = s.subgraph()
        for bc in (ADJACENCY, DIRICHLET, NEUMANN):
            op = subgraph_laplacian(sub, bc)
            _assert_same_csr(op.matrix, _ref_laplacian(sub, bc))
            _assert_same_csr(percolation_laplacian(s, bc).matrix, op.matrix)
            for K in (0.0, 9.0):
                _assert_same_csr(extend(op, ball, K, check_separation=False).matrix,
                                 _ref_extend(op, n, K))
            subset = rng.permutation(op.index_set)[:op.dim // 2]
            _assert_same_csr(restrict(op, subset).matrix,
                             _ref_restrict(op, subset))
        if kind == "site":
            for coupling in (0.0, 1.5, 10.0):
                _assert_same_csr(anderson(s, ball, coupling).matrix,
                                 _ref_anderson(s, ball, coupling))


def _non_canonical():
    """A 4 x 4 CSR with unsorted columns, a duplicate, an explicit zero and
    a pair that cancels to zero."""
    data = np.array([3.0, -1.0, 0.5, 0.5, 0.0, -1.0, 2.0, 1.0, 4.0, -1.0])
    indices = np.array([1, 0, 0, 2, 1, 0, 3, 2, 3, 2], dtype=np.int32)
    indptr = np.array([0, 4, 6, 7, 10], dtype=np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(4, 4))


def test_non_canonical_input_becomes_a_canonical_copy():
    for mat in (_non_canonical(), _non_canonical().tocoo(),
                sparse.csr_matrix(_non_canonical().toarray().astype(np.int64))):
        before = mat.copy()
        dense = mat.toarray()
        op = LabeledOperator(index_set=np.arange(4), matrix=mat,
                             k=2)
        assert op.matrix is not mat
        _assert_canonical(op.matrix)
        assert np.array_equal(op.to_dense(), dense)
        # the caller's matrix is left as it was
        assert type(mat) is type(before)
        if sparse.isspmatrix_csr(mat):
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(mat, attr), getattr(before, attr))
        else:
            for attr in ("row", "col", "data"):
                assert np.array_equal(getattr(mat, attr), getattr(before, attr))
    # (0, 0) sums -1 + 0.5; the stored zero at (1, 1) and the cancelling
    # pair at (3, 2) go
    op = LabeledOperator(index_set=np.arange(4), matrix=_non_canonical(),
                         k=2)
    assert op.matrix.indptr.tolist() == [0, 3, 4, 5, 6]
    assert op.matrix.indices.tolist() == [0, 1, 2, 0, 3, 3]
    assert op.matrix.data.tolist() == [-0.5, 3.0, 0.5, -1.0, 2.0, 4.0]


def test_canonical_input_is_kept():
    mat = sparse.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    op = LabeledOperator(index_set=np.arange(2), matrix=mat, k=2)
    assert op.matrix is mat


# ---------------------------------------------------------------------------
# numpy builders against the scipy construction they replace
# ---------------------------------------------------------------------------
# Each reference is the scipy code the numpy builder replaced, followed by
# the canonicalisation LabeledOperator applies to a matrix passed in.

def _scipy_canonical(mat):
    mat = sparse.csr_matrix(mat, dtype=np.float64, copy=True)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def _scipy_assemble(n, edges, potential):
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    diag = np.broadcast_to(np.asarray(potential, dtype=np.float64), (n,))
    on = np.flatnonzero(diag)
    return _scipy_canonical(sparse.csr_matrix(
        (np.concatenate([np.full(2 * len(u), -1.0), diag[on]]),
         (np.concatenate([u, v, on]), np.concatenate([v, u, on]))), shape=(n, n)))


def _scipy_restrict(op, subset):
    positions = op.local_of(subset)
    return _scipy_canonical(op.matrix[positions][:, positions])


def _scipy_extend(op, n, K):
    deleted = np.setdiff1d(np.arange(n, dtype=np.int64), op.index_set)
    coo = op.matrix.tocoo()
    return _scipy_canonical(sparse.csr_matrix(
        (np.concatenate([coo.data, np.full(len(deleted), float(K))]),
         (np.concatenate([op.index_set[coo.row], deleted]),
          np.concatenate([op.index_set[coo.col], deleted]))), shape=(n, n)))


def _assert_same_arrays(op, want):
    """The operator's arrays and its ``matrix`` both equal ``want``."""
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(op, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    _assert_same_csr(op.matrix, want)


def test_numpy_builders_equal_the_scipy_construction():
    from percospec.operators import _assemble

    rng = np.random.Generator(np.random.Philox(key=np.array([313, 0],
                                                            dtype=np.uint64)))
    # potentials whose sums with the edges' -1 entries are exact, so the
    # order in which scipy adds a loop's entries cannot show
    levels = np.array([0.0, 0.0, 1.0, 2.0, 3.5, -0.25, 4.0])
    for trial in range(60):
        n = int(rng.integers(0, 40))
        m = int(rng.integers(0, 3 * n + 1))
        # repeats and, when trial is odd, loops
        edges = rng.integers(0, max(n, 1), size=(m if n else 0, 2))
        if trial % 2 == 0:
            edges = edges[edges[:, 0] != edges[:, 1]]
        potential = levels[rng.integers(0, len(levels), size=n)]
        got, want = _assemble(n, edges, potential), _scipy_assemble(n, edges, potential)
        index_set = rng.permutation(3 * n)[:n]
        op = LabeledOperator(index_set=index_set, matrix=got, k=4)
        _assert_same_arrays(op, want)
        # restriction to a subset in any order
        for size in {0, n // 2, n}:
            subset = rng.permutation(index_set)[:size]
            _assert_same_arrays(restrict(op, subset), _scipy_restrict(op, subset))
        # extension to a window of 3n vertices; extend reads only its length
        for K in (0.0, 9.0, 0.1):
            ext = extend(op, range(3 * n), K, check_separation=False)
            _assert_same_arrays(ext, _scipy_extend(op, 3 * n, K))


# ---------------------------------------------------------------------------
# the numpy product: scipy's CSR product, bit for bit
# ---------------------------------------------------------------------------

def test_matvec_is_the_scipy_product_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(key=np.array([43, 0], dtype=np.uint64)))
    empty_rows = 0
    for _ in range(200):
        n = int(rng.integers(1, 60))
        mat = sparse.random(n, n, density=rng.uniform(0.0, 0.4), format="csr",
                            random_state=int(rng.integers(2 ** 31)))
        op = LabeledOperator(np.arange(n), mat * 10.0 ** rng.uniform(-3, 3), k=4)
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
        empty_rows += int(np.sum(np.diff(op.indptr) == 0))
        assert op.matvec(x).tobytes() == (op.matrix @ x).tobytes()
    assert empty_rows > 0


@pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (2, 8), (5, 4), (4, 5)])
def test_matvec_on_tetrahedra_is_the_scipy_product_bit_for_bit(m, n):
    tet = tetrahedron(m, n)
    op = subgraph_laplacian(tet, ADJACENCY)
    rng = np.random.Generator(np.random.Philox(key=np.array([m, n], dtype=np.uint64)))
    for x in (_certificate(tet, n), rng.normal(size=op.dim)):
        assert op.matvec(x).tobytes() == (op.matrix @ x).tobytes()
