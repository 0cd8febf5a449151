"""Spectra: dense solves, counting, empirical IDS, free IDS, return probability."""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.linalg import lapack
from scipy.sparse import csgraph

from percospec import cayley, operators, spectra
from percospec.cayley import (
    FiniteSubgraph,
    GroupSpec,
    enumerate_ball,
    induced_subgraph,
    is_bipartite,
    tetrahedron,
)
from percospec.errors import BudgetError, DegenerateSpectrumError, LapackError
from percospec.operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    LabeledOperator,
    anderson,
    free_laplacian,
    restrict,
    subgraph_laplacian,
)
from percospec.percolation import PercolationModel, PercolationSample, sample
from percospec.spectra import (
    COUNT_TOL,
    KERNEL_TOL,
    block_eigenvalues,
    count_below,
    empirical_ids,
    five_operator_counts,
    free_ids_ball,
    free_ids_zd,
    line_site_ids_oracle,
    lowest_nonzero,
    max_exact_return_n,
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


def _kernel_dim(vals, scale):
    """Eigenvalues within the kernel tolerance relative to ``scale``."""
    return int(np.count_nonzero(np.abs(vals) <= KERNEL_TOL * scale))


def _assert_eigenpairs(vals, op):
    """Each eigenvalue is within a residual of 1e-8 ||H|| of an eigenpair of
    a dense ``eigh``: ||H v - lambda v|| for its eigenvector v."""
    dense = op.to_dense()
    vecs = linalg.eigh(dense)[1]
    resid = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
    assert np.all(resid <= 1e-8 * max(op.inf_norm(), 1.0))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_two_site_neumann_spectrum(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    op = subgraph_laplacian(s.subgraph(), NEUMANN)
    vals = block_eigenvalues(op)
    _assert_eigenpairs(vals, op)
    assert np.allclose(vals, [0, 2], atol=1e-12)
    assert _kernel_dim(vals, op.inf_norm()) == 1


def test_path_neumann_closed_form(z_ball):
    for n in (3, 5, 8):
        s = make_site_sample(z_ball, [(j,) for j in range(-(n // 2), n - n // 2)])
        vals = block_eigenvalues(subgraph_laplacian(s.subgraph(), NEUMANN))
        assert np.allclose(vals, np.sort(path_neumann_eigenvalues(n)), atol=1e-10)


def test_bipartite_spectrum_symmetric_about_k():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 4)
    model = PercolationModel("site", 0.6, 3)
    for i in range(5):
        s = sample(model, ball, i)
        vals = block_eigenvalues(subgraph_laplacian(s.subgraph(), ADJACENCY))
        assert np.allclose(vals, np.sort(2 * ball.k - vals), atol=1e-10)


def test_dense_cap(z_ball):
    # the free Laplacian of B(8) of Z is one component of 17 vertices
    op = free_laplacian(z_ball)
    with pytest.raises(BudgetError, match="dimension 17 exceeds the dense cap 5"):
        block_eigenvalues(op, dense_cap=5)


def test_block_eigenvalues_matches_dense():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 5)
    model = PercolationModel("site", 0.5, 9)
    for i in range(5):
        s = sample(model, ball, i)
        op = subgraph_laplacian(s.subgraph(), NEUMANN)
        direct = np.linalg.eigvalsh(op.to_dense())
        assert np.allclose(block_eigenvalues(op), direct, atol=1e-10)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_below_two_site(z_ball):
    s = make_site_sample(z_ball, [(0,), (1,)])
    op = subgraph_laplacian(s.subgraph(), ADJACENCY)  # eigenvalues {1, 3}
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
            op = subgraph_laplacian(s.subgraph(), bc)
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
    op = subgraph_laplacian(
        sample(PercolationModel("site", 0.5, 3), ball, 0).subgraph(), NEUMANN)
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
    # within the cap an operator may be made dense, as the residual check does
    _assert_eigenpairs(block_eigenvalues(small, dense_cap=cap), small)


def test_block_eigenvalues_bond_all_bcs():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 5)
    model = PercolationModel("bond", 0.35, 77)
    for i in range(5):
        s = sample(model, ball, i)
        for bc in (NEUMANN, ADJACENCY, DIRICHLET):
            op = subgraph_laplacian(s.subgraph(), bc)
            assert np.allclose(block_eigenvalues(op),
                               np.linalg.eigvalsh(op.to_dense()), atol=1e-10)


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
    return LabeledOperator(index_set=op.index_set, matrix=mat,
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
            op = subgraph_laplacian(s.subgraph(), bc)
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


def test_block_eigenvalues_of_a_non_canonical_input():
    # every entry stored as two halves, plus a stored zero on each diagonal
    # position, in shuffled order within each row
    ball = enumerate_ball(GroupSpec.free_abelian(2), 4)
    rng = np.random.Generator(np.random.Philox(key=np.array([44, 0],
                                                            dtype=np.uint64)))
    for bc in (NEUMANN, ADJACENCY, DIRICHLET):
        op = subgraph_laplacian(
            sample(PercolationModel("site", 0.5, 11), ball, 0).subgraph(), bc)
        n, coo = op.dim, op.matrix.tocoo()
        diag = np.arange(n)
        rows = np.concatenate([coo.row, coo.row, diag])
        cols = np.concatenate([coo.col, coo.col, diag])
        data = np.concatenate([coo.data / 2, coo.data / 2, np.zeros(n)])
        order = rng.permutation(len(rows))
        order = order[np.argsort(rows[order], kind="stable")]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        mat = sparse.csr_matrix((data[order], cols[order], indptr), shape=(n, n))
        assert not mat.has_canonical_format and np.any(mat.data == 0)
        messy = LabeledOperator(index_set=op.index_set, matrix=mat,
                                k=op.k, bc=bc)
        assert len(np.unique(csgraph.connected_components(messy.matrix)[1])) > 1
        assert np.allclose(block_eigenvalues(messy),
                           np.linalg.eigvalsh(mat.toarray()), atol=1e-10)


def test_block_eigenvalues_dense_cap_applies_per_component():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 6)
    # clusters of sizes 3, 1 and 5 (the last one is the whole right end)
    s = make_site_sample(ball, [(-6,), (-5,), (-4,), (-2,),
                                (2,), (3,), (4,), (5,), (6,)])
    op = subgraph_laplacian(s.subgraph(), NEUMANN)
    assert np.array_equal(block_eigenvalues(op, dense_cap=5),
                          _block_eigenvalues_reference(op))
    with pytest.raises(BudgetError, match="dimension 5 exceeds the dense cap 4"):
        block_eigenvalues(op, dense_cap=4)
    with pytest.raises(BudgetError, match="dimension 13 exceeds"):
        block_eigenvalues(free_laplacian(ball), dense_cap=12)


def _shuffled(op, rng):
    """The operator with its vertices in a random order."""
    perm = rng.permutation(op.dim)
    return LabeledOperator(index_set=op.index_set[perm],
                           matrix=op.matrix[perm][:, perm],
                           k=op.k, bc=op.bc, window=op.window)


def _band_spy(monkeypatch):
    """Record (component size, reduced in band form) per band attempt."""
    attempts = []
    band = spectra._band_tridiagonal

    def spy(op, members):
        tridiagonal = band(op, members)
        attempts.append((len(members), tridiagonal is not None))
        return tridiagonal

    monkeypatch.setattr(spectra, "_band_tridiagonal", spy)
    return attempts


def _giant_operators(rng):
    """Percolation operators with clusters above the band floor, on Z and
    Z^2, in every boundary condition, and their window compressions."""
    cases = [(1, 400, "site", 0.995), (1, 400, "bond", 0.998),
             (2, 24, "bond", 0.6), (2, 24, "site", 0.8)]
    for rank, radius, kind, p in cases:
        ball = enumerate_ball(GroupSpec.free_abelian(rank), radius)
        inner = ball.volume(radius - 1)
        s = sample(PercolationModel(kind, p, int(rng.integers(1 << 30))), ball, 0)
        for bc in (NEUMANN, ADJACENCY, DIRICHLET):
            op = subgraph_laplacian(s.subgraph(), bc)
            yield op
            yield restrict(op, op.index_set[op.index_set < inner])


_BAND_TRIDIAGONAL = spectra._band_tridiagonal


def _assert_matches_a_dense_solve(vals, op):
    """Eigenvalues within 1e-12 ||H|| of a dense solve, and the same counts
    on a 1/8 grid, at integer eigenvalues and in the kernel; counted at the
    shifts instead, the same counts there, just below their reflections
    2k - shift and at the ends of both closed kernel windows, |E| <= t and
    |2k - E| <= t'.  Returns the number of integer eigenvalues checked."""
    grid = np.arange(-4, 8 * 8 + 5) / 8
    dense = np.linalg.eigvalsh(op.to_dense())
    scale = op.inf_norm()
    assert np.abs(vals - dense).max() <= 1e-12 * max(1.0, scale)
    integers = np.unique(np.round(dense[np.abs(dense - np.round(dense)) < 1e-9]))
    shifts = np.concatenate([grid, integers])
    assert np.array_equal(spectra._counts(vals, shifts),
                          spectra._counts(dense, shifts))
    assert _kernel_dim(vals, scale) == _kernel_dim(dense, scale)
    top, two_k = shifts + COUNT_TOL, 2.0 * op.k
    t, t_reflected = KERNEL_TOL * scale, KERNEL_TOL * two_k
    at = np.concatenate([top, np.nextafter(two_k - top, -np.inf),
                         np.nextafter([-t, two_k - t_reflected], -np.inf),
                         [t, two_k + t_reflected]])
    with pytest.MonkeyPatch.context() as m:
        # counted without a caller's band spy, whose attempts stay one a solve
        m.setattr(spectra, "_band_tridiagonal", _BAND_TRIDIAGONAL)
        counts = block_eigenvalues(op, shifts=at)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.searchsorted(dense, at, side="right"))
    return len(integers)


def test_band_path_matches_a_dense_solve(monkeypatch):
    """Giant Z and Z^2 clusters, in shuffled vertex order, solved in band
    form: eigenvalues within 1e-12 ||H|| of a dense solve, and the same
    counts on a 1/8 grid, at integer eigenvalues and in the kernel."""
    rng = np.random.Generator(np.random.Philox(key=np.array([71, 0],
                                                            dtype=np.uint64)))
    attempts = _band_spy(monkeypatch)
    on_eigenvalue = 0
    banded_ranks = set()
    for op in _giant_operators(rng):
        o = _shuffled(op, rng)
        before = len(attempts)
        vals = block_eigenvalues(o)
        assert attempts[before:]  # a component above the floor
        if any(banded for _, banded in attempts[before:]):
            banded_ranks.add(op.k // 2)  # k = 2 * rank on Z^d
        on_eigenvalue += _assert_matches_a_dense_solve(vals, o)
    assert on_eigenvalue
    assert banded_ranks == {1, 2}
    assert sum(banded for _, banded in attempts) > len(attempts) / 2


def _lower_band(op, members):
    """The members' lower band, ranked among themselves in their window's
    band order, as eig_banded takes it: row r holds the entries r below the
    diagonal."""
    rank = np.full(op.dim, -1)
    rank[members[np.argsort(op.window.band_rank[op.index_set[members]])]] = \
        np.arange(len(members))
    row, col = rank[op.entry_rows], rank[op.indices]
    lower = (row >= col) & (col >= 0)
    offset = row[lower] - col[lower]
    band = np.zeros((int(offset.max()) + 1, len(members)))
    band[offset, col[lower]] = op.data[lower]
    return band


def _component_width(op, members):
    """Band width of the members ranked among themselves in their window's
    band order."""
    return len(_lower_band(op, members))


def test_band_tridiagonal_eigenvalues_are_eig_banded_bit_for_bit():
    """dsterf on dsbtrd's tridiagonal form of every giant component in band
    form gives what eig_banded gives for its band, bit for bit, so a band
    component's values are those of the full band solve."""
    rng = np.random.Generator(np.random.Philox(key=np.array([74, 0],
                                                            dtype=np.uint64)))
    checked = 0
    for op in _giant_operators(rng):
        _, labels = op.components()
        for c in np.flatnonzero(np.bincount(labels) >= spectra._BAND_FLOOR):
            members = np.flatnonzero(labels == c)
            tridiagonal = spectra._band_tridiagonal(op, members)
            if tridiagonal is None:
                continue
            vals, info = lapack.dsterf(*tridiagonal)
            assert info == 0
            want = linalg.eig_banded(_lower_band(op, members), lower=True,
                                     eigvals_only=True)
            assert vals.tobytes() == want.tobytes()
            assert block_eigenvalues(restrict(op, op.index_set[members])).tobytes() \
                == want.tobytes()
            checked += 1
    assert checked >= 20


def test_sturm_counts_of_a_long_grid_hold_a_block_of_pivots():
    """A Sturm pass over 40,000 shifts of a 2000-vertex path holds
    _STURM_ROWS rows of pivots at once (41 MB), not all 2000 (640 MB), and
    counts what the closed-form spectrum gives."""
    n, shifts = 2000, np.linspace(-0.5, 4.5, 40_000)
    neumann = np.full(n, 2.0)
    neumann[[0, -1]] = 1.0
    want = np.searchsorted(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n), shifts,
                           side="right")
    tracemalloc.start()
    try:
        got = spectra._sturm_counts(neumann, -np.ones(n - 1), shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 3 * spectra._STURM_ROWS * len(shifts) * 8


def test_dsbtrd_binding_checks_its_signature_and_info(monkeypatch):
    """dsbtrd is bound only under the C signature it is called with, and a
    nonzero info raises; neither falls back to another solve."""
    with pytest.raises(LapackError, match="dsbtrd returned info -4"):
        spectra._dsbtrd()(np.zeros((5, 0)))  # kd = -1 is illegal
    monkeypatch.setattr(spectra, "_DSBTRD_SIGNATURE", "void (int *)")
    spectra._dsbtrd.cache_clear()
    try:
        with pytest.raises(LapackError, match="exports dsbtrd as b'void \\(char"):
            spectra._dsbtrd()
    finally:
        spectra._dsbtrd.cache_clear()


def test_sturm_counts_when_a_shift_hits_a_pivot():
    """Path Laplacians at the shifts 0..4, counted right though a shift hits
    a pivot exactly: the first pivot is 0 at shift 1 on the Neumann path
    (diagonal 1, 2, ..., 2, 1) and at shift 2 on the adjacency one
    (diagonal 2), and later pivots are 0 where a shift is an eigenvalue.
    The eigenvalues are 2 - 2 cos(pi j / m), and 1 - shift / 2 is cos(pi a)
    for a = 0, 1/3, 1/2, 2/3, 1, so eigenvalue j lies at or below the shift
    when j / m <= a, exactly.  Without dlaebz's pivot guard a zero pivot is
    followed by -inf, and both count.  The longer paths span several of the
    row blocks a Sturm pass holds at once."""
    shifts = np.arange(5.0)
    levels = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(1)]
    for n in [*range(2, 40), 127, 128, 129, 257, 400]:
        off = -np.ones(n - 1)
        neumann = np.full(n, 2.0)
        neumann[[0, -1]] = 1.0
        # Neumann: j = 0..n-1 over m = n; adjacency: j = 1..n over m = n + 1
        assert spectra._sturm_counts(neumann, off, shifts).tolist() == \
            [min(n, int(a * n) + 1) for a in levels]
        assert spectra._sturm_counts(np.full(n, 2.0), off, shifts).tolist() == \
            [min(n, int(a * (n + 1))) for a in levels]


def test_giant_components_inherit_the_ball_width(monkeypatch):
    """Every Z^2 component above the band floor, of random bond p = 0.6 and
    site p = 0.8 samples and their window compressions, is no wider in the
    ball's band order than the ball, and is solved in band form unless the
    band ratio sends it dense: from 16 * 26 = 416 vertices on, it never
    does."""
    attempts = _band_spy(monkeypatch)
    ball = enumerate_ball(GroupSpec.free_abelian(2), 24)
    ball_width = _component_width(free_laplacian(ball), np.arange(len(ball)))
    assert ball_width <= 26
    inner = ball.volume(23)
    giants = 0
    for kind, p in (("bond", 0.6), ("site", 0.8)):
        for i in range(3):
            s = sample(PercolationModel(kind, p, 2024 + i), ball, i)
            for bc in (NEUMANN, ADJACENCY, DIRICHLET):
                op = subgraph_laplacian(s.subgraph(), bc)
                for o in (op, restrict(op, op.index_set[op.index_set < inner])):
                    assert o.window is ball
                    _, labels = o.components()
                    before = len(attempts)
                    block_eigenvalues(o)
                    sizes = np.bincount(labels)
                    big = np.flatnonzero(sizes >= spectra._BAND_FLOOR)
                    widths = [_component_width(o, np.flatnonzero(labels == c))
                              for c in big]
                    assert max(widths, default=0) <= ball_width
                    assert attempts[before:] == [
                        (int(sizes[c]), sizes[c] >= spectra._BAND_RATIO * w)
                        for c, w in zip(big, widths)]
                    giants += len(big)
    assert giants >= 30


def test_band_order_comes_from_the_window(monkeypatch):
    """A shuffled Z segment is narrow in its window's band order and wide in
    index order: with its window it takes the band solve, without it stays
    dense."""
    rng = np.random.Generator(np.random.Philox(key=np.array([73, 0],
                                                            dtype=np.uint64)))
    attempts = _band_spy(monkeypatch)
    o = _shuffled(free_laplacian(enumerate_ball(GroupSpec.free_abelian(1), 200)), rng)
    bare = LabeledOperator(index_set=o.index_set, matrix=o.matrix,
                           k=o.k, bc=o.bc)
    assert bare.window is None
    _assert_matches_a_dense_solve(block_eigenvalues(o), o)
    assert np.array_equal(block_eigenvalues(bare), np.sort(linalg.eigvalsh(o.to_dense())))
    assert attempts == [(401, True), (401, False)]


def test_band_path_leaves_the_dense_components_bit_identical(monkeypatch):
    """With a giant cluster in band form, every other component takes the
    same dense solves as before."""
    rng = np.random.Generator(np.random.Philox(key=np.array([72, 0],
                                                            dtype=np.uint64)))
    attempts = _band_spy(monkeypatch)
    checked = 0
    for op in _giant_operators(rng):
        o = _shuffled(op, rng)
        labels = csgraph.connected_components(o.matrix, directed=False)[1]
        big = np.bincount(labels)[labels] >= spectra._BAND_FLOOR
        assert big.any()
        before = len(attempts)
        vals = block_eigenvalues(o)
        if big.all() or not all(banded for _, banded in attempts[before:]):
            continue  # nothing left dense, or everything dense
        alone = block_eigenvalues(restrict(o, o.index_set[big]))
        rest = _block_eigenvalues_reference(restrict(o, o.index_set[~big]))
        assert np.array_equal(vals, np.sort(np.concatenate([alone, rest])))
        checked += 1
    assert checked > 12


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(1), 127),   # 255 vertices: below the floor
    (GroupSpec.free_abelian(3), 8),     # 833 vertices, width 62
    (GroupSpec.lamplighter(3), 5),      # 1155 vertices, width 384
], ids=["Z1-B127", "Z3-B8", "lamplighter3-B5"])
def test_wide_or_small_components_stay_dense(monkeypatch, spec, radius):
    attempts = _band_spy(monkeypatch)
    op = free_laplacian(enumerate_ball(spec, radius))
    assert np.array_equal(block_eigenvalues(op),
                          np.sort(linalg.eigvalsh(op.to_dense())))
    assert not any(banded for _, banded in attempts)
    assert attempts == ([] if op.dim < spectra._BAND_FLOOR else [(op.dim, False)])


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(1), 128),   # 257 vertices, width 2
    (GroupSpec.free_abelian(2), 11),    # 265 vertices, width 13
], ids=["Z1-B128", "Z2-B11"])
def test_narrow_components_take_the_band_solve(monkeypatch, spec, radius):
    attempts = _band_spy(monkeypatch)
    op = free_laplacian(enumerate_ball(spec, radius))
    _assert_matches_a_dense_solve(block_eigenvalues(op), op)
    assert attempts == [(op.dim, True)]


def test_count_below_counts_eigenvalue_on_the_shift():
    # an eigenvalue exactly at E + tol is counted, also above the cap
    diag = np.array([1.0 + COUNT_TOL, 5.0])
    op = LabeledOperator(index_set=np.arange(2),
                         matrix=sparse.diags(diag, format="csr"),
                         k=2)
    for cap in (1, 2):
        assert count_below(op, 1.0, dense_cap=cap) == 1


def test_counting_function_right_continuous():
    counts = spectra._counts(np.array([0.0, 1.0, 1.0, 3.0]),
                             [-1.0, 0.0, 0.9999, 1.0, 2.0, 3.0])
    assert counts.tolist() == [0, 1, 1, 3, 3, 4]


def _segments(radius, sites):
    """Site sample of Z's B(radius) with the given sites open."""
    return make_site_sample(enumerate_ball(GroupSpec.free_abelian(1), radius),
                            [(x,) for x in sites])


# (sample, boundary conditions, band attempts): one case per return path of
# block_eigenvalues.  A segment's Dirichlet spectrum is 2 + 2 cos(pi j / n),
# so a 257-vertex one has the one integer eigenvalue 4
_READ_OUT_CASES = {
    "empty": (_segments(8, []), (NEUMANN, ADJACENCY, DIRICHLET), []),
    "lone-dense": (_segments(8, [0, 1]), (NEUMANN, ADJACENCY, DIRICHLET), []),
    "lone-band": (_segments(300, range(-128, 129)), (DIRICHLET,), [(257, True)]),
    "batched": (_segments(8, [-6, -4, -3, 0, 3, 4]), (NEUMANN, ADJACENCY, DIRICHLET),
                []),
    "band-beside-small": (_segments(300, [*range(-128, 129), 140, 142, 143]),
                          (DIRICHLET,), [(257, True)]),
    "all-isolated": (_segments(8, [-6, -4, 0, 2, 6]), (NEUMANN,), []),
}


@pytest.mark.parametrize("case", list(_READ_OUT_CASES))
def test_counts_at_the_shifts_match_a_values_reference(monkeypatch, case):
    """On every return path, block_eigenvalues at the shifts is one int64
    array, the number of eigenvalues <= each shift of a dense eigvalsh.  The
    shifts hit the integer eigenvalues exactly, their neighbouring doubles
    and +-0.0; every eigenvalue the reference puts near an integer is that
    integer, so the counts at those shifts are exact."""
    s, bcs, band = _READ_OUT_CASES[case]
    integers = np.arange(-1.0, 2 * s.window.k + 2)
    shifts = np.concatenate([integers, np.nextafter(integers, -np.inf),
                             np.nextafter(integers, np.inf), [-0.0, 0.0]])
    for bc in bcs:
        op = subgraph_laplacian(s.subgraph(), bc)
        ref = np.sort(np.linalg.eigvalsh(op.to_dense()))
        near = np.abs(ref - np.round(ref)) < 1e-9
        assert np.array_equal(ref[near], np.round(ref[near]))
        attempts = _band_spy(monkeypatch)
        counts = block_eigenvalues(op, shifts=shifts)
        monkeypatch.undo()
        assert attempts == band
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.searchsorted(ref, shifts, side="right")), bc


def test_kernel_window_is_closed_when_the_operator_is_zero():
    """Isolated Neumann vertices make the zero operator, so the kernel
    tolerance t is 0: the closed window |E| <= 0 holds every eigenvalue,
    and a half-open one, (-0, 0], none."""
    op = subgraph_laplacian(_READ_OUT_CASES["all-isolated"][0].subgraph(), NEUMANN)
    t = KERNEL_TOL * op.inf_norm()
    assert t == 0.0 and op.dim == 5
    low, high, half_open = block_eigenvalues(
        op, shifts=[spectra._just_below(-t), t, -t])
    assert high - low == op.dim
    assert high - half_open == 0


def test_ids_kernel_of_a_sample_of_isolated_sites(monkeypatch):
    """Sample 8 of Z site p = 0.3 (seed 17) has only isolated sites in
    B(40), so its Neumann operator is 0 and so is the kernel tolerance: the
    kernel row counts every site, as the values reference does."""
    ctx = _ids_context(monkeypatch, GroupSpec.free_abelian(1),
                       PercolationModel("site", 0.3, 17), {"radius": 40})
    s = sample(ctx["model"], ctx["ball"], 8)
    sub = replace(s, open_marks=s.open_marks & ctx["item_mask"]).subgraph()
    assert sub.size == 17 and not len(sub.edges)
    rows = spectra._ids_sample_task(ctx, 8)
    g = len(ctx["grid"])
    assert ctx["bcs"][0] == NEUMANN
    assert rows[2 * g] * ctx["window_size"] == sub.size
    assert np.array_equal(rows, _ids_sample_task_reference(ctx, 8))


def test_lowest_nonzero(z_ball):
    s = make_site_sample(z_ball, [(-1,), (0,), (1,)])
    assert lowest_nonzero(subgraph_laplacian(s.subgraph(), NEUMANN)) == pytest.approx(1.0)
    iso = make_site_sample(z_ball, [(0,)])
    with pytest.raises(DegenerateSpectrumError):
        lowest_nonzero(subgraph_laplacian(iso.subgraph(), NEUMANN))


def test_lowest_nonzero_single_vertex_z2():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 1)
    s = make_site_sample(ball, [(0, 0)])
    assert lowest_nonzero(subgraph_laplacian(s.subgraph(), ADJACENCY)) == pytest.approx(4.0)


def test_neumann_line_scaling(z_ball):
    # n^2 * lambda^N(L_n) is bounded (tends to pi^2 from below)
    big = enumerate_ball(GroupSpec.free_abelian(1), 40)
    for n in (4, 8, 16, 32):
        s = make_site_sample(big, [(j,) for j in range(-(n // 2), n - n // 2)])
        lam = lowest_nonzero(subgraph_laplacian(s.subgraph(), NEUMANN))
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
    free_vals = block_eigenvalues(free_laplacian(ball))
    assert np.allclose(est.mean, spectra._counts(free_vals, grid) / len(ball))
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


@pytest.mark.parametrize("window,group", [
    ({"radius": 4}, GroupSpec.free_abelian(2)),
    ({"depth": 2}, GroupSpec.lamplighter(2))])
@pytest.mark.parametrize("kind", ["site", "bond"])
def test_ids_builds_the_ball_edges_before_the_samples(monkeypatch, window, group, kind):
    # the edges ship with the ball to every worker, which builds none
    shipped = []
    real = spectra.run_indexed

    def recording(task, indices, workers, ctx):
        shipped.append("edges" in ctx["ball"].__dict__)
        return real(task, indices, workers, ctx)

    monkeypatch.setattr(spectra, "run_indexed", recording)
    empirical_ids(group, PercolationModel(kind, 0.5, 3), NEUMANN, n_samples=10,
                  energy_grid=np.linspace(0.0, 4.0, 3), **window)
    assert shipped == [True]


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
    return FiniteSubgraph(parent=s.window, vertex_indices=active_w, edges=open_w)


@pytest.mark.parametrize("window", ["radius", "depth"])
@pytest.mark.parametrize("kind", ["site", "bond"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 1.0])
def test_ids_window_cut_matches_reference(monkeypatch, window, kind, p):
    seen = []
    laplacian = spectra.subgraph_laplacian

    def recording_laplacian(sub, bc, degrees=None):
        seen.append(sub)
        return laplacian(sub, bc, degrees)

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
    # each sample builds its intrinsic window operator first, then the
    # compression, both on the one intrinsic subgraph
    assert len(seen) == 2 * n
    ball = seen[0].parent
    window_mask = np.zeros(len(ball), dtype=bool)
    if window == "radius":
        window_mask[:ball.volume(3)] = True
    else:
        window_mask[ball.find_vertices(tetrahedron(2, 2).parent)] = True
    for i, (got, comp) in enumerate(zip(seen[::2], seen[1::2])):
        s = sample(model, ball, i)
        ref = window_cut_reference(s, window_mask)
        assert comp is got
        assert got.vertex_indices.dtype == ref.vertex_indices.dtype
        assert got.edges.dtype == ref.edges.dtype
        assert np.array_equal(got.vertex_indices, ref.vertex_indices)
        assert np.array_equal(got.edges, ref.edges)
        if kind == "site":
            assert np.array_equal(
                got.edges, induced_subgraph(ball, got.vertex_indices).edges)


def _ids_context(monkeypatch, group, model, window,
                 bcs=(NEUMANN, ADJACENCY, DIRICHLET)):
    """The per-sample context empirical_ids hands to its sample task."""
    seen = []
    run = spectra.run_indexed

    def recording(task, indices, workers, ctx):
        seen.append(ctx)
        return run(task, indices, workers, ctx)

    monkeypatch.setattr(spectra, "run_indexed", recording)
    empirical_ids(group, model, list(bcs), n_samples=10,
                  energy_grid=np.arange(0, 8 * group.k + 1) / 4, **window)
    monkeypatch.setattr(spectra, "run_indexed", run)
    return seen[0]


def ball_tetrahedron_reference(m, n, ball):
    """The former tetrahedron lookup: every lamp pattern on {1, ..., n} at
    every walker position 0..n, as rows of ``ball``, found among its
    vertices."""
    layout = ball.layout
    width = len(layout.lo)
    cols = np.arange(1, n + 1) - layout.first_pos
    rows = np.zeros((m ** n, n + 1, width), dtype=np.int64)
    rows[:, :, cols] = (np.arange(m ** n)[:, None]
                        // m ** np.arange(n)[::-1] % m)[:, None, :]
    rows[:, :, -1] = np.arange(n + 1)
    idx = ball.find_rows(rows)
    assert np.all(idx >= 0)
    return idx


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_ids_depth_window_is_the_ball_tetrahedron(monkeypatch, m, n):
    ctx = _ids_context(monkeypatch, GroupSpec.lamplighter(m),
                       PercolationModel("site", 0.5, 3), {"depth": n})
    ball = ctx["ball"]
    assert ball.radius == 2 * n + 1
    want = np.zeros(len(ball), dtype=bool)
    want[ball_tetrahedron_reference(m, n, ball)] = True
    assert np.array_equal(ctx["window_mask"], want)
    assert ctx["window_size"] == (n + 1) * m ** n


def test_ids_depth_window_outside_the_ball():
    # steps of two never reach odd walker positions
    group = GroupSpec.lamplighter(2, [((), 2), ((), -2), (((0, 1),), 0)])
    with pytest.raises(ValueError, match="misses part of the depth-2"):
        empirical_ids(group, PercolationModel("site", 0.5, 3), NEUMANN,
                      depth=2, n_samples=10, energy_grid=[1.0])


def _ids_sample_task_reference(ctx, i):
    """The sample task before the adjacency and Dirichlet shortcuts: both
    operators of every boundary condition solved, each on its own."""
    s = sample(ctx["model"], ctx["ball"], i)
    sub_int = replace(s, open_marks=s.open_marks & ctx["item_mask"]).subgraph()
    sub_big = s.subgraph()
    subset = sub_big.vertex_indices[ctx["window_mask"][sub_big.vertex_indices]]
    rows = []
    for bc in ctx["bcs"]:
        op_int = subgraph_laplacian(sub_int, bc)
        vals_int = block_eigenvalues(op_int, ctx["dense_cap"])
        op_comp = restrict(subgraph_laplacian(sub_big, bc), subset)
        vals_comp = block_eigenvalues(op_comp, ctx["dense_cap"])
        rows += [np.searchsorted(vals_int, ctx["grid"] + COUNT_TOL, side="right"),
                 np.searchsorted(vals_comp, ctx["grid"] + COUNT_TOL, side="right"),
                 [_kernel_dim(vals_int, op_int.inf_norm())]]
    return np.concatenate(rows) / ctx["window_size"]


_SHORTCUT_WINDOWS = [
    (GroupSpec.free_abelian(1), {"radius": 40}),
    (GroupSpec.free_abelian(2), {"radius": 5}),
    (GroupSpec.heisenberg(), {"radius": 3}),
    (GroupSpec.lamplighter(2), {"radius": 3}),
    (GroupSpec.lamplighter(2), {"depth": 2}),
]
_SHORTCUT_IDS = ["Z1", "Z2", "heisenberg", "lamplighter2", "lamplighter2-depth"]


def _compressions(monkeypatch, ctx, i):
    """{bc: (intrinsic, compression)}, the operators the sample task hands
    block_eigenvalues for Neumann and Dirichlet, each solved directly."""
    seen = []
    solve = spectra.block_eigenvalues

    def recording(op, *args):
        seen.append(op)
        return solve(op, *args)

    monkeypatch.setattr(spectra, "block_eigenvalues", recording)
    spectra._ids_sample_task({**ctx, "source": {bc: bc for bc in ctx["bcs"]}}, i)
    monkeypatch.setattr(spectra, "block_eigenvalues", solve)
    # per boundary condition the intrinsic operator is solved first
    return {bc: tuple(op for op in seen if op.bc == bc)
            for bc in (NEUMANN, DIRICHLET)}


@pytest.mark.parametrize("group,window", _SHORTCUT_WINDOWS + [
    (GroupSpec.free_abelian(1, [(1,), (-1,), (2,), (-2,)]), {"radius": 20}),
    (GroupSpec.lamplighter(3), {"radius": 2})],
    ids=_SHORTCUT_IDS + ["Z-steps-1-2", "lamplighter3"])
@pytest.mark.parametrize("kind", ["site", "bond"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.9, 1.0])
def test_adjacency_compression_is_the_intrinsic_operator(monkeypatch, group,
                                                        window, kind, p):
    """The compression of the full sample onto the window is its principal
    submatrix on the active window vertices.  On the intrinsic vertices it
    is the intrinsic subgraph's Laplacian with the full sample's degrees,
    which the sample task builds for Neumann and Dirichlet on the intrinsic
    subgraph itself, sharing its labels; for adjacency it is the intrinsic
    operator, whose spectrum the task reads.  Every other window vertex
    (bond only) holds its diagonal entry alone, the eigenvalue the task
    appends.  The task's rows equal those of solving the submatrix."""
    ctx = _ids_context(monkeypatch, group, PercolationModel(kind, p, 17),
                        window)
    k = group.k
    isolated = 0
    for i in range(10):
        s = sample(ctx["model"], ctx["ball"], i)
        sub_int = replace(s, open_marks=s.open_marks
                          & ctx["item_mask"]).subgraph()
        sub_big = s.subgraph()
        subset = sub_big.vertex_indices[
            ctx["window_mask"][sub_big.vertex_indices]]
        degree = np.bincount(s.open_edges().ravel(),
                             minlength=len(ctx["ball"]))[subset]
        others = np.flatnonzero(~np.isin(subset, sub_int.vertex_indices))
        isolated += len(others)
        if kind == "site":
            assert not len(others)
        solved = _compressions(monkeypatch, ctx, i)
        solved[ADJACENCY] = (None, subgraph_laplacian(sub_int, ADJACENCY))
        for bc, (op_int, got) in solved.items():
            comp = restrict(subgraph_laplacian(sub_big, bc), subset).matrix
            diagonal = {ADJACENCY: np.full_like(degree, k), NEUMANN: degree,
                        DIRICHLET: 2 * k - degree}[bc]
            for r in others:
                lo, hi = comp.indptr[r], comp.indptr[r + 1]
                assert comp.indices[lo:hi].tolist() == [r]
                assert comp.data[lo:hi].tolist() == [float(diagonal[r])]
            want = restrict(subgraph_laplacian(sub_big, bc),
                            sub_int.vertex_indices)
            for field in ("index_set", "indptr", "indices", "data"):
                have, ref = getattr(got, field), getattr(want, field)
                assert have.dtype == ref.dtype and np.array_equal(have, ref), \
                    (bc, field)
            assert got.components()[0] == want.components()[0]
            assert np.array_equal(got.components()[1], want.components()[1])
            if op_int is not None:
                assert got.components() is op_int.components()
        assert np.array_equal(spectra._ids_sample_task(ctx, i),
                              _ids_sample_task_reference(ctx, i))
    if kind == "bond" and 0 < p < 0.9:
        assert isolated


@pytest.mark.parametrize("kind,p", [("site", 0.5), ("bond", 0.9)])
def test_ids_sample_builds_and_labels_one_subgraph(monkeypatch, kind, p):
    """Every sample builds one FiniteSubgraph, its intrinsic one, and labels
    it once for all its operators.  On Z^2 B(2) at bond p = 0.9 the
    intrinsic subgraph is often one dense component beside window vertices
    whose open edges all leave the window; those samples' rows still equal
    the full-sample reference."""
    ctx = _ids_context(monkeypatch, GroupSpec.free_abelian(2),
                       PercolationModel(kind, p, 4242), {"radius": 2})
    built, labelled = [], []
    post_init = FiniteSubgraph.__post_init__
    label = cayley.connected_components

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_label(*args):
        labelled.append(args)
        return label(*args)

    lone_with_isolated = 0
    for i in range(40):
        with monkeypatch.context() as patch:
            patch.setattr(FiniteSubgraph, "__post_init__", counted_post_init)
            patch.setattr(cayley, "connected_components", counted_label)
            patch.setattr(operators, "connected_components", counted_label)
            rows = spectra._ids_sample_task(ctx, i)
        assert len(built) == len(labelled) == 1, i
        sub_int = built.pop()
        labelled.pop()
        active = sample(ctx["model"], ctx["ball"], i).active_vertices()
        extra = np.count_nonzero(ctx["window_mask"][active]) - sub_int.size
        if kind == "site":
            assert extra == 0
        lone_with_isolated += sub_int.connected and extra > 0
        assert np.array_equal(rows, _ids_sample_task_reference(ctx, i))
    if kind == "bond":
        assert lone_with_isolated


def _count_solves(monkeypatch):
    """(function name, boundary condition) of every subgraph_laplacian and
    block_eigenvalues call spectra makes from now on."""
    calls = []
    for name in ("subgraph_laplacian", "block_eigenvalues"):
        original = getattr(spectra, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            # the operator built, or the operator solved
            calls.append((_name, (out if _name == "subgraph_laplacian"
                                  else args[0]).bc))
            return out

        monkeypatch.setattr(spectra, name, counted)
    return calls


def test_adjacency_compression_is_not_solved(monkeypatch):
    """Two operators and two solves per sample for Neumann, which on the
    bipartite Z^2 also serves Dirichlet, and one of each for the adjacency
    one; each sample builds its subgraph once, from the window's items."""
    calls = _count_solves(monkeypatch)
    subgraphs = []
    subgraph = PercolationSample.subgraph

    def counted_subgraph(self):
        subgraphs.append(self.sample_index)
        return subgraph(self)

    monkeypatch.setattr(PercolationSample, "subgraph", counted_subgraph)
    est = empirical_ids(GroupSpec.free_abelian(2),
                        PercolationModel("bond", 0.6, 5),
                        [NEUMANN, ADJACENCY, DIRICHLET], radius=4,
                        n_samples=10, energy_grid=[1.0])
    assert Counter(calls) == {
        ("subgraph_laplacian", NEUMANN): 20, ("block_eigenvalues", NEUMANN): 20,
        ("subgraph_laplacian", ADJACENCY): 10,
        ("block_eigenvalues", ADJACENCY): 10}
    assert subgraphs == list(range(10))
    assert {bc: e.solve for bc, e in est.items()} == {
        NEUMANN: "direct", ADJACENCY: "direct",
        DIRICHLET: "reflected from neumann"}


# every non-empty ordered list of distinct boundary conditions
_BC_LISTS = [list(order) for r in (1, 2, 3)
             for order in permutations([NEUMANN, ADJACENCY, DIRICHLET], r)]


@pytest.mark.parametrize("group,window", _SHORTCUT_WINDOWS, ids=_SHORTCUT_IDS)
@pytest.mark.parametrize("kind", ["site", "bond"])
def test_dirichlet_read_off_neumann_matches_the_direct_solves(
        monkeypatch, group, window, kind):
    """On these bipartite balls the sample task reads the Dirichlet rows off
    the Neumann solves, for every list of boundary conditions in every
    order; its rows equal those of solving each one on its own."""
    model = PercolationModel(kind, 0.6, 23)
    for bcs in _BC_LISTS:
        ctx = _ids_context(monkeypatch, group, model, window, bcs)
        assert ctx["source"] == {bc: NEUMANN if bc == DIRICHLET else bc
                                 for bc in bcs}
        calls = _count_solves(monkeypatch)
        for i in range(10):
            assert np.array_equal(spectra._ids_sample_task(ctx, i),
                                  _ids_sample_task_reference(ctx, i)), (bcs, i)
        monkeypatch.undo()
        solved = {bc for _, bc in calls}
        assert DIRICHLET not in solved
        assert (NEUMANN in solved) == bool({NEUMANN, DIRICHLET} & set(bcs))


def test_non_bipartite_generators_solve_dirichlet_directly(monkeypatch):
    """Z with steps +-1 and +-2 has triangles, so Dirichlet is not the
    reflected Neumann spectrum there and is solved on its own."""
    group = GroupSpec.free_abelian(1, [(1,), (-1,), (2,), (-2,)])
    model = PercolationModel("bond", 0.6, 23)
    for bcs in ([DIRICHLET], [NEUMANN, ADJACENCY, DIRICHLET]):
        ctx = _ids_context(monkeypatch, group, model, {"radius": 30}, bcs)
        assert ctx["source"] == {bc: bc for bc in bcs}
        calls = _count_solves(monkeypatch)
        for i in range(10):
            assert np.array_equal(spectra._ids_sample_task(ctx, i),
                                  _ids_sample_task_reference(ctx, i))
        monkeypatch.undo()
        assert Counter(calls)[("block_eigenvalues", DIRICHLET)] == 20
        assert Counter(calls)[("subgraph_laplacian", DIRICHLET)] == 20
        assert Counter(calls)[("block_eigenvalues", NEUMANN)] == \
            (20 if NEUMANN in bcs else 0)
    est = empirical_ids(group, model, DIRICHLET, radius=30, n_samples=10,
                        energy_grid=[1.0])
    assert est.solve == "direct"


@pytest.mark.parametrize("group,window,kind,p,dirichlet_source", [
    (GroupSpec.free_abelian(2), {"radius": 24}, "site", 0.8, NEUMANN),
    (GroupSpec.free_abelian(1), {"radius": 400}, "bond", 0.998, NEUMANN),
    (GroupSpec.free_abelian(1, [(1,), (-1,), (2,), (-2,)]), {"radius": 200},
     "site", 0.95, DIRICHLET),
], ids=["Z2-site", "Z-bond", "Z-steps-1-2-site"])
def test_counted_band_rows_match_a_values_reference(monkeypatch, group, window,
                                                    kind, p, dirichlet_source):
    """Sample rows whose giant clusters are counted at the shifts, never
    diagonalised, equal the reference's, which solves every operator of
    every boundary condition for its values, over several seeds, on
    band-heavy configs no digest pins.  On Z with steps +-1 and +-2 the
    Dirichlet giants are counted directly, not reflected."""
    for seed in (5, 6):
        ctx = _ids_context(monkeypatch, group, PercolationModel(kind, p, seed),
                           window)
        counted = []
        band = spectra._band_tridiagonal

        def spy(op, members):
            tridiagonal = band(op, members)
            if tridiagonal is not None:
                counted.append(op.bc)
            return tridiagonal

        for i in range(3):
            with monkeypatch.context() as m:
                m.setattr(spectra, "_band_tridiagonal", spy)
                rows = spectra._ids_sample_task(ctx, i)
            assert np.array_equal(rows, _ids_sample_task_reference(ctx, i))
        assert ctx["source"][DIRICHLET] == dirichlet_source
        # every boundary condition the task solves had a giant in band form
        assert set(counted) == set(ctx["source"].values())


def _values_only(op, dense_cap=spectra.DENSE_CAP, shifts=None):
    """block_eigenvalues with every eigenvalue computed, and the counts at
    the shifts read off them."""
    vals = block_eigenvalues(op, dense_cap)
    return vals if shifts is None else np.searchsorted(vals, shifts, side="right")


def test_counts_take_no_tridiagonal_eigensolve(monkeypatch):
    """count_below and five_operator_counts count band components at their
    shifts and never compute their eigenvalues, and their counts equal
    those read off every eigenvalue."""
    ball = enumerate_ball(GroupSpec.free_abelian(1), 300)
    s = sample(PercolationModel("site", 0.995, 9), ball, 0)
    grid = np.arange(-4, 4 * 8 + 5) / 8
    free = block_eigenvalues(free_laplacian(ball))
    ops = [subgraph_laplacian(s.subgraph(), bc)
           for bc in (NEUMANN, ADJACENCY, DIRICHLET)]
    with monkeypatch.context() as m:
        m.setattr(spectra, "block_eigenvalues", _values_only)
        want = five_operator_counts(s, grid, [0.5, 2.0], free)
        want_below = [[count_below(op, e) for e in grid] for op in ops]
    attempts = _band_spy(monkeypatch)

    def refuse(d, e):
        raise AssertionError("a count diagonalised a band component")

    monkeypatch.setattr(spectra, "_tridiagonal_eigenvalues", refuse)
    got = five_operator_counts(s, grid, [0.5, 2.0], free)
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    assert [[count_below(op, e) for e in grid] for op in ops] == want_below
    # a giant in each of the four operators five_operator_counts solves
    # (Dirichlet is reflected) and in each count_below call
    assert all(banded for _, banded in attempts)
    assert len(attempts) >= 4 + 3 * len(grid)


@pytest.mark.parametrize("group,radius", [
    (GroupSpec.free_abelian(1), 30), (GroupSpec.free_abelian(2), 5),
    (GroupSpec.free_abelian(3), 3), (GroupSpec.heisenberg(), 3),
    (GroupSpec.lamplighter(2), 4), (GroupSpec.lamplighter(3), 3)])
@pytest.mark.parametrize("kind", ["site", "bond"])
def test_dirichlet_spectrum_is_the_reflected_neumann_one(group, radius, kind):
    """On random subgraphs of a bipartite ball, and on random principal
    submatrices of their operators, each Dirichlet eigenvalue is 2k minus
    a Neumann one."""
    ball = enumerate_ball(group, radius)
    assert is_bipartite(ball)
    rng = np.random.default_rng(radius)
    for i in range(6):
        sub = sample(PercolationModel(kind, rng.uniform(0.3, 0.9), 41),
                     ball, i).subgraph()
        keep = sub.vertex_indices[rng.random(sub.size) < 0.7]
        ops = {bc: subgraph_laplacian(sub, bc) for bc in (NEUMANN, DIRICHLET)}
        for part in (None, keep):
            neu, dir_ = (np.linalg.eigvalsh((op if part is None
                                             else restrict(op, part)).to_dense())
                         for op in ops.values())
            assert np.allclose(dir_, (2.0 * group.k - neu)[::-1],
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# five-operator chain
# ---------------------------------------------------------------------------

def test_five_operator_chain_ordering():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 5)
    model = PercolationModel("site", 0.5, 8)
    grid = np.linspace(0.0, 9.0, 19)
    free = block_eigenvalues(free_laplacian(ball))
    for i in range(5):
        s = sample(model, ball, i)
        c = five_operator_counts(s, grid, (1.0, 10.0, 100.0), free)
        chain = [c["neumann_extended"], c["free"], c["anderson:1"],
                 c["anderson:10"], c["anderson:100"], c["adjacency"],
                 c["dirichlet"]]
        for upper, lower in zip(chain, chain[1:]):
            assert np.all(upper >= lower - 1e-12)


def _zero_extended(op, n):
    """``op`` on window indices 0 .. n - 1, with zero rows and columns off
    its index set: the zero extension, built with scipy."""
    coo = op.matrix.tocoo()
    return LabeledOperator(np.arange(n), sparse.csr_matrix(
        (coo.data, (op.index_set[coo.row], op.index_set[coo.col])), shape=(n, n)),
        k=op.k)


def five_operator_counts_reference(s, grid, couplings, free):
    """The chain with every sample operator solved on its own: the
    zero-extended Neumann operator built, and the Dirichlet one solved.
    ``free`` is the free window spectrum, solved once per window."""
    window, norm = s.window, float(len(s.window))
    sub = s.subgraph()

    def counts(op):
        return spectra._counts(block_eigenvalues(op), grid) / norm

    out = {"neumann_extended": counts(_zero_extended(
        subgraph_laplacian(sub, NEUMANN), len(window))),
        "free": spectra._counts(free, grid) / norm}
    for lam in couplings:
        out[f"anderson:{lam:g}"] = counts(anderson(s, window, lam))
    for bc in (ADJACENCY, DIRICHLET):
        out[bc] = counts(subgraph_laplacian(sub, bc))
    return out


@pytest.mark.parametrize("group,radius", [
    (GroupSpec.free_abelian(2), 5), (GroupSpec.heisenberg(), 3),
    (GroupSpec.free_abelian(1, [(1,), (-1,), (2,), (-2,)]), 12)],
    ids=["Z2", "heisenberg", "Z-steps-1-2"])
def test_five_operator_counts_match_the_direct_solves(monkeypatch, group,
                                                      radius):
    """One Neumann solve gives the extended Neumann and, on a bipartite
    window, the Dirichlet counts; the rows equal those of solving both."""
    ball = enumerate_ball(group, radius)
    grid = np.linspace(-1.0, 2.0 * group.k + 1.0, 4 * group.k + 5)
    bipartite = is_bipartite(ball)
    free = block_eigenvalues(free_laplacian(ball))
    for p in (0.0, 0.3, 0.6, 1.0):
        for i in range(4):
            s = sample(PercolationModel("site", p, 8), ball, i)
            calls = _count_solves(monkeypatch)
            got = five_operator_counts(s, grid, (1.0, 10.0), free)
            monkeypatch.undo()
            want = five_operator_counts_reference(s, grid, (1.0, 10.0), free)
            assert list(got) == list(want)
            for name in want:
                assert np.array_equal(got[name], want[name]), (p, i, name)
            solved = Counter(bc for name, bc in calls
                             if name == "block_eigenvalues")
            assert solved[NEUMANN] == 1
            assert solved[DIRICHLET] == (0 if bipartite else 1)


# ---------------------------------------------------------------------------
# free IDS
# ---------------------------------------------------------------------------

def test_free_ids_zd_closed_points():
    assert free_ids_zd(1, 2.0).value == pytest.approx(0.5, abs=1e-12)
    for d in (1, 2, 3, 4):
        assert free_ids_zd(d, 0.0).value == 0.0
        assert free_ids_zd(d, 4.0 * d).value == 1.0
        assert free_ids_zd(d, -1.0).method == "clamped"
        assert free_ids_zd(d, 4.0 * d + 1).method == "clamped"


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
    assert v3.method == "quadrature"
    assert 0.3 < v3.value < 0.7
    assert v3.error < 0.01


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_free_ids_zd_small_energy_law(d):
    # N_d(E) ~ omega_d E^(d/2) / (2 pi)^d, omega_d the unit ball's volume;
    # the next term is O(E) relative
    E = 1e-3
    omega = np.pi ** (d / 2) / math.gamma(d / 2 + 1)
    law = omega * E ** (d / 2) / (2 * np.pi) ** d
    assert free_ids_zd(d, E).value == pytest.approx(law, rel=1e-3)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_free_ids_zd_symmetry_and_error(d):
    # E -> 4d - E maps the spectrum onto itself (theta -> pi - theta)
    grid = 4.0 * d * (np.arange(40) + 0.5) / 40
    vals = [free_ids_zd(d, float(e)) for e in grid]
    mirror = [free_ids_zd(d, float(4 * d - e)).value for e in grid]
    assert all(v.method == "quadrature" and v.error <= 1e-6 for v in vals)
    assert np.allclose([v.value for v in vals], 1.0 - np.array(mirror),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_free_ids_zd_beside_its_kinks(d):
    # the van Hove points 4j, where N_d is not smooth: the value must stay
    # monotone, below the refusal, and match a rule with twice the nodes
    eps = np.geomspace(1e-10, 1e-1, 10)
    grid = np.sort(np.concatenate([4 * j + s * eps for j in range(d + 1)
                                   for s in (-1, 1)]))
    grid = grid[(grid > 0) & (grid < 4 * d)]
    vals = [free_ids_zd(d, float(e)) for e in grid]
    values = np.array([v.value for v in vals])
    assert max(v.error for v in vals) <= 1e-6
    assert np.all(np.diff(values) >= 0)
    s, w = np.polynomial.legendre.leggauss(2 * spectra._GAUSS_NODES)
    finer = [float(spectra._free_ids_rule(d, np.array(e), (s + 1) / 2, w))
             for e in grid]
    assert np.max(np.abs(values - finer)) <= 1e-8


@pytest.mark.parametrize("E", [1.0, 3.0, 6.0, 9.0])
def test_free_ids_z3_matches_monte_carlo(E):
    # the fraction of uniform momenta in the torus with
    # sum_i 2(1 - cos theta_i) <= E, on 400,000 points
    n = 400_000
    gen = np.random.Generator(np.random.Philox(key=np.array([20240, 3],
                                                            dtype=np.uint64)))
    theta = gen.random((n, 3)) * np.pi
    mc = np.mean((2.0 * (1.0 - np.cos(theta))).sum(axis=1) <= E)
    sigma = np.sqrt(mc * (1 - mc) / n)
    assert abs(free_ids_zd(3, E).value - mc) <= 4 * sigma


def test_free_ids_ball_converges_to_torus_value_z():
    grid = np.array([0.5, 1.0, 2.0, 3.0, 3.5])
    res = free_ids_ball(enumerate_ball(GroupSpec.free_abelian(1), 100), grid,
                        trace_radii=[25, 50, 100])
    exact = np.array([free_ids_zd(1, e).value for e in grid])
    assert np.all(np.abs(res.values - exact) < 0.02)


def test_free_ids_ball_z_midband_value():
    res = free_ids_ball(enumerate_ball(GroupSpec.free_abelian(1), 200),
                        np.array([2.0]), trace_radii=[200])
    assert abs(res.values[0] - 0.5) <= 0.01


def test_free_ids_ball_converges_to_torus_value_z2():
    grid = np.array([1.0, 2.0, 3.0, 5.0, 7.0])
    res = free_ids_ball(enumerate_ball(GroupSpec.free_abelian(2), 40), grid,
                        trace_radii=[20, 40])
    exact = np.array([free_ids_zd(2, e).value for e in grid])
    assert np.all(np.abs(res.values - exact) < 0.02)


def test_free_ids_ball_high_energy_saturates():
    res = free_ids_ball(enumerate_ball(GroupSpec.free_abelian(2), 6),
                        np.array([16.0]))
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)


def test_free_ids_ball_lamplighter_fast_decay():
    # desk-scale check: the ball IDS of the exponential-growth group decays
    # faster than E^3 at the tested energies
    grid = np.array([0.125, 0.25, 0.5])
    res = free_ids_ball(enumerate_ball(GroupSpec.lamplighter(2), 8), grid,
                        trace_radii=[4, 8])
    assert np.all(res.values <= grid ** 3)


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(2), 5), (GroupSpec.heisenberg(), 3),
    (GroupSpec.lamplighter(2), 5)])
def test_free_ids_ball_trace_matches_per_radius_balls(spec, radius):
    # reference: each B(r) solved on its own induced subgraph
    grid = np.array([0.5, 1.0, 2.0, 3.0])
    ball = enumerate_ball(spec, radius)
    res = free_ids_ball(ball, grid, trace_radii=range(radius + 1))
    assert [r for r, _ in res.trace] == list(range(radius + 1))
    for r, vals in res.trace:
        sub = induced_subgraph(ball, ball.ball_indices(r))
        ev, vecs = linalg.eigh(subgraph_laplacian(sub, ADJACENCY).to_dense())
        want = np.array([(vecs[0, :] ** 2)[ev <= e + COUNT_TOL].sum()
                         for e in grid])
        assert np.array_equal(vals, want), r
    assert np.array_equal(res.values, res.trace[-1][1])


def test_free_ids_ball_over_the_cap_raises_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(linalg, "eigh", no_solve)
    # B(2) of Z^2 has 13 vertices and fits; B(3) has 25 and does not
    with pytest.raises(BudgetError, match=r"^ball B\(3\) has 25 vertices, above "
                                          r"the dense cap 13$"):
        free_ids_ball(enumerate_ball(GroupSpec.free_abelian(2), 3), [1.0],
                      trace_radii=[2], dense_cap=13)


# ---------------------------------------------------------------------------
# return probabilities
# ---------------------------------------------------------------------------

def walk_return(spec, n):
    return return_probability(enumerate_ball(spec, n), n)


def test_return_probability_values():
    assert walk_return(GroupSpec.lamplighter(2), 1).value == 0.25
    assert walk_return(GroupSpec.lamplighter(3), 1).value == pytest.approx(1 / 6)
    assert walk_return(GroupSpec.free_abelian(1), 2).value == 0.375


def test_return_probability_binomial_on_z():
    from math import comb
    for n in (1, 2, 3, 4):
        expect = comb(2 * n, n) / 4 ** n
        assert walk_return(GroupSpec.free_abelian(1), n).value == \
            pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("rank,limit", [(1, 52), (2, 26)])
def test_return_probability_exact_up_to_the_limit(rank, limit):
    # every bit, past the old 2n-step limits of 26 on Z and 13 on Z^2: the
    # closed-walk count is comb(2n, n)^rank out of (2 rank)^(2n)
    from math import comb
    spec = GroupSpec.free_abelian(rank)
    assert max_exact_return_n(spec) == limit
    ball = enumerate_ball(spec, limit)
    for n in range(1, limit + 1):
        assert return_probability(ball, n).value == \
            comb(2 * n, n) ** rank / (4 ** rank) ** n, n
    with pytest.raises(ValueError, match="overflow"):
        return_probability(enumerate_ball(spec, limit + 1), limit + 1)


def full_walk_return(ball, n):
    """Reference: the (identity, identity) entry of A^(2n), 2n float steps."""
    size = ball.volume(n)
    u, v = ball.edges[ball.edges[:, 1] < size].T
    vec = np.zeros(size)
    vec[0] = 1.0
    for _ in range(2 * n):
        vec = np.bincount(u, vec[v], size) + np.bincount(v, vec[u], size)
    return float(vec[0] / ball.spec.k ** (2 * n))


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(3), 8), (GroupSpec.heisenberg(), 8),
    (GroupSpec.lamplighter(2), 8), (GroupSpec.lamplighter(3), 6)])
def test_return_probability_matches_the_full_walk(spec, radius):
    # n steps and a sum of squares give the same bits as 2n steps
    ball = enumerate_ball(spec, radius)
    for n in range(1, radius + 1):
        assert return_probability(ball, n).value == full_walk_return(ball, n), n


def test_return_probability_on_a_larger_ball():
    for spec, radius in ((GroupSpec.lamplighter(2), 6),
                         (GroupSpec.free_abelian(2), 5),
                         (GroupSpec.heisenberg(), 4)):
        ball = enumerate_ball(spec, radius)
        for n in range(1, radius + 1):
            assert return_probability(ball, n) == walk_return(spec, n)
    with pytest.raises(ValueError, match="need 1 <= n <= 4"):
        return_probability(ball, 5)
    with pytest.raises(ValueError, match="need 1 <= n <= 4"):
        return_probability(ball, 0)


def test_return_probability_monotone_and_log_convex():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 8)
    vals = np.array([return_probability(ball, n).value for n in range(1, 9)])
    assert np.all(np.diff(vals) < 0)
    # even-step return probabilities are log-convex (Cauchy-Schwarz)
    logs = np.log(vals)
    assert np.all(np.diff(logs, 2) >= -1e-12)


# ---------------------------------------------------------------------------
# exact line oracle
# ---------------------------------------------------------------------------

def test_line_dirichlet_closed_form_matches_a_dense_solve():
    # the s-site segment's Dirichlet Laplacian: 4 - degree on the diagonal
    for s in range(1, 151):
        degree = np.full(s, 2.0)
        degree[0] -= 1.0
        degree[-1] -= 1.0
        dense = np.diag(4.0 - degree) - np.eye(s, k=1) - np.eye(s, k=-1)
        got = np.sort(spectra._line_cluster_eigenvalues(s, DIRICHLET))
        assert np.allclose(got, np.linalg.eigvalsh(dense), rtol=0, atol=1e-13)


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
