"""Sparse symmetric Hamiltonians over indexed vertex sets.

All operators are built from the same per-subgraph data: for a subgraph G'
of a k-regular graph with degree function d, the adjacency Laplacian is
k*I - A, the Dirichlet Laplacian 2k*I - D - A, and the Neumann Laplacian
D - A.  They differ by the boundary potential W = k*I - D, which is
supported on the inner vertex boundary.  Entries are integers stored in
float64, so trace identities hold exactly.

The builders are the subgraph Laplacians, the free window Laplacian, the
two-valued-potential Hamiltonian and the principal submatrix (``restrict``).
Each takes a simple graph's distinct, loop-free edges, as a Cayley graph of
distinct non-identity generators has them, and raises on a repeat.
Operators are numpy CSR arrays built without scipy, labelled into components
by ``cayley.connected_components`` and multiplied by ``LabeledOperator.matvec``.
The scipy ``.matrix`` is built on demand; it and ``restrict`` are the tests'
references, and no run reads either.
Each builder records the ball it indexes as the operator's ``window``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from .cayley import CayleyBall, FiniteSubgraph, connected_components, locate
from .errors import UnsupportedModelError
from .percolation import SITE, PercolationSample

ADJACENCY = "adjacency"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"


class LabeledOperator:
    """Sparse symmetric matrix over an ordered subset of window vertices.

    Stored as CSR arrays ``indptr``, ``indices``, ``data`` in canonical form:
    float64, one entry per position, sorted columns, no stored zeros.  A
    ``matrix`` other than the builders' ``_CSR`` is kept if it is a canonical
    scipy ``csr_matrix``, else copied to one; ``matrix`` is built on first use,
    as the tests' scipy reference: the package multiplies by :meth:`matvec`.
    ``window`` is the ball whose vertices ``index_set`` indexes, or None; its
    ``band_rank`` orders the band reductions (``spectra._band_tridiagonal``).
    """

    def __init__(self, index_set, matrix, k: int, bc: str | None = None,
                 window: CayleyBall | None = None):
        self.index_set = np.asarray(index_set, dtype=np.int64)
        self.k, self.bc, self.window = k, bc, window
        self._subgraph = None
        if not isinstance(matrix, _CSR):
            from scipy import sparse

            if not (isinstance(matrix, sparse.csr_matrix) and matrix.dtype == np.float64
                    and matrix.has_canonical_format and matrix.data.all()):
                matrix = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
                matrix.sum_duplicates()
                matrix.eliminate_zeros()
            self.matrix = matrix
        self.indptr, self.indices, self.data = matrix.indptr, matrix.indices, matrix.data

    @cached_property
    def matrix(self):
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr),
                                 shape=(self.dim, self.dim))

    @property
    def dim(self) -> int:
        return len(self.index_set)

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    def components(self) -> tuple:
        """``(count, labels)`` of the graph of the off-diagonal entries; a
        subgraph's Laplacian reads the subgraph's cached labels."""
        if self._subgraph is not None:
            return self._subgraph.components()
        return connected_components(self.dim, np.stack([self.entry_rows, self.indices], 1))

    def matvec(self, x) -> np.ndarray:
        """The product with a vector, in numpy, bit for bit ``matrix @ x``.

        scipy's ``csr_matvec`` sums each row from 0 in stored order, so this
        adds one stored slot of every row at a time: slot j of each row that
        has more than j entries.  ``np.add.reduceat`` sums in another order
        and can differ in the last bits.
        """
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.dim)
        starts, counts = self.indptr[:-1], np.diff(self.indptr)
        for j in range(int(counts.max(initial=0))):
            rows = np.flatnonzero(counts > j)
            at = starts[rows] + j
            out[rows] += self.data[at] * x[self.indices[at]]
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        out[self.entry_rows, self.indices] = self.data
        return out

    def inf_norm(self) -> float:
        """Max row sum of absolute entries; the scale for kernel tolerances."""
        starts = self.indptr[:-1][np.diff(self.indptr) > 0]
        return float(np.add.reduceat(np.abs(self.data), starts).max(initial=0.0))

    def local_of(self, window_indices) -> np.ndarray:
        """Positions of the given window indices inside ``index_set``."""
        wanted = np.atleast_1d(np.asarray(window_indices, dtype=np.int64))
        found, at = locate(self.index_set, wanted)
        if not found.all():
            raise ValueError(f"window index {wanted[np.argmin(found)]} not in "
                             "the operator index set")
        return at


_CSR = namedtuple("_CSR", "indptr indices data")


def _sorted_csr(n: int, row, col, data) -> _CSR:
    """Canonical CSR of nonzero entries at distinct positions in row-major
    order; indices are int32 where they fit, as in scipy."""
    index = np.int32 if max(n, len(data)) < 2 ** 31 else np.int64
    indptr = np.r_[0, np.cumsum(np.bincount(row, minlength=n))].astype(index)
    return _CSR(indptr, col.astype(index), data)


def _assemble(n: int, edges, potential) -> _CSR:
    """-A + V of a simple graph: -1 at both positions of each edge, and the
    potential on the diagonal where it is nonzero.  The edges must be
    distinct and loop-free: after the one sort of the positions, a repeated
    position (a repeated edge, one given in both orientations, or a loop)
    raises ``ValueError``."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    diag = np.broadcast_to(np.asarray(potential, dtype=np.float64), (n,))
    pos = np.concatenate([u * n + v, v * n + u, np.flatnonzero(diag) * (n + 1)])
    pos.sort()
    repeat = np.flatnonzero(pos[1:] == pos[:-1])
    if len(repeat):
        a, b = divmod(int(pos[repeat[0]]), n)
        raise ValueError(f"edge ({a}, {b}) is repeated or a loop; operators are "
                         "built from a simple graph's distinct, loop-free edges")
    row, col = np.divmod(pos, max(n, 1))
    del pos
    data = np.full(len(row), -1.0)
    loop = np.flatnonzero(row == col)
    data[loop] = diag[row[loop]]
    return _sorted_csr(n, row, col, data)


def _diag_for(bc: str, k: int, degrees: np.ndarray):
    if bc == ADJACENCY:
        return k
    if bc == DIRICHLET:
        return 2.0 * k - degrees
    if bc == NEUMANN:
        return degrees.astype(np.float64)
    raise ValueError(f"unknown boundary condition {bc!r}")


def subgraph_laplacian(sub: FiniteSubgraph, bc: str, degrees=None) -> LabeledOperator:
    """Laplacian of a finite subgraph under the given boundary condition,
    with D the given ``degrees`` of its vertices, by default their own."""
    if degrees is None:
        degrees = sub.degrees()
    mat = _assemble(sub.size, sub.local_edges(),
                    _diag_for(bc, sub.parent.k, degrees))
    op = LabeledOperator(index_set=sub.vertex_indices, matrix=mat,
                         k=sub.parent.k, bc=bc, window=sub.parent)
    op._subgraph = sub
    return op


def free_laplacian(window: CayleyBall) -> LabeledOperator:
    """k*I - A on the whole window.

    The adjacency Laplacian of the subgraph the window induces on all of
    its vertices, which is also the compression of the full-graph
    Laplacian to the window.
    """
    n = len(window)
    return LabeledOperator(index_set=np.arange(n), k=window.k, bc=ADJACENCY,
                           matrix=_assemble(n, window.edges, window.k), window=window)


def anderson(sample: PercolationSample, window: CayleyBall,
             coupling: float) -> LabeledOperator:
    """Window Laplacian plus coupling * indicator of closed sites.

    Only defined for the site model, where the potential is 1 on closed and
    0 on open sites.
    """
    if sample.model.kind != SITE:
        raise UnsupportedModelError("the two-valued potential is site based")
    if coupling < 0:
        raise ValueError("coupling must be >= 0")
    n = len(window)
    potential = window.k + (~sample.open_marks).astype(np.float64) * coupling
    return LabeledOperator(index_set=np.arange(n),
                           matrix=_assemble(n, window.edges, potential),
                           k=window.k, window=window)


def restrict(op: LabeledOperator, subset) -> LabeledOperator:
    """Principal submatrix on a subset of the operator's window indices."""
    subset = np.asarray(subset, dtype=np.int64)
    new = np.full(op.dim, -1, dtype=np.int64)
    new[op.local_of(subset)] = np.arange(len(subset))
    row, col = new[op.entry_rows], new[op.indices]
    kept = np.flatnonzero((row >= 0) & (col >= 0))
    kept = kept[np.argsort(row[kept] * len(subset) + col[kept])]
    return LabeledOperator(index_set=subset,
                           matrix=_sorted_csr(len(subset), row[kept], col[kept], op.data[kept]),
                           k=op.k, bc=op.bc, window=op.window)

