"""Sparse symmetric Hamiltonians over indexed vertex sets.

All operators are built from the same per-subgraph data: for a subgraph G'
of a k-regular graph with degree function d, the adjacency Laplacian is
k*I - A, the Dirichlet Laplacian 2k*I - D - A, and the Neumann Laplacian
D - A.  They differ by the boundary potential W = k*I - D, which is
supported on the inner vertex boundary.  Entries are integers stored in
float64, so trace identities hold exactly.

Operators are numpy CSR arrays built without scipy, labelled into components
by ``cayley.connected_components`` and multiplied by ``LabeledOperator.matvec``.
The scipy ``.matrix`` is built on demand; it is the tests' reference, and no
code of the package reads it.
Each builder records the ball it indexes as the operator's ``window``.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from functools import cached_property

import numpy as np

from .cayley import CayleyBall, FiniteSubgraph, connected_components, locate
from .errors import UnsupportedModelError
from .percolation import SITE, PercolationSample

ADJACENCY = "adjacency"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_BCS = (ADJACENCY, DIRICHLET, NEUMANN)


class LabeledOperator:
    """Sparse symmetric matrix over an ordered subset of window vertices.

    Stored as CSR arrays ``indptr``, ``indices``, ``data`` in canonical form:
    float64, one entry per position, sorted columns, no stored zeros.  A
    ``matrix`` other than the builders' ``_CSR`` is kept if it is a canonical
    scipy ``csr_matrix``, else copied to one; ``matrix`` is built on first use,
    as the tests' scipy reference: the package multiplies by :meth:`matvec`.
    ``window`` is the ball whose vertices ``index_set`` indexes, or None; its
    ``band_rank`` orders the band solves (``spectra._band_eigenvalues``).
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

    def trace(self) -> float:
        return float(self.data[self.entry_rows == self.indices].sum())

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


def _csr(n: int, row, col, data) -> _CSR:
    """Canonical CSR of entries at distinct positions, in any order, less
    the zeros."""
    order = np.argsort(row * n + col)
    return _sorted_csr(n, row[order], col[order], data[order])


def _sorted_csr(n: int, row, col, data) -> _CSR:
    """:func:`_csr` of entries in row-major order; indices are int32 where
    they fit, as in scipy."""
    keep = data != 0
    index = np.int32 if max(n, len(data)) < 2 ** 31 else np.int64
    indptr = np.r_[0, np.cumsum(np.bincount(row[keep], minlength=n))].astype(index)
    return _CSR(indptr, col[keep].astype(index), data[keep])


def _assemble(n: int, edges, potential) -> _CSR:
    """-A + V from its entries' distinct positions: -1 per edge at each, in
    either orientation, and on the diagonal the potential less any loops.
    One sort of the positions; their run lengths are the counts."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    diag = np.broadcast_to(np.asarray(potential, dtype=np.float64), (n,))
    pos = np.concatenate([u * n + v, v * n + u, np.flatnonzero(diag) * (n + 1)])
    pos.sort()
    start = np.flatnonzero(np.diff(pos, prepend=-1))
    count = np.diff(start, append=len(pos))
    row, col = np.divmod(pos[start], max(n, 1))
    data = -count.astype(np.float64)
    loop = row == col
    own = diag[row[loop]]
    data[loop] = own - (count[loop] - (own != 0))
    return _sorted_csr(n, row, col, data)


def _diag_for(bc: str, k: int, degrees: np.ndarray):
    if bc == ADJACENCY:
        return k
    if bc == DIRICHLET:
        return 2.0 * k - degrees
    if bc == NEUMANN:
        return degrees.astype(np.float64)
    raise ValueError(f"unknown boundary condition {bc!r}")


def subgraph_laplacian(sub: FiniteSubgraph, bc: str) -> LabeledOperator:
    """Laplacian of a finite subgraph under the given boundary condition."""
    if bc not in _BCS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    mat = _assemble(sub.size, sub.local_edges(),
                    _diag_for(bc, sub.parent.k, sub.degrees()))
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


def percolation_laplacian(sample: PercolationSample, bc: str) -> LabeledOperator:
    """Laplacian of the percolation subgraph, over the active vertex set."""
    return subgraph_laplacian(sample.subgraph(), bc)


def extend(op: LabeledOperator, window: CayleyBall, K: float,
           check_separation: bool = True) -> LabeledOperator:
    """Extend to the whole window by K on each deleted vertex, uncoupled.

    The spectrum becomes spectrum(op) together with K at multiplicity
    #deleted.  When K falls inside [0, 2k] the extension eigenvalues can mix
    with the percolation spectrum; a warning is emitted unless the caller
    opts out (the zero-extended Neumann operator does this on purpose).
    """
    n = len(window)
    deleted = np.setdiff1d(np.arange(n, dtype=np.int64), op.index_set)
    if check_separation and 0.0 <= K <= 2.0 * op.k:
        warnings.warn(f"extension constant K={K} lies inside [0, {2 * op.k}]; "
                      "extension eigenvalues may mix with the spectrum",
                      stacklevel=2)
    # K = 0 entries are dropped by the canonical form
    mat = _csr(n, np.concatenate([op.index_set[op.entry_rows], deleted]),
               np.concatenate([op.index_set[op.indices], deleted]),
               np.concatenate([op.data, np.full(len(deleted), float(K))]))
    return LabeledOperator(index_set=np.arange(n, dtype=np.int64), matrix=mat,
                           k=op.k, bc=op.bc, window=window)


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
    kept = (row >= 0) & (col >= 0)
    return LabeledOperator(index_set=subset,
                           matrix=_csr(len(subset), row[kept], col[kept], op.data[kept]),
                           k=op.k, bc=op.bc, window=op.window)

