"""Sparse symmetric Hamiltonians over indexed vertex sets.

All operators are built from the same per-subgraph data: for a subgraph G'
of a k-regular graph with degree function d, the adjacency Laplacian is
k*I - A, the Dirichlet Laplacian 2k*I - D - A, and the Neumann Laplacian
D - A.  They differ by the boundary potential W = k*I - D, which is
supported on the inner vertex boundary.  Entries are integers stored in
float64, so trace identities hold exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .cayley import CayleyBall, FiniteSubgraph, locate
from .errors import UnsupportedModelError
from .percolation import SITE, PercolationSample

ADJACENCY = "adjacency"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_BCS = (ADJACENCY, DIRICHLET, NEUMANN)


@dataclass(eq=False)
class LabeledOperator:
    """Sparse symmetric matrix over an ordered subset of window vertices.

    ``matrix`` is in canonical CSR form: float64, one entry per position,
    sorted column indices, no stored zeros.  Other input is replaced by a
    canonical copy; the caller's matrix is never changed.
    """

    index_set: np.ndarray
    matrix: sparse.csr_matrix
    tag: str
    k: int
    bc: str | None = None

    def __post_init__(self):
        self.index_set = np.asarray(self.index_set, dtype=np.int64)
        mat = self.matrix
        if not (isinstance(mat, sparse.csr_matrix) and mat.dtype == np.float64
                and mat.has_canonical_format and mat.data.all()):
            self.matrix = mat = sparse.csr_matrix(mat, dtype=np.float64, copy=True)
            mat.sum_duplicates()
            mat.eliminate_zeros()

    @property
    def dim(self) -> int:
        return len(self.index_set)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def trace(self) -> float:
        return float(self.matrix.diagonal().sum())

    def inf_norm(self) -> float:
        """Max row sum of absolute entries; the scale for kernel tolerances."""
        if self.dim == 0:
            return 0.0
        return float(abs(self.matrix).sum(axis=1).max())

    def local_of(self, window_indices) -> np.ndarray:
        """Positions of the given window indices inside ``index_set``."""
        wanted = np.atleast_1d(np.asarray(window_indices, dtype=np.int64))
        found, at = locate(self.index_set, wanted)
        if not found.all():
            raise ValueError(f"window index {wanted[np.argmin(found)]} not in "
                             "the operator index set")
        return at


def _assemble(n: int, edges, potential) -> sparse.csr_matrix:
    """-A + V in one COO -> CSR pass: -1 at both orientations of each edge
    and the potential on the diagonal, where it is nonzero."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    diag = np.broadcast_to(np.asarray(potential, dtype=np.float64), (n,))
    on = np.flatnonzero(diag)
    return sparse.csr_matrix(
        (np.concatenate([np.full(2 * len(u), -1.0), diag[on]]),
         (np.concatenate([u, v, on]), np.concatenate([v, u, on]))),
        shape=(n, n))


def _diag_for(bc: str, k: int, degrees: np.ndarray):
    if bc == ADJACENCY:
        return k
    if bc == DIRICHLET:
        return 2.0 * k - degrees
    if bc == NEUMANN:
        return degrees.astype(np.float64)
    raise ValueError(f"unknown boundary condition {bc!r}")


def subgraph_laplacian(sub: FiniteSubgraph, bc: str,
                       tag: str | None = None) -> LabeledOperator:
    """Laplacian of a finite subgraph under the given boundary condition."""
    if bc not in _BCS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    mat = _assemble(sub.size, sub.local_edges(),
                    _diag_for(bc, sub.parent.k, sub.degrees()))
    return LabeledOperator(index_set=sub.vertex_indices, matrix=mat,
                           tag=tag or f"laplacian:{bc}", k=sub.parent.k, bc=bc)


def free_laplacian(window: CayleyBall) -> LabeledOperator:
    """k*I - A on the whole window, tagged ``free``.

    The adjacency Laplacian of the subgraph the window induces on all of
    its vertices, which is also the compression of the full-graph
    Laplacian to the window.
    """
    n = len(window)
    return LabeledOperator(index_set=np.arange(n), tag="free", k=window.k,
                           bc=ADJACENCY, matrix=_assemble(n, window.edges, window.k))


def percolation_laplacian(sample: PercolationSample, bc: str) -> LabeledOperator:
    """Laplacian of the percolation subgraph, over the active vertex set."""
    return subgraph_laplacian(sample.subgraph(), bc, tag=f"perc:{bc}")


def boundary_potential(sample: PercolationSample) -> LabeledOperator:
    """Diagonal potential k - d on the active set; equals Dirichlet - adjacency."""
    sub = sample.subgraph()
    mat = _assemble(sub.size, (), sample.window.k - sub.degrees())
    return LabeledOperator(index_set=sub.vertex_indices, matrix=mat,
                           tag="boundary_potential", k=sample.window.k)


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
    coo = op.matrix.tocoo()
    # K = 0 entries are dropped by the canonical form
    mat = sparse.csr_matrix(
        (np.concatenate([coo.data, np.full(len(deleted), float(K))]),
         (np.concatenate([op.index_set[coo.row], deleted]),
          np.concatenate([op.index_set[coo.col], deleted]))), shape=(n, n))
    return LabeledOperator(index_set=np.arange(n, dtype=np.int64), matrix=mat,
                           tag=f"extended:{op.bc or op.tag}:K={K:g}", k=op.k,
                           bc=op.bc)


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
                           tag=f"anderson:lambda={coupling:g}", k=window.k)


def restrict(op: LabeledOperator, subset) -> LabeledOperator:
    """Principal submatrix on a subset of the operator's window indices."""
    subset = np.asarray(subset, dtype=np.int64)
    positions = op.local_of(subset)
    return LabeledOperator(index_set=subset,
                           matrix=op.matrix[positions][:, positions],
                           tag=f"restricted({op.tag})", k=op.k, bc=op.bc)


def bipartite_conjugate(op: LabeledOperator, coloring: np.ndarray) -> LabeledOperator:
    """Conjugate by the +-1 multiplication operator of a 2-coloring.

    ``coloring`` is indexed by window vertex; entries (u, v) get multiplied
    by color(u) * color(v).  Off-diagonal entries between equal colors mean
    the coloring is not proper for this operator and raise a ValueError.
    """
    colors = np.asarray(coloring, dtype=np.int64)[op.index_set]
    if not np.all(np.abs(colors) == 1):
        raise ValueError("coloring must assign +-1 to every operator vertex")
    coo = op.matrix.tocoo()
    sign = colors[coo.row] * colors[coo.col]
    if np.any(sign[coo.row != coo.col] != -1):
        raise ValueError("coloring is not proper: adjacent vertices share a color")
    mat = op.matrix.copy()
    mat.data *= sign
    return LabeledOperator(index_set=op.index_set, matrix=mat,
                           tag=f"conjugated({op.tag})", k=op.k, bc=op.bc)


def export_matrix(op: LabeledOperator, fh) -> None:
    """Coordinate text format: header, then ``i j value`` for i <= j."""
    fh.write(f"# n={op.dim} sym=1 tag={op.tag}\n")
    coo = op.matrix.tocoo()  # row-major, sorted columns: the canonical order
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if r <= c:
            fh.write(f"{r} {c} {v:.17g}\n")
