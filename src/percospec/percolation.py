"""Site and bond percolation sampling on ball windows, with cluster statistics.

Randomness is counter based: the mark of item j in sample i is a pure
function of (master seed, i, j), so sampling is reproducible independently
of evaluation order and worker count.  Different percolation probabilities
reuse the same underlying uniforms, which yields a monotone coupling in p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import run_indexed
from .asymptotics import least_squares
from .cayley import CayleyBall, FiniteSubgraph, sorted_unique

SITE = "site"
BOND = "bond"

_MASK64 = 0xFFFFFFFFFFFFFFFF
MIN_STATS_SAMPLES = 100


@dataclass(frozen=True)
class PercolationModel:
    kind: str
    p: float
    seed: int

    def __post_init__(self):
        if self.kind not in (SITE, BOND):
            raise ValueError(f"unknown percolation kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        # item_uniforms keys Philox with 64 bits; a wider seed would alias
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must lie in [0, 2**64)")


def item_uniforms(seed: int, sample_index: int, n_items: int) -> np.ndarray:
    """Uniform variates for the items of one sample, from a keyed Philox stream."""
    key = np.array([seed & _MASK64, sample_index & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(n_items)


@dataclass(eq=False)
class PercolationSample:
    """Open/closed marks on the sites (site model) or edges (bond model) of a window."""

    model: PercolationModel
    window: CayleyBall
    open_marks: np.ndarray
    sample_index: int

    def active_vertices(self) -> np.ndarray:
        """Window indices of the active vertex set V(omega), sorted.

        Bond model: exactly the vertices incident to an open edge, so
        isolated vertices are not active.
        """
        if self.model.kind == SITE:
            return np.flatnonzero(self.open_marks)
        return sorted_unique(self.window.edges[self.open_marks])

    def open_edges(self) -> np.ndarray:
        """Window-index pairs of the open adjacency."""
        edges = self.window.edges
        if self.model.kind == SITE:
            keep = self.open_marks[edges[:, 0]] & self.open_marks[edges[:, 1]]
            return edges[keep]
        return edges[self.open_marks]

    def subgraph(self) -> FiniteSubgraph:
        return FiniteSubgraph(parent=self.window,
                              vertex_indices=self.active_vertices(),
                              edges=self.open_edges())


def sample(model: PercolationModel, window: CayleyBall,
           sample_index: int) -> PercolationSample:
    """Draw one independent percolation configuration on the window."""
    if len(window) == 0:
        raise ValueError("window is empty")
    n_items = len(window) if model.kind == SITE else len(window.edges)
    marks = item_uniforms(model.seed, sample_index, n_items) < model.p
    return PercolationSample(model=model, window=window,
                             open_marks=marks, sample_index=sample_index)


# ---------------------------------------------------------------------------
# cluster decomposition
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ClusterDecomposition:
    active: np.ndarray
    sizes: np.ndarray
    cluster_count: int
    origin_cluster_size: int


def decompose(sample: PercolationSample) -> ClusterDecomposition:
    """Connected components of the percolation subgraph inside the window.

    The origin is the identity vertex (window index 0); its cluster size is
    0 when the origin is inactive.
    """
    sub = sample.subgraph()
    active = sub.vertex_indices
    ncomp, labels = sub.components()
    sizes = np.bincount(labels, minlength=ncomp).astype(np.int64)
    origin_size = 0
    # active is sorted, so the origin (index 0) is active iff it comes first
    if len(active) and active[0] == 0:
        origin_size = int(sizes[labels[0]])
    return ClusterDecomposition(active=active, sizes=sizes, cluster_count=int(ncomp),
                                origin_cluster_size=origin_size)


# ---------------------------------------------------------------------------
# Monte Carlo statistics
# ---------------------------------------------------------------------------

@dataclass
class TailFit:
    tau: float | None
    r2: float | None
    n_points: int
    fit_range: tuple
    valid: bool


@dataclass
class ClusterStats:
    samples: int
    tail_grid: np.ndarray
    tail: np.ndarray
    tail_stderr: np.ndarray
    tau_fit: TailFit
    clusters_per_vertex: tuple
    deleted_density: tuple


def _stats_task(ctx, i):
    model, window = ctx
    dec = decompose(sample(model, window, i))
    n_active = len(dec.active)
    return (dec.origin_cluster_size, dec.cluster_count, n_active)


def cluster_stats(model: PercolationModel, window: CayleyBall, n_samples: int,
                  tail_grid, workers: int = 1) -> ClusterStats:
    """Monte Carlo tail of the origin-cluster size plus density statistics.

    The tail decay rate is the negative slope of the least-squares line
    through (n, log tail(n)), restricted to grid points backed by at least
    30 hits; with fewer than two usable points the fit is marked invalid
    and has no ``tau`` or ``r2`` (None).  A flat tail has no ``r2``.
    """
    if n_samples < MIN_STATS_SAMPLES:
        raise ValueError(f"need n_samples >= {MIN_STATS_SAMPLES}")
    tail_grid = np.asarray(tail_grid, dtype=np.int64)
    rows = run_indexed(_stats_task, range(n_samples), workers, (model, window))
    origin = np.array([r[0] for r in rows], dtype=np.int64)
    counts = np.array([r[1] for r in rows], dtype=np.float64)
    actives = np.array([r[2] for r in rows], dtype=np.float64)

    hits = np.array([(origin >= n).sum() for n in tail_grid], dtype=np.int64)
    tail = hits / n_samples
    tail_stderr = np.sqrt(tail * (1.0 - tail) / n_samples)

    usable = (hits >= 30) & (tail > 0)
    if usable.sum() >= 2:
        slope, _, r, _ = least_squares(tail_grid[usable], np.log(tail[usable]))
        # a flat tail (p = 1) decays at rate 0.0, not -0.0, and has no R^2
        fit = TailFit(tau=0.0 - float(slope),
                      r2=float(r ** 2) if np.ptp(tail[usable]) else None,
                      n_points=int(usable.sum()),
                      fit_range=(int(tail_grid[usable].min()),
                                 int(tail_grid[usable].max())),
                      valid=True)
    else:
        fit = TailFit(tau=None, r2=None,
                      n_points=int(usable.sum()), fit_range=(0, 0), valid=False)

    nv = float(len(window))
    cpv = counts / nv
    dd = (nv - actives) / nv
    def mean_se(x):
        se = float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
        return (float(x.mean()), se)
    return ClusterStats(samples=n_samples, tail_grid=tail_grid, tail=tail,
                        tail_stderr=tail_stderr, tau_fit=fit,
                        clusters_per_vertex=mean_se(cpv),
                        deleted_density=mean_se(dd))


def deleted_density_expected(model: PercolationModel, k: int) -> float:
    """Expected density of deleted vertices: 1-p for sites, (1-p)^k for bonds."""
    if k < 1:
        raise ValueError("degree k must be >= 1")
    if model.kind == SITE:
        return 1.0 - model.p
    return (1.0 - model.p) ** k
