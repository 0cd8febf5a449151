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
from .cayley import CayleyBall, FiniteSubgraph, enumerate_ball

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

    @property
    def n_items(self) -> int:
        return len(self.open_marks)

    def active_vertices(self) -> np.ndarray:
        """Window indices of the active vertex set V(omega), sorted.

        Bond model: exactly the vertices incident to an open edge, so
        isolated vertices are not active.
        """
        if self.model.kind == SITE:
            return np.flatnonzero(self.open_marks)
        open_edges = self.window.edges[self.open_marks]
        return np.unique(open_edges)

    def open_edges(self) -> np.ndarray:
        """Window-index pairs of the open adjacency."""
        edges = self.window.edges
        if self.model.kind == SITE:
            if not len(edges):
                return np.zeros((0, 2), dtype=np.int64)
            keep = self.open_marks[edges[:, 0]] & self.open_marks[edges[:, 1]]
            return edges[keep]
        return edges[self.open_marks]

    def subgraph(self) -> FiniteSubgraph:
        return FiniteSubgraph(parent=self.window,
                              vertex_indices=self.active_vertices(),
                              edges=self.open_edges(),
                              induced=self.model.kind == SITE)


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
    labels: np.ndarray
    sizes: np.ndarray
    cluster_count: int
    origin_cluster_size: int
    origin_touches_boundary: bool


def decompose(sample: PercolationSample) -> ClusterDecomposition:
    """Connected components of the percolation subgraph inside the window.

    The origin is the identity vertex (window index 0); its cluster size is
    0 when the origin is inactive.  ``origin_touches_boundary`` flags
    possible truncation of the origin cluster by the window edge.
    """
    sub = sample.subgraph()
    active = sub.vertex_indices
    ncomp, labels = sub.components()
    sizes = np.bincount(labels, minlength=ncomp).astype(np.int64)
    origin_size = 0
    touches = False
    # active is sorted, so the origin (index 0) is active iff it comes first
    if len(active) and active[0] == 0:
        lab = labels[0]
        origin_size = int(sizes[lab])
        wl = sample.window.word_length[active]
        touches = bool(np.any(wl[labels == lab] == sample.window.radius))
    return ClusterDecomposition(active=active, labels=labels.astype(np.int64),
                                sizes=sizes, cluster_count=int(ncomp),
                                origin_cluster_size=origin_size,
                                origin_touches_boundary=touches)


# ---------------------------------------------------------------------------
# Monte Carlo statistics
# ---------------------------------------------------------------------------

@dataclass
class TailFit:
    tau: float
    r2: float
    n_points: int
    fit_range: tuple
    valid: bool


@dataclass
class ClusterStats:
    samples: int
    tail_grid: np.ndarray
    tail: np.ndarray
    tail_stderr: np.ndarray
    tail_hits: np.ndarray
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
    30 hits; with fewer than two usable points the fit is marked invalid.
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
        from scipy.stats import linregress  # slow to import; only fits need it

        res = linregress(tail_grid[usable], np.log(tail[usable]))
        fit = TailFit(tau=-float(res.slope), r2=float(res.rvalue ** 2),
                      n_points=int(usable.sum()),
                      fit_range=(int(tail_grid[usable].min()),
                                 int(tail_grid[usable].max())),
                      valid=True)
    else:
        fit = TailFit(tau=float("nan"), r2=float("nan"),
                      n_points=int(usable.sum()), fit_range=(0, 0), valid=False)

    nv = float(len(window))
    cpv = counts / nv
    dd = (nv - actives) / nv
    def mean_se(x):
        se = float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
        return (float(x.mean()), se)
    return ClusterStats(samples=n_samples, tail_grid=tail_grid, tail=tail,
                        tail_stderr=tail_stderr, tail_hits=hits, tau_fit=fit,
                        clusters_per_vertex=mean_se(cpv),
                        deleted_density=mean_se(dd))


def deleted_density_expected(model: PercolationModel, k: int) -> float:
    """Expected density of deleted vertices: 1-p for sites, (1-p)^k for bonds."""
    if k < 1:
        raise ValueError("degree k must be >= 1")
    if model.kind == SITE:
        return 1.0 - model.p
    return (1.0 - model.p) ** k


# ---------------------------------------------------------------------------
# critical-parameter bracketing
# ---------------------------------------------------------------------------

def _touch_fraction(kind, p, seed, window, n_samples):
    model = PercolationModel(kind, p, seed)
    hits = 0
    for j in range(n_samples):
        dec = decompose(sample(model, window, j))
        if dec.origin_touches_boundary:
            hits += 1
    return hits / n_samples


def critical_bracket(kind: str, spec, radius: int, seed: int,
                     n_samples: int = 200, threshold: float = 0.05,
                     iterations: int = 10, budget: int | None = None) -> tuple:
    """Bracket the critical parameter by bisection on the probability that the
    origin cluster touches the window boundary.

    Every step reuses samples 0 .. n_samples - 1, so by the monotone
    coupling the touch fraction is non-decreasing in p and the bisection
    brackets its one crossing.  Returns (lo, hi): at lo the touch fraction
    stays below ``threshold``, at hi it does not.  This is a desk-scale
    estimate; experiments that need a subcritical parameter should use
    p <= 0.8 * lo.
    """
    window = enumerate_ball(spec, radius, budget)
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        frac = _touch_fraction(kind, mid, seed, window, n_samples)
        if frac < threshold:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_sample(sample: PercolationSample, fh) -> None:
    """Header line, then the open item indices, one per line."""
    m = sample.model
    fh.write(f"# model={m.kind} p={m.p:.17g} seed={m.seed} index={sample.sample_index}\n")
    for j in np.flatnonzero(sample.open_marks):
        fh.write(f"{j}\n")


def export_cluster_stats(stats: ClusterStats, fh) -> None:
    fh.write("n,tail,stderr\n")
    for n, t, se in zip(stats.tail_grid, stats.tail, stats.tail_stderr):
        fh.write(f"{n},{t:.17g},{se:.17g}\n")
