"""Eigenvalues, counting functions, and the windowed IDS estimator.

Counting is right continuous: ``count(E)`` is the number of eigenvalues
lambda <= E + count_tol.  Kernel membership uses |lambda| <= kernel_tol
relative to the max-row-sum norm; the matrices here have integer entries,
so at desk scale true eigenvalue gaps sit far above both tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg
from scipy.sparse import csgraph

from ._parallel import run_indexed
from .cayley import CayleyBall, GroupSpec, enumerate_ball, induced_subgraph, tetrahedron
from .errors import BudgetError, DegenerateSpectrumError
from .operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    LabeledOperator,
    free_laplacian,
    restrict,
    subgraph_laplacian,
)
from .percolation import SITE, PercolationModel, PercolationSample, sample

KERNEL_TOL = 1e-8
COUNT_TOL = 1e-9
DENSE_CAP = 4000
MIN_IDS_SAMPLES = 10


# ---------------------------------------------------------------------------
# dense spectra
# ---------------------------------------------------------------------------

@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    dim: int
    kernel_dim: int


def _kernel_count(eigenvalues: np.ndarray, scale: float) -> int:
    return int((np.abs(eigenvalues) <= KERNEL_TOL * scale).sum())


def eigenvalues_dense(op: LabeledOperator, dense_cap: int = DENSE_CAP,
                      validate: bool = False) -> Spectrum:
    """Full spectrum, from the per-component solves of :func:`block_eigenvalues`.

    Refuses dimensions above ``dense_cap``; use :func:`count_below` there.
    With ``validate=True`` each eigenvalue is checked against an
    eigenvector of a dense ``eigh``: the residual must stay below
    1e-8 * ||H||.
    """
    if op.dim > dense_cap:
        raise BudgetError(
            f"operator dimension {op.dim} exceeds the dense cap {dense_cap}; "
            "use count_below for counting at this size")
    vals = block_eigenvalues(op, dense_cap)
    scale = op.inf_norm()
    if validate:
        dense = op.to_dense()
        vecs = linalg.eigh(dense)[1]
        resid = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
        if np.any(resid > 1e-8 * max(scale, 1.0)):
            raise RuntimeError("eigenpair residual above tolerance")
    return Spectrum(eigenvalues=vals, dim=op.dim,
                    kernel_dim=_kernel_count(vals, scale))


def block_eigenvalues(op: LabeledOperator, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """All eigenvalues via per-connected-component dense solves.

    Percolation operators decompose over clusters, so in the subcritical
    regime components stay small even when the window is large.  One pass
    scatters the operator's stored entries into zero-filled dense blocks,
    one ``(count, size, size)`` stack per component size, with each vertex
    at its rank by index inside its component; duplicate entries sum as in
    ``toarray``.  Each stack then takes one batched LAPACK call, and a
    size-1 component is just its diagonal entry.  A component above
    ``dense_cap`` raises :class:`BudgetError`.
    """
    n = op.dim
    if n == 0:
        return np.zeros(0)
    ncomp, labels = csgraph.connected_components(op.matrix, directed=False)
    sizes = np.bincount(labels)
    if sizes.max() > dense_cap:
        raise BudgetError(
            f"connected component of dimension {int(sizes.max())} exceeds the "
            f"dense cap {dense_cap}")
    if ncomp == 1:
        return np.sort(linalg.eigvalsh(op.to_dense()))
    order = np.argsort(labels, kind="stable")
    local = np.empty(n, dtype=np.int64)
    local[order] = np.arange(n) - (np.cumsum(sizes) - sizes)[labels[order]]
    # blocks ordered by size, then by component label, in one flat buffer
    by_size = np.argsort(sizes, kind="stable")
    block_len = sizes[by_size] ** 2
    base = np.empty(ncomp, dtype=np.int64)
    base[by_size] = np.cumsum(block_len) - block_len
    flat = np.zeros(int(block_len.sum()))
    coo = op.matrix.tocoo()
    # connected_components counts every stored entry, explicit zeros too,
    # so both ends of an entry lie in the same component
    comp = labels[coo.row]
    np.add.at(flat, base[comp] + local[coo.row] * sizes[comp] + local[coo.col],
              coo.data)
    out = []
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        stop = start + count * size * size
        stack = flat[start:stop].reshape(count, size, size)
        out.append(stack.ravel() if size == 1
                   else np.linalg.eigvalsh(stack).ravel())
        start = stop
    return np.sort(np.concatenate(out))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _counts(vals: np.ndarray, energies) -> np.ndarray:
    """Number of the sorted ``vals`` <= E + count_tol, at each energy."""
    return np.searchsorted(vals, np.asarray(energies) + COUNT_TOL, side="right")


def count_below(op: LabeledOperator, energy: float,
                dense_cap: int = DENSE_CAP) -> int:
    """Number of eigenvalues <= energy + count_tol.

    Counts the eigenvalues of :func:`block_eigenvalues`, so any operator
    whose connected components all fit under ``dense_cap`` is counted,
    however large its dimension; a larger component raises
    :class:`BudgetError`.
    """
    return int(_counts(block_eigenvalues(op, dense_cap), energy))


def lowest_nonzero(op: LabeledOperator, dense_cap: int = DENSE_CAP) -> float:
    """Smallest eigenvalue above the kernel tolerance.

    For adjacency and Dirichlet operators this is the smallest eigenvalue
    outright, since they are injective on finite subgraphs.
    """
    if op.dim < 1:
        raise ValueError("operator must have dimension >= 1")
    vals = block_eigenvalues(op, dense_cap=dense_cap)
    threshold = KERNEL_TOL * op.inf_norm()
    above = vals[vals > threshold]
    if not len(above):
        raise DegenerateSpectrumError("all eigenvalues lie in the kernel")
    return float(above[0])


@dataclass
class CountingFunction:
    """Right-continuous normalized eigenvalue counting step function."""

    jump_locations: np.ndarray
    cumulative: np.ndarray
    normalization: float

    @classmethod
    def from_eigenvalues(cls, eigenvalues, normalization: float) -> "CountingFunction":
        vals = np.sort(np.asarray(eigenvalues, dtype=np.float64))
        locs, counts = np.unique(vals, return_counts=True)
        return cls(jump_locations=locs, cumulative=np.cumsum(counts),
                   normalization=float(normalization))

    def counts(self, energies) -> np.ndarray:
        padded = np.concatenate([[0], self.cumulative])
        return padded[_counts(self.jump_locations, energies)]

    def __call__(self, energies) -> np.ndarray:
        return self.counts(energies) / self.normalization


# ---------------------------------------------------------------------------
# empirical IDS
# ---------------------------------------------------------------------------

@dataclass
class IDSEstimate:
    energies: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    bracket_low: np.ndarray
    bracket_high: np.ndarray
    n_at_zero: tuple
    params: dict


def _ids_sample_task(ctx, i):
    grid = ctx["grid"]
    dense_cap = ctx["dense_cap"]

    s = sample(ctx["model"], ctx["ball"], i)
    # the window-induced percolation subgraph: the sample with every item
    # outside the window closed
    sub_int = replace(s, open_marks=s.open_marks & ctx["item_mask"]).subgraph()
    sub_big = s.subgraph()
    # the full-sample operator is compressed onto its window vertices
    subset = sub_big.vertex_indices[ctx["window_mask"][sub_big.vertex_indices]]

    # the boundary conditions share the subgraphs and differ in the diagonal
    rows = []
    for bc in ctx["bcs"]:
        op_int = subgraph_laplacian(sub_int, bc)
        vals_int = block_eigenvalues(op_int, dense_cap)
        op_comp = restrict(subgraph_laplacian(sub_big, bc), subset)
        vals_comp = block_eigenvalues(op_comp, dense_cap)
        rows += [_counts(vals_int, grid), _counts(vals_comp, grid),
                 [_kernel_count(vals_int, op_int.inf_norm())]]
    return np.concatenate(rows) / ctx["window_size"]


def empirical_ids(group: GroupSpec, model: PercolationModel, bc, *,
                  radius: int | None = None, depth: int | None = None,
                  n_samples: int, energy_grid, workers: int = 1,
                  dense_cap: int = DENSE_CAP,
                  budget: int | None = None) -> IDSEstimate | dict:
    """Monte Carlo estimate of the IDS from finite-window eigenvalue counts.

    The window is the ball B(radius) (polynomial growth) or the depth-n
    tetrahedron (lamplighter); each sample lives on a one-step-larger ball
    so both the intrinsic window operator and the compression of the
    full-sample operator onto the window can be counted.  The reported mean
    is the intrinsic count; the bracket columns envelope both conventions,
    which monitors the finite-window boundary bias.  ``n_at_zero`` is the
    normalized kernel mass of the intrinsic operator.

    ``bc`` is one boundary condition, which returns an :class:`IDSEstimate`,
    or a sequence of distinct ones, which returns ``{bc: IDSEstimate}`` in
    the given order; each sample is drawn once and serves every one of them.
    """
    single = isinstance(bc, str)
    bcs = [bc] if single else list(bc)
    if not bcs or len(set(bcs)) != len(bcs):
        raise ValueError(f"need a non-empty list of distinct boundary "
                         f"conditions, got {bcs}")
    if n_samples < MIN_IDS_SAMPLES:
        raise ValueError(f"need n_samples >= {MIN_IDS_SAMPLES}")
    if (radius is None) == (depth is None):
        raise ValueError("specify exactly one of radius or depth")
    if depth is not None and group.kind != "lamplighter":
        raise ValueError("tetrahedron windows exist only for lamplighter groups")
    grid = np.asarray(energy_grid, dtype=np.float64)
    # samples live one step beyond the window B(radius), or beyond the
    # depth-n tetrahedron, which lies in B(2n)
    ball = enumerate_ball(group, radius + 1 if depth is None else 2 * depth + 1,
                          budget)
    window_mask = np.zeros(len(ball), dtype=bool)
    if depth is not None:
        tet = tetrahedron(group.modulus, depth, ball)
        window_mask[tet.vertex_indices] = True
        window_size = tet.size
        window_descr = {"depth": depth}
    else:
        window_mask[:ball.volume(radius)] = True
        window_size = ball.volume(radius)
        window_descr = {"radius": radius}
    # the sample items inside the window: sites in it, or edges with both ends in it
    item_mask = window_mask if model.kind == SITE \
        else window_mask[ball.edges].all(axis=1)

    ctx = {"ball": ball, "window_mask": window_mask, "item_mask": item_mask,
           "window_size": window_size, "model": model, "bcs": bcs, "grid": grid,
           "dense_cap": dense_cap}
    # one row per sample: the counts of every boundary condition in turn
    rows = np.vstack(run_indexed(_ids_sample_task, range(n_samples), workers,
                                 ctx)).reshape(n_samples, len(bcs), -1)

    g = len(grid)
    out = {}
    for j, name in enumerate(bcs):
        ints, comps, kerns = rows[:, j, :g], rows[:, j, g:2 * g], rows[:, j, -1]
        mean = ints.mean(axis=0)
        stderr = ints.std(axis=0, ddof=1) / np.sqrt(n_samples)
        mean_comp = comps.mean(axis=0)
        params = {"group": group.label(), "model": model.kind, "p": model.p,
                  "seed": model.seed, "bc": name, "n_samples": n_samples,
                  **window_descr}
        out[name] = IDSEstimate(
            energies=grid, mean=mean, stderr=stderr,
            bracket_low=np.minimum(mean, mean_comp),
            bracket_high=np.maximum(mean, mean_comp),
            n_at_zero=(float(kerns.mean()),
                       float(kerns.std(ddof=1) / np.sqrt(n_samples))),
            params=params)
    return out[bc] if single else out


def export_ids_csv(est: IDSEstimate, fh) -> None:
    p = est.params
    fh.write("E,mean,stderr,n_samples,bc,model,p,radius,seed\n")
    radius = p.get("radius", p.get("depth"))
    for e, m, se in zip(est.energies, est.mean, est.stderr):
        fh.write(f"{e:.17g},{m:.17g},{se:.17g},{p['n_samples']},{p['bc']},"
                 f"{p['model']},{p['p']:.17g},{radius},{p['seed']}\n")


# ---------------------------------------------------------------------------
# five-operator counting audit
# ---------------------------------------------------------------------------

def five_operator_counts(s: PercolationSample, energy_grid, couplings,
                         dense_cap: int = DENSE_CAP) -> dict:
    """Normalized eigenvalue counts of the comparison chain on one sample.

    For a site sample on a window, counts (per energy, divided by the
    window size) for: the zero-extended Neumann operator, the free window
    Laplacian, the two-valued-potential Hamiltonian at each coupling, and
    the adjacency and Dirichlet operators of the active set.  The form
    ordering makes these counting functions pointwise decreasing along
    that list, sample by sample.
    """
    from .operators import anderson, extend

    grid = np.asarray(energy_grid, dtype=np.float64)
    window = s.window
    norm = float(len(window))
    sub = s.subgraph()

    def counts(op):
        return _counts(block_eigenvalues(op, dense_cap), grid) / norm

    def perc(bc):
        return subgraph_laplacian(sub, bc, tag=f"perc:{bc}")

    out = {}
    out["neumann_extended"] = counts(extend(perc(NEUMANN), window, 0.0,
                                            check_separation=False))
    out["free"] = counts(free_laplacian(window))
    for lam in couplings:
        out[f"anderson:{lam:g}"] = counts(anderson(s, window, lam))
    out["adjacency"] = counts(perc(ADJACENCY))
    out["dirichlet"] = counts(perc(DIRICHLET))
    return out


# ---------------------------------------------------------------------------
# free IDS on Z^d
# ---------------------------------------------------------------------------

@dataclass
class FreeIDSValue:
    value: float
    error: float
    clamped: bool
    method: str


def free_ids_zd(d: int, energy: float, mc_samples: int = 400_000,
                mc_seed: int = 20240) -> FreeIDSValue:
    """IDS of the free Laplacian on Z^d at one energy.

    Evaluates the momentum-space volume of { theta : sum_i 2(1 - cos
    theta_i) <= E } over the torus.  Dimensions 1 and 2 are deterministic
    (closed form / adaptive quadrature, absolute error <= 1e-6); dimensions
    3 and 4 use Monte Carlo with a reported standard error.  Energies
    outside [0, 4d] clamp to 0 or 1 with a flag.
    """
    if not 1 <= d <= 4:
        raise ValueError("dimension must be between 1 and 4")
    if energy <= 0.0:
        return FreeIDSValue(0.0, 0.0, energy < 0.0, "clamped" if energy < 0 else "exact")
    if energy >= 4.0 * d:
        return FreeIDSValue(1.0, 0.0, energy > 4.0 * d, "clamped" if energy > 4 * d else "exact")
    if d == 1:
        return FreeIDSValue(float(np.arccos(1.0 - energy / 2.0) / np.pi),
                            1e-12, False, "closed-form")
    if d == 2:
        from scipy import integrate  # slow to import; only d == 2 needs it

        theta_max = np.arccos(np.clip(1.0 - energy / 2.0, -1.0, 1.0))

        def slice_measure(t):
            rest = energy - 2.0 * (1.0 - np.cos(t))
            return np.arccos(np.clip(1.0 - rest / 2.0, -1.0, 1.0))

        val, err = integrate.quad(slice_measure, 0.0, theta_max,
                                  epsabs=1e-10, epsrel=1e-10, limit=300)
        value = val / np.pi ** 2
        if err / np.pi ** 2 > 1e-6:
            raise RuntimeError("quadrature error estimate above 1e-6")
        return FreeIDSValue(float(value), float(err / np.pi ** 2), False, "quadrature")
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [mc_seed, d], dtype=np.uint64)))
    theta = gen.random((mc_samples, d)) * np.pi
    inside = (2.0 * (1.0 - np.cos(theta))).sum(axis=1) <= energy
    value = inside.mean()
    return FreeIDSValue(float(value),
                        float(np.sqrt(value * (1 - value) / mc_samples)),
                        False, "monte-carlo")


@dataclass
class FreeIDSTrace:
    energies: np.ndarray
    values: np.ndarray
    trace: list


def free_ids_ball(spec: GroupSpec, radius: int, energies,
                  trace_radii=None, budget: int | None = None,
                  dense_cap: int = DENSE_CAP) -> FreeIDSTrace:
    """Free IDS by exhaustion: <chi_(-inf,E] (Delta(B(n))) delta_id, delta_id>.

    Returns the value at the final radius together with the sequence over
    ``trace_radii`` (default: every radius up to ``radius``) so convergence
    is visible.
    """
    grid = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    ball = enumerate_ball(spec, radius, budget)
    if trace_radii is None:
        trace_radii = range(1, radius + 1)
    trace_radii = sorted(set(int(r) for r in trace_radii) | {radius})
    trace = []
    values = None
    for r in trace_radii:
        if r < 0 or r > radius:
            raise ValueError("trace radius outside [0, radius]")
        nv = ball.volume(r)
        if nv > dense_cap:
            raise BudgetError(f"ball B({r}) has {nv} vertices, above the dense "
                              f"cap {dense_cap}")
        sub = induced_subgraph(ball, ball.ball_indices(r))
        vals, vecs = linalg.eigh(subgraph_laplacian(sub, ADJACENCY).to_dense())
        overlap = vecs[0, :] ** 2
        vaux = np.array([overlap[vals <= e + COUNT_TOL].sum() for e in grid])
        trace.append((r, vaux))
        values = vaux
    return FreeIDSTrace(energies=grid, values=values, trace=trace)


# ---------------------------------------------------------------------------
# random-walk return probability
# ---------------------------------------------------------------------------

@dataclass
class ReturnProbability:
    steps: int
    value: float


def max_exact_return_n(spec: GroupSpec) -> int | float:
    """Largest n for which :func:`return_probability` is exact.

    The walk counts, at most k^(2n), must stay within 2^52, so
    2n * log2(k) <= 52.  A degree-1 generator set has no limit.
    """
    bits = math.log2(spec.k)
    return math.floor(26 / bits) if bits else math.inf


def return_probability(spec: GroupSpec, n: int, budget: int | None = None,
                       ball: CayleyBall | None = None) -> ReturnProbability:
    """Exact return probability of the simple random walk after 2n steps.

    A closed walk of length 2n never leaves B(n), so the (identity,
    identity) entry of (A/k)^(2n) on the ball of radius n is exact.  Walk
    counts stay below 2^53 for n <= :func:`max_exact_return_n`, so the
    float arithmetic is exact too.  ``ball``, if given, is any enumerated
    ball of ``spec`` with radius >= n; the walk runs on its prefix B(n).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > max_exact_return_n(spec):
        raise ValueError("walk count would overflow exact float range")
    if ball is None:
        ball = enumerate_ball(spec, n, budget)
    elif ball.spec != spec or ball.radius < n:
        raise ValueError(f"the walk needs B({n}) of {spec.label()}, "
                         f"not B({ball.radius}) of {ball.spec.label()}")
    size = ball.volume(n)
    # the edges of the prefix B(n): both ends have index < size
    u, v = ball.edges[ball.edges[:, 1] < size].T
    vec = np.zeros(size)
    vec[0] = 1.0
    for _ in range(2 * n):
        vec = np.bincount(u, vec[v], size) + np.bincount(v, vec[u], size)
    return ReturnProbability(steps=2 * n, value=float(vec[0] / spec.k ** (2 * n)))


# ---------------------------------------------------------------------------
# exact subcritical site IDS on the line
# ---------------------------------------------------------------------------

def _line_cluster_eigenvalues(s: int, bc: str) -> np.ndarray:
    """Eigenvalues of the boundary-condition Laplacian of an s-site segment of Z."""
    if bc == NEUMANN:
        return 2.0 * (1.0 - np.cos(np.pi * np.arange(s) / s)) if s > 1 \
            else np.zeros(1)
    if bc == ADJACENCY:
        return 2.0 * (1.0 - np.cos(np.pi * np.arange(1, s + 1) / (s + 1)))
    # Dirichlet: tridiagonal with diagonal (3, 2, ..., 2, 3); no closed form
    diag = np.full(s, 2.0)
    diag[0] = diag[-1] = 3.0
    if s == 1:
        return np.array([4.0])
    return linalg.eigvalsh_tridiagonal(diag, -np.ones(s - 1))


def line_site_ids_oracle(p: float, energies, bc: str,
                         s_max: int | None = None) -> np.ndarray:
    """Exact subcritical site-percolation IDS on Z by direct summation.

    Clusters on the line are segments; a given vertex is the left end of an
    s-cluster with probability p^s (1-p)^2, so the IDS is the weighted sum
    of segment spectra over sizes.  The default size cutoff keeps the
    truncated tail below 1e-40 for p <= 0.85; beyond that the hard cap of
    600 sizes (150 for the end-corrected Dirichlet spectra, which need a
    per-size eigensolve) bounds the truncation by p^cap.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("need 0 < p < 1")
    if s_max is None:
        s_max = int(min(600 if bc != DIRICHLET else 150,
                        np.ceil(np.log(1e-40) / np.log(p))))
    grid = np.asarray(energies, dtype=np.float64)
    all_vals, all_weights = [], []
    for s in range(1, s_max + 1):
        vals = _line_cluster_eigenvalues(s, bc)
        w = p ** s * (1.0 - p) ** 2
        all_vals.append(vals)
        all_weights.append(np.full(len(vals), w))
    vals = np.concatenate(all_vals)
    weights = np.concatenate(all_weights)
    order = np.argsort(vals)
    vals, weights = vals[order], np.cumsum(weights[order])
    padded = np.concatenate([[0.0], weights])
    return padded[_counts(vals, grid)]
