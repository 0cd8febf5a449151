"""Eigenvalues, eigenvalue counts, and the windowed IDS estimator.

Operators are solved by :func:`block_eigenvalues`, one solve per connected
component; only :func:`free_ids_ball` takes eigenvectors, from a dense ``eigh``.
A component in band form is reduced to a tridiagonal matrix (LAPACK
``dsbtrd``), whose eigenvalues ``dsterf`` computes.  A count (the ``ids``
rows, :func:`count_below`, :func:`five_operator_counts`) is one array, read
off ``block_eigenvalues(op, cap, shifts)`` at the shifts it needs; it takes
a band component's from Sturm counts of the tridiagonal, never its values.

Counting is right continuous: ``count(E)`` is the number of eigenvalues
lambda <= E + count_tol.  Kernel membership uses |lambda| <= kernel_tol
relative to the max-row-sum norm; the matrices here have integer entries,
so at desk scale true eigenvalue gaps sit far above both tolerances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._parallel import run_indexed
from .cayley import (
    CayleyBall,
    GroupSpec,
    enumerate_ball,
    is_bipartite,
    tetrahedron,
)
from .errors import BudgetError, DegenerateSpectrumError, LapackError
from .operators import (
    ADJACENCY,
    DIRICHLET,
    NEUMANN,
    LabeledOperator,
    _diag_for,
    anderson,
    free_laplacian,
    subgraph_laplacian,
)
from .percolation import SITE, PercolationModel, PercolationSample, sample

KERNEL_TOL = 1e-8
COUNT_TOL = 1e-9
DENSE_CAP = 4000
MIN_IDS_SAMPLES = 10

# A component of at least _BAND_FLOOR vertices whose band width w (bandwidth
# plus one) in its window's band order satisfies size >= _BAND_RATIO * w is
# solved in band form.  The ratios were measured for the full band solve
# (scipy's eig_banded, that is dsbtrd then dsterf) against the dense one, one
# BLAS thread, on free Laplacians: 0.32 on a 257-vertex Z segment (w = 2),
# 0.77 on Z^2 B(11) (265 vertices, w = 13), 0.65 on Z^2 B(16) (545, w = 18),
# 0.42 on Z^2 B(24) (1201, w = 26); but 2.5 on the lamplighter B(5) of Z_3 wr
# Z (size / w = 3.0), which stays dense.  The ratio was set on reverse
# Cuthill-McKee's wider orders: Z^3 B(8) (size / w = 13.4) stays dense,
# though its band solve would take 0.71 of the dense time.  A counted band
# component skips dsterf, so the break-even moved; retuning the ratio moves
# which components take the band path, so it waits on a check of the pinned
# bytes (ROADMAP item 2).
_BAND_FLOOR = 256
_BAND_RATIO = 16
# pivot rows a Sturm pass holds at once (see _sturm_counts)
_STURM_ROWS = 128


# ---------------------------------------------------------------------------
# per-component spectra
# ---------------------------------------------------------------------------

# LAPACK dsbtrd as scipy.linalg.cython_lapack exports it: its capsule's name
# is the C signature (``d`` is Cython's typedef of double)
_DSBTRD_SIGNATURE = ("void (char *, char *, int *, int *, d *, int *, d *, d *, "
                     "d *, int *, d *, int *)").replace(
    "d *", "__pyx_t_5scipy_6linalg_13cython_lapack_d *")


@functools.cache
def _dsbtrd():
    """LAPACK ``dsbtrd`` (``vect='N'``, ``uplo='L'``), bound once with ctypes.

    scipy's Python LAPACK API does not wrap it, so it is called through the
    C function that ``scipy.linalg.cython_lapack`` exports, as numba binds
    scipy's LAPACK.  Raises :class:`LapackError` when that export's
    signature is not the expected one.  The returned function takes the
    lower band of a symmetric matrix of order n as an ``(n, w)`` C-ordered
    array, ``band[j, r] = A[j + r, j]``, which is LAPACK's column-major
    ``AB``, overwrites it and returns the tridiagonal form's diagonal and
    off-diagonal.
    """
    import ctypes

    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dsbtrd"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    if name != _DSBTRD_SIGNATURE.encode():
        raise LapackError(f"scipy.linalg.cython_lapack exports dsbtrd as "
                          f"{name!r}, not {_DSBTRD_SIGNATURE!r}")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    i, p = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    fn = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, i, i, p, i,
                          p, p, p, i, p, i)(address)

    def dsbtrd(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        band = np.ascontiguousarray(band, dtype=np.float64)
        n, width = band.shape
        d, e, work = np.empty(n), np.empty(n), np.empty(n)
        n_, kd, ldab, ldq, info = map(ctypes.c_int, (n, width - 1, width, 1, 0))
        # Q is not referenced with vect 'N'
        fn(b"N", b"L", n_, kd, band.ctypes.data, ldab, d.ctypes.data,
           e.ctypes.data, None, ldq, work.ctypes.data, info)
        if info.value:
            raise LapackError(f"dsbtrd returned info {info.value}")
        return d, e[:n - 1]

    return dsbtrd


def _band_tridiagonal(op: LabeledOperator,
                      members: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Tridiagonal form of one connected component of ``op`` in band form.

    Orders the component's ``members`` (positions in ``op``) by their
    window's ``band_rank``, or by index on an operator without a window,
    scatters the lower band straight from the CSR arrays and reduces it with
    LAPACK ``dsbtrd`` (:func:`_dsbtrd`); returns the diagonal and
    off-diagonal ``(d, e)``, or None, reducing nothing, when that band is
    too wide for the band path to beat a dense solve.
    """
    n = len(members)
    if op.window is not None:
        members = members[np.argsort(op.window.band_rank[op.index_set[members]])]
    rank = np.full(op.dim, -1, dtype=np.int64)
    rank[members] = np.arange(n)
    row, col = rank[op.entry_rows], rank[op.indices]
    # entries join members only to members, so col >= 0 keeps the component
    lower = (row >= col) & (col >= 0)
    offset = row[lower] - col[lower]
    width = int(offset.max()) + 1
    if n < _BAND_RATIO * width:
        return None
    band = np.zeros((n, width))
    band[col[lower], offset] = op.data[lower]
    return _dsbtrd()(band)


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The sorted eigenvalues of the symmetric tridiagonal matrix (d, e),
    from LAPACK ``dsterf``: after ``dsbtrd``, bit for bit what scipy's
    ``eig_banded(..., eigvals_only=True)`` (LAPACK ``dsbevd``) returns."""
    from scipy.linalg import lapack

    vals, info = lapack.dsterf(d, e)
    if info:
        raise LapackError(f"dsterf returned info {info}")
    return vals


def _sturm_counts(d: np.ndarray, e: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues <= each shift of the symmetric tridiagonal
    matrix (d, e): the non-positive pivots of the LDL^T factorisation of
    T - shift, all shifts in one pass.  As in LAPACK ``dlaebz``, a pivot
    smaller in magnitude than ``pivmin`` is taken as -pivmin, so a shift
    that hits a pivot exactly is counted once and the recurrence stays
    finite.  The pivots are held _STURM_ROWS rows at a time, so a long
    energy grid needs no (n, shifts) array."""
    e2 = e * e
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(e2.max(initial=0.0)))
    count = np.zeros(len(shifts), dtype=np.int64)
    previous = None
    for start in range(0, len(d), _STURM_ROWS):
        # row j: d_j - shifts, then pivot j
        pivots = np.subtract.outer(d[start:start + _STURM_ROWS], shifts)
        for j, row in enumerate(pivots, start):
            if j:
                row -= e2[j - 1] / previous
            np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
            previous = row
        count += np.count_nonzero(pivots <= 0, axis=0)
    return count


def block_eigenvalues(op: LabeledOperator, dense_cap: int = DENSE_CAP,
                      shifts=None) -> np.ndarray:
    """All eigenvalues via per-connected-component solves, or, given
    ``shifts``, the number of them <= each shift.

    Percolation operators decompose over clusters, so in the subcritical
    regime components stay small even when the window is large.  A
    component of at least ``_BAND_FLOOR`` vertices whose members, ordered
    by the window's ``band_rank``, form a band of at most 1/``_BAND_RATIO``
    of its size (giant clusters on Z and Z^2) takes the band path: it is
    reduced to tridiagonal form by :func:`_band_tridiagonal`.  One pass
    scatters the other components' stored entries into zero-filled dense
    blocks, one ``(count, size, size)`` stack per component size, with each
    vertex at its rank by index inside its component; the canonical form
    stores each position once, so the scatter is a plain assignment.  Each
    stack then takes one batched LAPACK call, and a size-1 component is just
    its diagonal entry.  A component above ``dense_cap`` raises
    :class:`BudgetError`, whichever solve it would take.

    Without ``shifts``, returns every eigenvalue, sorted; a band component's
    are :func:`_tridiagonal_eigenvalues`.  With ``shifts``, returns one int64
    array, the number of eigenvalues <= each shift over all components: a
    dense component's are counted by ``searchsorted`` in its values, a band
    component's by :func:`_sturm_counts`, which computes none.
    """
    counting = shifts is not None
    below = np.zeros(len(shifts) if counting else 0, dtype=np.int64)

    def read_out(vals):
        return below + np.searchsorted(vals, shifts, side="right") if counting else vals

    n = op.dim
    if n == 0:
        return read_out(np.zeros(0))
    ncomp, labels = op.components()
    sizes = np.bincount(labels)
    if sizes.max() > dense_cap:
        raise BudgetError(
            f"connected component of dimension {int(sizes.max())} exceeds the "
            f"dense cap {dense_cap}")
    out = []
    dense = np.ones(ncomp, dtype=bool)  # components left for the dense solves
    for c in np.flatnonzero(sizes >= _BAND_FLOOR):
        tridiagonal = _band_tridiagonal(op, np.flatnonzero(labels == c))
        if tridiagonal is None:
            continue
        dense[c] = False
        if counting:
            below += _sturm_counts(*tridiagonal, shifts)
        else:
            out.append(_tridiagonal_eigenvalues(*tridiagonal))
    if ncomp == 1 and dense[0]:
        # kept for the pinned sums, as bounds keeps its full tetrahedron
        # solve below _CERTIFICATE_FLOOR: see the README on reproducibility
        from scipy import linalg

        return read_out(np.sort(linalg.eigvalsh(op.to_dense())))
    order = np.argsort(labels, kind="stable")
    local = np.empty(n, dtype=np.int64)
    local[order] = np.arange(n) - (np.cumsum(sizes) - sizes)[labels[order]]
    # dense blocks ordered by size, then by component label, in one flat
    # buffer; a component on the band path takes no room
    by_size = np.argsort(sizes, kind="stable")
    block_len = np.where(dense, sizes, 0)[by_size] ** 2
    base = np.empty(ncomp, dtype=np.int64)
    base[by_size] = np.cumsum(block_len) - block_len
    flat = np.zeros(int(block_len.sum()))
    comp = labels[op.entry_rows]
    keep = dense[comp]
    row, col, comp = op.entry_rows[keep], op.indices[keep], comp[keep]
    flat[base[comp] + local[row] * sizes[comp] + local[col]] = op.data[keep]
    start = 0
    for size, count in zip(*np.unique(sizes[dense], return_counts=True)):
        stop = start + count * size * size
        stack = flat[start:stop].reshape(count, size, size)
        out.append(stack.ravel() if size == 1
                   else np.linalg.eigvalsh(stack).ravel())
        start = stop
    return read_out(np.sort(np.concatenate(out)) if out else np.zeros(0))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _counts(vals: np.ndarray, energies) -> np.ndarray:
    """Number of the sorted ``vals`` <= E + count_tol, at each energy."""
    return np.searchsorted(vals, np.asarray(energies) + COUNT_TOL, side="right")


def _just_below(shifts):
    """The next double down from each shift: a count there is of eigenvalues
    < shift, so a count difference counts a closed window."""
    return np.nextafter(shifts, -np.inf)


def count_below(op: LabeledOperator, energy: float,
                dense_cap: int = DENSE_CAP) -> int:
    """Number of eigenvalues <= energy + count_tol.

    Counts per component with :func:`block_eigenvalues`, so any operator
    whose connected components all fit under ``dense_cap`` is counted,
    however large its dimension; a larger component raises
    :class:`BudgetError`.
    """
    return int(block_eigenvalues(op, dense_cap, [energy + COUNT_TOL])[0])


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
    solve: str  # "direct", or "reflected from neumann" (see empirical_ids)


def _ids_sample_task(ctx, i):
    dense_cap = ctx["dense_cap"]
    source = ctx["source"]
    k = ctx["ball"].k
    g = len(ctx["grid"])

    s = sample(ctx["model"], ctx["ball"], i)
    # the window-induced percolation subgraph: the sample with every item
    # outside the window closed
    sub_int = replace(s, open_marks=s.open_marks & ctx["item_mask"]).subgraph()
    # the full-sample operator compressed onto the window: sub_int with the
    # full sample's degrees, plus an isolated vertex for each window vertex
    # whose open edges all leave the window (bond only: not in sub_int)
    full = np.bincount(s.open_edges().ravel(), minlength=len(ctx["ball"]))
    degrees = full[sub_int.vertex_indices]
    full[sub_int.vertex_indices] = 0
    isolated = full[ctx["window_mask"] & (full > 0)]

    # the boundary conditions share sub_int and its labels and differ in the
    # diagonal; each solve counts both window spectra at the shifts: the
    # grid + count_tol, just below its reflection 2k - (grid + count_tol), and
    # the closed kernel windows |E| <= t and |2k - E| <= t'
    solved = {}
    for bc in dict.fromkeys(source.values()):
        op_int = subgraph_laplacian(sub_int, bc)
        t, t_reflected = KERNEL_TOL * op_int.inf_norm(), KERNEL_TOL * 2.0 * k
        shifts = np.concatenate([ctx["shifts"], _just_below([-t, 2.0 * k - t_reflected]),
                                 [t, 2.0 * k + t_reflected]])
        count_int = block_eigenvalues(op_int, dense_cap, shifts)
        # the adjacency diagonal is k whatever the degrees
        count_comp = count_int if bc == ADJACENCY else \
            block_eigenvalues(subgraph_laplacian(sub_int, bc, degrees), dense_cap,
                              shifts)
        # an isolated vertex's eigenvalue is its diagonal entry
        diagonal = np.sort(np.broadcast_to(_diag_for(bc, k, isolated), isolated.shape))
        count_comp = count_comp + np.searchsorted(diagonal, shifts, side="right")
        solved[bc] = (count_int, count_comp)

    rows = []
    for bc in ctx["bcs"]:
        count_int, count_comp = solved[source[bc]]
        if source[bc] == bc:
            rows += [count_int[:g], count_comp[:g]]
            kernel = count_int[-2] - count_int[-4]
        else:
            # on a bipartite ball the +-1 colouring turns 2k - D - A into
            # 2k - (D - A), also on principal submatrices, so each Neumann E
            # is a Dirichlet 2k - E, <= grid + count_tol when E >= 2k - that
            rows += [sub_int.size - count_int[g:2 * g],
                     sub_int.size + len(isolated) - count_comp[g:2 * g]]
            kernel = count_int[-1] - count_int[-3]
        rows.append([kernel])
    return np.concatenate(rows) / ctx["window_size"]


def empirical_ids(group: GroupSpec, model: PercolationModel, bc, *,
                  radius: int | None = None, depth: int | None = None,
                  n_samples: int, energy_grid, workers: int = 1,
                  dense_cap: int = DENSE_CAP,
                  budget: int | None = None) -> IDSEstimate | dict:
    """Monte Carlo estimate of the IDS from finite-window eigenvalue counts.

    The window is the ball B(radius) (polynomial growth) or the depth-n
    tetrahedron (lamplighter).  Each sample counts the intrinsic window
    operator and the compression of the full-sample operator onto the
    window, both built on the one intrinsic subgraph: the compression takes
    the full sample's degrees, counted on the one-step-larger ball, and each
    window vertex whose open edges all leave the window (bond only) adds its
    diagonal entry as an eigenvalue.  The reported mean is the intrinsic count;
    the bracket columns envelope both conventions, which monitors the
    finite-window boundary bias.  ``n_at_zero`` is the normalized kernel
    mass of the intrinsic operator.

    ``bc`` is one boundary condition, which returns an :class:`IDSEstimate`,
    or a sequence of distinct ones, which returns ``{bc: IDSEstimate}`` in
    the given order; each sample is drawn once and serves every one of them.
    Every count is one array of :func:`block_eigenvalues` at the shifts.  On
    a bipartite ball the Dirichlet counts are the Neumann solves' counts at
    the reflected shifts, and Neumann is solved for them even when it is not
    asked for; ``solve`` on each estimate says which.
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
        idx = ball.find_vertices(tetrahedron(group.modulus, depth).parent)
        if np.any(idx < 0):
            raise ValueError(f"B({2 * depth + 1}) of {group.label()} misses "
                             f"part of the depth-{depth} tetrahedron")
        window_mask[idx] = True
        window_descr = {"depth": depth}
    else:
        window_mask[:ball.volume(radius)] = True
        window_descr = {"radius": radius}
    # the sample items inside the window: sites in it, or edges with both ends in it
    item_mask = window_mask if model.kind == SITE \
        else window_mask[ball.edges].all(axis=1)

    # the boundary condition whose solve gives each one's spectra
    reflect = is_bipartite(ball)
    source = {name: NEUMANN if reflect and name == DIRICHLET else name
              for name in bcs}

    # where every count is taken: at the grid, and just below its
    # reflection for a Dirichlet count read off Neumann (see _ids_sample_task)
    top = grid + COUNT_TOL
    shifts = np.concatenate([top, _just_below(2.0 * ball.k - top)])
    ctx = {"ball": ball, "window_mask": window_mask, "item_mask": item_mask,
           "window_size": int(window_mask.sum()), "model": model, "bcs": bcs,
           "source": source, "grid": grid, "shifts": shifts,
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
            params=params,
            solve="direct" if source[name] == name
            else f"reflected from {source[name]}")
    return out[bc] if single else out


# ---------------------------------------------------------------------------
# five-operator counting audit
# ---------------------------------------------------------------------------

def five_operator_counts(s: PercolationSample, energy_grid, couplings, free,
                         dense_cap: int = DENSE_CAP) -> dict:
    """Normalized eigenvalue counts of the comparison chain on one sample.

    For a site sample on a window, counts (per energy, divided by the
    window size) for: the zero-extended Neumann operator, the free window
    Laplacian, the two-valued-potential Hamiltonian at each coupling, and
    the adjacency and Dirichlet operators of the active set.  The form
    ordering makes these counting functions pointwise decreasing along
    that list, sample by sample.  ``free`` is the sorted spectrum of the
    free window Laplacian, the same for every sample, so a run of many
    samples solves it once.
    """
    grid = np.asarray(energy_grid, dtype=np.float64)
    g = len(grid)
    window = s.window
    norm = float(len(window))
    sub = s.subgraph()
    # every count is taken at the grid, and the Neumann one just below its
    # reflection too (see _ids_sample_task)
    top = grid + COUNT_TOL

    def counts(op):
        return block_eigenvalues(op, dense_cap, top) / norm

    def perc(bc):
        return subgraph_laplacian(sub, bc)

    neumann = block_eigenvalues(perc(NEUMANN), dense_cap,
                                np.concatenate([top, _just_below(2.0 * window.k - top)]))
    out = {}
    # extend(perc(NEUMANN), window, 0) adds the eigenvalue 0 once per
    # window vertex outside the active set
    out["neumann_extended"] = (neumann[:g]
                               + (len(window) - sub.size) * (grid >= -COUNT_TOL)) / norm
    out["free"] = _counts(free, grid) / norm
    for lam in couplings:
        out[f"anderson:{lam:g}"] = counts(anderson(s, window, lam))
    out["adjacency"] = counts(perc(ADJACENCY))
    out["dirichlet"] = ((sub.size - neumann[g:]) / norm if is_bipartite(window)
                        else counts(perc(DIRICHLET)))
    return out


# ---------------------------------------------------------------------------
# free IDS on Z^d
# ---------------------------------------------------------------------------

@dataclass
class FreeIDSValue:
    value: float
    error: float
    method: str


# Gauss–Legendre nodes a panel in free_ids_zd, whose error (the change from
# half as many) stays below 1.2e-7 on (0, 4d), largest on Z^2 beside E = 4
_GAUSS_NODES = 32


def _free_ids_rule(d: int, energies: np.ndarray, s, w) -> np.ndarray:
    """N_d at each of ``energies``, each panel on the Gauss–Legendre nodes
    ``s`` moved to [0, 1] and their weights ``w`` on [-1, 1] (free_ids_zd)."""
    if d == 1:
        return np.arccos(np.clip(1.0 - energies / 2.0, -1.0, 1.0)) / np.pi
    # the panels end where the inner energy crosses 4j, j = d-1, ..., 0
    ends = np.arccos(np.clip(1.0 - energies[..., None] / 2.0
                             + 2.0 * np.arange(d - 1, -1, -1), -1.0, 1.0))
    width = np.diff(ends, prepend=0.0)
    theta = ends[..., None] + width[..., None] * (3.0 * s ** 2 - 2.0 * s ** 3 - 1.0)
    inner = _free_ids_rule(d - 1, energies[..., None, None]
                           - 2.0 * (1.0 - np.cos(theta)), s, w)
    return ((inner @ (3.0 * s * (1.0 - s) * w)) * width).sum(axis=-1) / np.pi


def free_ids_zd(d: int, energy: float) -> FreeIDSValue:
    """IDS of the free Laplacian on Z^d at one energy.  d = 1 is arccos(1 -
    E/2)/pi; d >= 2 is N_d(E) = (1/pi) int_0^pi N_(d-1)(E - 2(1 - cos t)) dt,
    by Gauss–Legendre on panels split where the inner energy crosses 4j, each
    as t = a + (b - a)(3s^2 - 2s^3) to smooth its square-root ends; ``error``
    is the change from half as many nodes, refused above 1e-6.  Energies
    outside [0, 4d] clamp to 0 or 1, with method ``clamped``.
    """
    if not 1 <= d <= 4:
        raise ValueError("dimension must be between 1 and 4")
    if energy <= 0.0:
        return FreeIDSValue(0.0, 0.0, "clamped" if energy < 0 else "exact")
    if energy >= 4.0 * d:
        return FreeIDSValue(1.0, 0.0, "clamped" if energy > 4 * d else "exact")
    if d == 1:
        return FreeIDSValue(float(np.arccos(1.0 - energy / 2.0) / np.pi),
                            1e-12, "closed-form")
    from numpy.polynomial import legendre  # only d >= 2 loads it

    rules = map(legendre.leggauss, (_GAUSS_NODES, _GAUSS_NODES // 2))
    value, half = (float(_free_ids_rule(d, np.array(energy), (s + 1.0) / 2.0, w))
                   for s, w in rules)
    if abs(value - half) > 1e-6:
        raise RuntimeError("quadrature error estimate above 1e-6")
    return FreeIDSValue(value, abs(value - half), "quadrature")


@dataclass
class FreeIDSTrace:
    energies: np.ndarray
    values: np.ndarray
    trace: list


def free_ids_ball(ball: CayleyBall, energies, trace_radii=None,
                  dense_cap: int = DENSE_CAP) -> FreeIDSTrace:
    """Free IDS by exhaustion: <chi_(-inf,E] (Delta(B(n))) delta_id, delta_id>.

    Returns the value at the ball's radius together with the sequence over
    ``trace_radii`` (default: every radius from 1 up) so convergence is
    visible.
    """
    grid = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    radius = ball.radius
    if trace_radii is None:
        trace_radii = range(1, radius + 1)
    trace_radii = sorted(set(int(r) for r in trace_radii) | {radius})
    if trace_radii[0] < 0 or trace_radii[-1] > radius:
        raise ValueError("trace radius outside [0, radius]")
    if len(ball) > dense_cap:
        raise BudgetError(f"ball B({radius}) has {len(ball)} vertices, above "
                          f"the dense cap {dense_cap}")
    from scipy import linalg

    # B(r) is a prefix of the ball, so its adjacency Laplacian is the
    # leading principal block of the whole ball's
    dense = free_laplacian(ball).to_dense()
    trace = []
    for r in trace_radii:
        nv = ball.volume(r)
        vals, vecs = linalg.eigh(dense[:nv, :nv])
        overlap = vecs[0, :] ** 2
        vaux = np.array([overlap[vals <= e + COUNT_TOL].sum() for e in grid])
        trace.append((r, vaux))
    return FreeIDSTrace(energies=grid, values=trace[-1][1], trace=trace)


# ---------------------------------------------------------------------------
# random-walk return probability
# ---------------------------------------------------------------------------

@dataclass
class ReturnProbability:
    steps: int
    value: float


def max_exact_return_n(spec: GroupSpec) -> int | float:
    """Largest n for which :func:`return_probability` is exact.

    The n-step walk counts, at most k^n, must stay within 2^52, so
    n * log2(k) <= 52.  A degree-1 generator set has no limit.
    """
    bits = math.log2(spec.k)
    return math.floor(52 / bits) if bits else math.inf


def return_probability(ball: CayleyBall, n: int) -> ReturnProbability:
    """Exact return probability of the simple random walk after 2n steps.

    A closed walk of length 2n is an n-step walk from the identity to some
    g and one from g back, so it is counted by the sum over g of the
    squared n-step counts.  Those walks never leave B(n), a prefix of
    ``ball``.  The counts stay below 2^53 for n <=
    :func:`max_exact_return_n`, so the float steps are exact; the squares
    are summed in Python integers.
    """
    if not 1 <= n <= ball.radius:
        raise ValueError(f"need 1 <= n <= {ball.radius}, the ball's radius")
    if n > max_exact_return_n(ball.spec):
        raise ValueError("walk count would overflow exact float range")
    size = ball.volume(n)
    # the edges of the prefix B(n): both ends have index < size
    u, v = ball.edges[ball.edges[:, 1] < size].T
    vec = np.zeros(size)
    vec[0] = 1.0
    for _ in range(n):
        vec = np.bincount(u, vec[v], size) + np.bincount(v, vec[u], size)
    closed = sum(w * w for w in vec.astype(np.int64).tolist())
    return ReturnProbability(steps=2 * n, value=closed / ball.spec.k ** (2 * n))


# ---------------------------------------------------------------------------
# exact subcritical site IDS on the line
# ---------------------------------------------------------------------------

def _line_cluster_eigenvalues(s: int, bc: str) -> np.ndarray:
    """Eigenvalues of the boundary-condition Laplacian of an s-site segment of Z."""
    if bc == ADJACENCY:
        return 2.0 * (1.0 - np.cos(np.pi * np.arange(1, s + 1) / (s + 1)))
    if bc == NEUMANN:
        return 2.0 * (1.0 - np.cos(np.pi * np.arange(s) / s))
    # Dirichlet, tridiagonal with diagonal (3, 2, ..., 2, 3): a segment is
    # bipartite, so its spectrum is 4 minus the Neumann one
    return 2.0 + 2.0 * np.cos(np.pi * np.arange(s) / s)


def line_site_ids_oracle(p: float, energies, bc: str) -> np.ndarray:
    """Exact subcritical site-percolation IDS on Z by direct summation.

    Clusters on the line are segments; a given vertex is the left end of an
    s-cluster with probability p^s (1-p)^2, so the IDS is the weighted sum
    of segment spectra over sizes.  The size cutoff keeps the
    truncated tail below 1e-40 for p <= 0.85; beyond that the hard cap of
    600 sizes bounds the truncation by p^600.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("need 0 < p < 1")
    s_max = int(min(600, np.ceil(np.log(1e-40) / np.log(p))))
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
