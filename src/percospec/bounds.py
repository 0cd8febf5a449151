"""Eigenvalue bounds: geometric lower bounds, test-function upper bounds,
and the lamplighter tetrahedron self-checks.

The lower bounds tie the lowest (nonzero) eigenvalue of a finite connected
subgraph to its volume: lambda^A * phi(|G'|)^2 >= alpha and
lambda^N * |G'|^2 >= alpha_N.  The upper bounds come from explicit test
vectors: a radially decaying vector certifies
lambda^D(B(n)) <= gamma * V(n) / (n^2 V(n//2)), and the linear vector on a
path certifies lambda^N(L_n) <= gamma_N / n^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.sparse import csgraph

from .cayley import (
    CayleyBall,
    FiniteSubgraph,
    GroupSpec,
    enumerate_ball,
    induced_subgraph,
    inner_vertex_boundary,
    tetrahedron,
)
from .errors import DegenerateSpectrumError, OracleViolationError
from .operators import ADJACENCY, DIRICHLET, NEUMANN, LabeledOperator, subgraph_laplacian
from .spectra import lowest_nonzero

DIRICHLET_RADIAL = "dirichlet_radial"
NEUMANN_LINEAR = "neumann_linear"
CUSTOM = "custom"


@dataclass(eq=False)
class TestFunction:
    """A trial vector over the vertices of a finite subgraph."""

    subgraph: FiniteSubgraph
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) != self.subgraph.size:
            raise ValueError("one value per subgraph vertex required")


def dirichlet_radial(ball: CayleyBall, n: int) -> TestFunction:
    """Radial vector on B(n): height i on the sphere of radius n-i up to
    i = ceil(n/2), constant ceil(n/2) on the inner half-ball.  Extended by
    zero outside B(n), so its Dirichlet form is a sum over edges only.
    """
    if n < 1 or n > ball.radius:
        raise ValueError("need 1 <= n <= ball radius")
    sub = induced_subgraph(ball, ball.ball_indices(n))
    wl = ball.word_length[sub.vertex_indices]
    half = int(np.ceil(n / 2))
    values = np.minimum(n - wl, half).astype(np.float64)
    return TestFunction(subgraph=sub, values=values, kind=DIRICHLET_RADIAL)


def neumann_linear(path: FiniteSubgraph) -> TestFunction:
    """Linear vector along a path: (-n+1)/2, ..., (n-1)/2 in path order."""
    n = path.size
    values = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    return TestFunction(subgraph=path, values=values, kind=NEUMANN_LINEAR)


def rayleigh(op: LabeledOperator, test: TestFunction) -> float:
    """Rayleigh quotient <phi, H phi> / <phi, phi>.

    For Neumann operators the vector is first orthogonalised against the
    constant vector on each connected component, i.e. against the kernel;
    a vector that vanishes after orthogonalisation is rejected.
    """
    phi = test.values.copy()
    if op.bc == NEUMANN:
        ncomp, labels = csgraph.connected_components(op.matrix, directed=False)
        for c in range(ncomp):
            mask = labels == c
            phi[mask] -= phi[mask].mean()
    norm2 = float(phi @ phi)
    if norm2 <= 1e-24 * max(1.0, float(test.values @ test.values)):
        raise DegenerateSpectrumError(
            "test vector lies in the kernel after orthogonalisation")
    return float(phi @ (op.matrix @ phi)) / norm2


# ---------------------------------------------------------------------------
# bound fits
# ---------------------------------------------------------------------------

@dataclass
class BoundFit:
    family: str
    constants: dict
    fit_range: tuple
    violations: int
    per_member: list


def lower_bound_check_adjacency(family, growth, holdout=None) -> BoundFit:
    """Largest alpha with lambda^A(G') * phi(|G'|)^2 >= alpha over the family
    (the volume-scaling constant inside phi is fixed to 1).  Violations are
    counted on the held-out family, if given.
    """
    per_member = []
    for sub in family:
        if not sub.connected:
            raise ValueError("family members must be connected")
        lam = lowest_nonzero(subgraph_laplacian(sub, ADJACENCY))
        phi = float(growth.phi(sub.size))
        per_member.append({"size": sub.size, "lambda": lam, "phi": phi,
                           "product": lam * phi * phi})
    alpha = min(m["product"] for m in per_member)
    violations = 0
    if holdout:
        for sub in holdout:
            lam = lowest_nonzero(subgraph_laplacian(sub, ADJACENCY))
            phi = float(growth.phi(sub.size))
            if lam * phi * phi < alpha * (1 - 1e-12):
                violations += 1
    sizes = [m["size"] for m in per_member]
    return BoundFit(family="adjacency_lower", constants={"alpha": alpha, "beta": 1.0},
                    fit_range=(min(sizes), max(sizes)), violations=violations,
                    per_member=per_member)


def lower_bound_check_neumann(family, holdout=None) -> BoundFit:
    """Largest alpha_N with lambda^N(G') * |G'|^2 >= alpha_N over the family."""
    per_member = []
    for sub in family:
        if not sub.connected or sub.size < 2:
            raise ValueError("family members must be connected with >= 2 vertices")
        lam = lowest_nonzero(subgraph_laplacian(sub, NEUMANN))
        per_member.append({"size": sub.size, "lambda": lam,
                           "product": lam * sub.size ** 2})
    alpha = min(m["product"] for m in per_member)
    violations = 0
    if holdout:
        for sub in holdout:
            lam = lowest_nonzero(subgraph_laplacian(sub, NEUMANN))
            if lam * sub.size ** 2 < alpha * (1 - 1e-12):
                violations += 1
    sizes = [m["size"] for m in per_member]
    return BoundFit(family="neumann_lower", constants={"alpha_N": alpha},
                    fit_range=(min(sizes), max(sizes)), violations=violations,
                    per_member=per_member)


def upper_bound_check_dirichlet(spec: GroupSpec, n_range,
                                budget: int | None = None) -> BoundFit:
    """Certify lambda^D(B(n)) <= gamma * V(n) / (n^2 V(n//2)) over a radius range.

    For each n the radial test vector gives a Rayleigh certificate above
    lambda^D(B(n)); gamma is fitted as the largest ratio of lambda to the
    bound shape, and gamma_rayleigh as the same ratio for the certificates.
    """
    ns = sorted(int(n) for n in n_range)
    ball = enumerate_ball(spec, max(ns), budget)
    volumes = {r: ball.volume(r) for r in range(max(ns) + 1)}
    per_member = []
    for n in ns:
        sub = induced_subgraph(ball, ball.ball_indices(n))
        op = subgraph_laplacian(sub, DIRICHLET)
        lam = lowest_nonzero(op)
        ray = rayleigh(op, dirichlet_radial(ball, n))
        if ray < lam - 1e-10:
            raise OracleViolationError(
                f"Rayleigh certificate below the smallest eigenvalue at n={n}")
        shape = volumes[n] / (n ** 2 * volumes[n // 2])
        per_member.append({"n": n, "lambda": lam, "rayleigh": ray,
                           "shape": shape, "ratio": lam / shape,
                           "rayleigh_ratio": ray / shape})
    gamma = max(m["ratio"] for m in per_member)
    gamma_ray = max(m["rayleigh_ratio"] for m in per_member)
    return BoundFit(family="dirichlet_upper",
                    constants={"gamma_D": gamma, "gamma_D_rayleigh": gamma_ray},
                    fit_range=(ns[0], ns[-1]), violations=0,
                    per_member=per_member)


# ---------------------------------------------------------------------------
# tetrahedron oracle
# ---------------------------------------------------------------------------

@dataclass
class TetrahedronReport:
    m: int
    n: int
    vertex_count: int
    expected_count: int
    target_eigenvalue: float
    eigenvalue_gap: float
    eigenspace_dim: int
    boundary_ratio: float


# T_1 is K_{m,m}, whose adjacency Laplacian has spectrum {m, 2m, 3m}: the
# eigenvalue fact 2m(1 - cos pi/n) = 4m fails at depth 1.
MIN_TETRAHEDRON_DEPTH = 2


def tetrahedron_checks(m: int, n: int, ball: CayleyBall | None = None,
                       budget: int | None = None,
                       tol: float = 1e-8) -> TetrahedronReport:
    """Verify the three tetrahedron facts; raise on any failure.

    (a) exactly (n+1) m^n vertices; (b) 2m(1 - cos pi/n) is an eigenvalue
    of the adjacency Laplacian; (c) the eigenspace contains a vector that
    vanishes on the inner vertex boundary (computed against the full
    Cayley graph).  The facts hold from depth ``MIN_TETRAHEDRON_DEPTH`` on.
    """
    if n < MIN_TETRAHEDRON_DEPTH:
        raise ValueError(f"the tetrahedron facts need depth n >= "
                         f"{MIN_TETRAHEDRON_DEPTH}, got {n}")
    if ball is None:
        ball = enumerate_ball(GroupSpec.lamplighter(m), 2 * n, budget)
    tet = tetrahedron(m, n, ball)
    expected = (n + 1) * m ** n
    if tet.size != expected:
        raise OracleViolationError(
            f"tetrahedron({m},{n}) has {tet.size} vertices, expected {expected}")
    op = subgraph_laplacian(tet, ADJACENCY)
    dense = op.to_dense()
    vals, vecs = linalg.eigh(dense)
    target = 2.0 * m * (1.0 - np.cos(np.pi / n))
    gap = float(np.min(np.abs(vals - target)))
    if gap > tol:
        raise OracleViolationError(
            f"no eigenvalue of the depth-{n} tetrahedron within {tol} of "
            f"{target}: nearest at distance {gap}")
    sel = np.abs(vals - target) <= tol
    space = vecs[:, sel]
    rows = op.local_of(inner_vertex_boundary(tet))
    # the flattest direction of the eigenspace on the boundary rows
    _, _, vt = np.linalg.svd(space[rows, :], full_matrices=True)
    vec = space @ vt[-1]
    ratio = float(np.max(np.abs(vec[rows])) / np.max(np.abs(vec)))
    if ratio > tol:
        raise OracleViolationError(
            f"no eigenvector at {target} vanishes on the inner boundary "
            f"(best max-norm ratio {ratio})")
    return TetrahedronReport(m=m, n=n, vertex_count=tet.size,
                             expected_count=expected, target_eigenvalue=target,
                             eigenvalue_gap=gap, eigenspace_dim=int(sel.sum()),
                             boundary_ratio=ratio)


# ---------------------------------------------------------------------------
# inputs for the IDS sandwich
# ---------------------------------------------------------------------------

@dataclass
class SandwichInputs:
    labels: np.ndarray
    sizes: np.ndarray
    thresholds: np.ndarray
    lambdas: np.ndarray

    def member_at(self, energy: float) -> int:
        """First family position whose threshold c_n lies at or below E."""
        ok = np.flatnonzero(self.thresholds <= energy)
        if not len(ok):
            raise ValueError(f"no family member with threshold <= {energy}")
        return int(ok[0])

    def size_at(self, energy: float) -> int:
        return int(self.sizes[self.member_at(energy)])


def sandwich_inputs(family, c_values, bc: str, labels=None,
                    tol: float = 1e-8) -> SandwichInputs:
    """Verify lambda^#(G'_n) <= c_n for the supplied thresholds.

    Returns the verified thresholds with sizes and the E -> member map
    used by the IDS lower bound; verification failures report the
    offending labels.
    """
    family = list(family)
    c = np.asarray(c_values, dtype=np.float64)
    if len(c) != len(family):
        raise ValueError("one threshold per family member required")
    if labels is None:
        labels = np.arange(1, len(family) + 1)
    labels = np.asarray(labels)
    lambdas = np.array([lowest_nonzero(subgraph_laplacian(sub, bc))
                        for sub in family])
    bad = np.flatnonzero(lambdas > c + tol)
    if len(bad):
        raise ValueError(
            "threshold verification failed at members "
            f"{labels[bad].tolist()}: lambda={lambdas[bad].tolist()} "
            f"vs c={c[bad].tolist()}")
    sizes = np.array([sub.size for sub in family], dtype=np.int64)
    return SandwichInputs(labels=labels, sizes=sizes, thresholds=c,
                          lambdas=lambdas)
