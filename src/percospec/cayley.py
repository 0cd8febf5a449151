"""Cayley-graph enumeration for the group families used by the lab.

Supported families: free abelian groups Z^d, the discrete Heisenberg group
of 3x3 upper unitriangular integer matrices, and lamplighter wreath products
Z_m wr Z.  Balls are enumerated breadth first from the identity; the vertex
order (BFS layer, then lexicographic encoding) is the canonical order that
every downstream matrix inherits, so results are reproducible bit for bit.

Element encodings:

* free abelian:  integer tuple of length d
* Heisenberg:    integer triple (a, b, c) for the matrix with first row
                 (1, a, b) and second row (0, 1, c)
* lamplighter:   pair (lamps, x) where lamps is a sorted tuple of
                 (position, value) pairs with value != 0 mod m, and x is the
                 walker position
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import BudgetError

DEFAULT_VERTEX_BUDGET = 2_000_000

FREE_ABELIAN = "free_abelian"
HEISENBERG = "heisenberg"
LAMPLIGHTER = "lamplighter"

_KINDS = (FREE_ABELIAN, HEISENBERG, LAMPLIGHTER)


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

def identity_element(spec: "GroupSpec"):
    if spec.kind == FREE_ABELIAN:
        return (0,) * spec.rank
    if spec.kind == HEISENBERG:
        return (0, 0, 0)
    return ((), 0)


def multiply(spec: "GroupSpec", a, b):
    """Group product a * b in the canonical encoding."""
    if spec.kind == FREE_ABELIAN:
        return tuple(x + y for x, y in zip(a, b))
    if spec.kind == HEISENBERG:
        a1, b1, c1 = a
        a2, b2, c2 = b
        return (a1 + a2, b1 + b2 + a1 * c2, c1 + c2)
    m = spec.modulus
    lamps_a, xa = a
    lamps_b, xb = b
    lamps = dict(lamps_a)
    for pos, val in lamps_b:
        q = pos + xa
        v = (lamps.get(q, 0) + val) % m
        if v:
            lamps[q] = v
        else:
            lamps.pop(q, None)
    return (tuple(sorted(lamps.items())), xa + xb)


def inverse(spec: "GroupSpec", a):
    if spec.kind == FREE_ABELIAN:
        return tuple(-x for x in a)
    if spec.kind == HEISENBERG:
        x, y, z = a
        return (-x, x * z - y, -z)
    m = spec.modulus
    lamps, x = a
    return (tuple(sorted((pos - x, (-val) % m) for pos, val in lamps)), -x)


def _validate_element(spec: "GroupSpec", el) -> None:
    if spec.kind == FREE_ABELIAN:
        if not (isinstance(el, tuple) and len(el) == spec.rank
                and all(isinstance(x, int) for x in el)):
            raise ValueError(f"not a Z^{spec.rank} element: {el!r}")
    elif spec.kind == HEISENBERG:
        if not (isinstance(el, tuple) and len(el) == 3
                and all(isinstance(x, int) for x in el)):
            raise ValueError(f"not a Heisenberg element: {el!r}")
    else:
        lamps, x = el
        if not isinstance(x, int):
            raise ValueError(f"walker position must be int: {el!r}")
        if list(lamps) != sorted(lamps) or any(
                not (0 < v < spec.modulus) for _, v in lamps):
            raise ValueError(f"lamp encoding not canonical: {el!r}")


# ---------------------------------------------------------------------------
# group specification
# ---------------------------------------------------------------------------

def _default_generators(kind: str, rank: int, modulus: int) -> tuple:
    if kind == FREE_ABELIAN:
        gens = []
        for i in range(rank):
            e = [0] * rank
            e[i] = 1
            gens.append(tuple(e))
            e = [0] * rank
            e[i] = -1
            gens.append(tuple(e))
        return tuple(gens)
    if kind == HEISENBERG:
        return ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1))
    # lamplighter natural set: right movers setting the lamp one step ahead,
    # then left movers setting the lamp at the current position
    right = [((), 1)] + [(((1, l),), 1) for l in range(1, modulus)]
    left = [((), -1)] + [(((0, l),), -1) for l in range(1, modulus)]
    return tuple(right + left)


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated group with a fixed symmetric generator set."""

    kind: str
    rank: int = 0
    modulus: int = 0
    generators: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == FREE_ABELIAN and self.rank < 1:
            raise ValueError("free abelian rank must be >= 1")
        if self.kind == LAMPLIGHTER and self.modulus < 2:
            raise ValueError("lamplighter modulus must be >= 2")
        if not self.generators:
            raise ValueError("generator set must be nonempty")
        ident = identity_element(self)
        seen = set(self.generators)
        if len(seen) != len(self.generators):
            raise ValueError("generator set contains duplicates")
        if ident in seen:
            raise ValueError("generator set must not contain the identity")
        for g in self.generators:
            _validate_element(self, g)
            if inverse(self, g) not in seen:
                raise ValueError(f"generator set not symmetric: missing inverse of {g!r}")

    @classmethod
    def free_abelian(cls, rank: int, generators=None) -> "GroupSpec":
        gens = tuple(map(tuple, generators)) if generators is not None \
            else _default_generators(FREE_ABELIAN, rank, 0)
        return cls(FREE_ABELIAN, rank=rank, generators=gens)

    @classmethod
    def heisenberg(cls) -> "GroupSpec":
        return cls(HEISENBERG, generators=_default_generators(HEISENBERG, 0, 0))

    @classmethod
    def lamplighter(cls, modulus: int, generators=None) -> "GroupSpec":
        gens = tuple(generators) if generators is not None \
            else _default_generators(LAMPLIGHTER, 0, modulus)
        return cls(LAMPLIGHTER, modulus=modulus, generators=gens)

    @property
    def k(self) -> int:
        """Degree of the Cayley graph (size of the generator set)."""
        return len(self.generators)

    def label(self) -> str:
        if self.kind == FREE_ABELIAN:
            return f"free_abelian:{self.rank}"
        if self.kind == HEISENBERG:
            return "heisenberg"
        return f"lamplighter:{self.modulus}"


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CayleyBall:
    """Metric ball around the identity, with canonical vertex order.

    ``vertices[i]`` is the encoding of vertex ``i``; vertex 0 is the
    identity.  ``edges`` lists each undirected edge once as (u, v) with
    u < v.  Vertices are sorted by word length first, so the sub-ball of
    radius r <= radius is exactly the index prefix 0 .. volume(r) - 1.
    """

    spec: GroupSpec
    radius: int
    vertices: tuple
    word_length: np.ndarray
    edges: np.ndarray
    k: int

    def __post_init__(self):
        self._index = None
        self._adj = None

    def __len__(self) -> int:
        return len(self.vertices)

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in ("_index", "_adj"):
            state[key] = None
        return state

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    def index_of(self, element) -> int:
        return self.index[element]

    def volume(self, r: int) -> int:
        """V(r) = number of vertices with word length <= r."""
        if r >= self.radius:
            return len(self.vertices)
        return int(np.searchsorted(self.word_length, r, side="right"))

    def ball_indices(self, r: int) -> np.ndarray:
        return np.arange(self.volume(r), dtype=np.int64)

    def adjacency_matrix(self) -> sparse.csr_matrix:
        if self._adj is None:
            n = len(self.vertices)
            if len(self.edges):
                u, v = self.edges[:, 0], self.edges[:, 1]
                data = np.ones(2 * len(self.edges))
                self._adj = sparse.csr_matrix(
                    (data, (np.concatenate([u, v]), np.concatenate([v, u]))),
                    shape=(n, n))
            else:
                self._adj = sparse.csr_matrix((n, n))
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """Binary search in the sorted edge list."""
        if u > v:
            u, v = v, u
        lo, hi = np.searchsorted(self.edges[:, 0], [u, u + 1])
        at = lo + np.searchsorted(self.edges[lo:hi, 1], v)
        return bool(at < hi and self.edges[at, 1] == v)


def enumerate_ball(spec: GroupSpec, n: int, budget: int | None = None) -> CayleyBall:
    """Enumerate the ball B(n) by BFS from the identity.

    Deterministic: the vertex order is BFS layer then lexicographic
    encoding, and the edge list is sorted.  Raises :class:`BudgetError`
    once more than ``budget`` vertices (default 2e6) have been discovered.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    cap = DEFAULT_VERTEX_BUDGET if budget is None else int(budget)
    ident = identity_element(spec)
    dist = {ident: 0}
    frontier = [ident]
    for layer in range(1, n + 1):
        nxt = []
        for u in frontier:
            for g in spec.generators:
                v = multiply(spec, u, g)
                if v not in dist:
                    dist[v] = layer
                    nxt.append(v)
                    if len(dist) > cap:
                        raise BudgetError(
                            f"ball exceeds the vertex budget of {cap} vertices "
                            f"(group {spec.label()}, radius {n})")
        frontier = nxt

    layers: list[list] = [[] for _ in range(n + 1)]
    for v, d in dist.items():
        layers[d].append(v)
    vertices: list = []
    for layer in layers:
        vertices.extend(sorted(layer))
    index = {v: i for i, v in enumerate(vertices)}
    word_length = np.fromiter((dist[v] for v in vertices), dtype=np.int32,
                              count=len(vertices))

    edge_list = []
    for i, u in enumerate(vertices):
        for g in spec.generators:
            j = index.get(multiply(spec, u, g))
            if j is not None and j > i:
                edge_list.append((i, j))
    if edge_list:
        edges = np.array(sorted(edge_list), dtype=np.int64)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)

    ball = CayleyBall(spec=spec, radius=n, vertices=tuple(vertices),
                      word_length=word_length, edges=edges, k=spec.k)
    ball._index = index
    return ball


# ---------------------------------------------------------------------------
# growth data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GrowthProfile:
    """Ball volumes V(0..n_max) and the inverse growth function.

    ``phi(t)`` is the smallest radius n >= 0 with V(n) > t, tabulated for
    0 <= t < V(n_max).
    """

    spec: GroupSpec
    radii: np.ndarray
    volumes: np.ndarray
    phi_values: np.ndarray

    @property
    def n_max(self) -> int:
        return int(self.radii[-1])

    def volume(self, n: int) -> int:
        return int(self.volumes[n])

    def phi(self, t) -> np.ndarray | int:
        t_arr = np.asarray(t)
        if np.any(t_arr < 0) or np.any(t_arr >= self.volumes[-1]):
            raise ValueError(
                f"phi tabulated only for 0 <= t < {int(self.volumes[-1])}")
        out = self.phi_values[t_arr]
        return int(out) if np.isscalar(t) else out


def growth_profile(spec: GroupSpec, n_max: int, budget: int | None = None) -> GrowthProfile:
    """Tabulate V(0..n_max) and phi over [0, V(n_max)) from one BFS."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ball = enumerate_ball(spec, n_max, budget)
    radii = np.arange(n_max + 1)
    volumes = np.searchsorted(ball.word_length, radii, side="right")
    ts = np.arange(volumes[-1])
    phi_values = np.searchsorted(volumes, ts, side="right")
    return GrowthProfile(spec=spec, radii=radii, volumes=volumes.astype(np.int64),
                         phi_values=phi_values.astype(np.int64))


# ---------------------------------------------------------------------------
# finite subgraphs
# ---------------------------------------------------------------------------

def locate(members: np.ndarray, wanted: np.ndarray) -> tuple:
    """Where each entry of ``wanted`` sits in ``members`` (distinct, any order).

    A binary search through an ``argsort`` sorter.  Returns ``(found, at)``:
    ``found`` flags the entries of ``wanted`` that are members, and ``at``
    holds the position in ``members`` of each found entry, in order.
    """
    sorter = np.argsort(members, kind="stable")
    at = np.searchsorted(members, wanted, sorter=sorter)
    found = at < len(members)
    found[found] = members[sorter[at[found]]] == wanted[found]
    return found, sorter[at[found]]


@dataclass(eq=False)
class FiniteSubgraph:
    """A finite subgraph of an enumerated ball.

    ``vertex_indices`` are parent-ball indices in a meaningful order (path
    order for line graphs, ascending otherwise); ``edges`` are parent-index
    pairs.  ``induced`` records whether the edges are exactly the parent
    edges between the members.

    Construction rejects duplicate members, then locates every edge
    endpoint once with :func:`locate` and rejects an edge leaving the
    member set.  The resulting positions are kept and returned by
    :meth:`local_edges`.
    """

    parent: CayleyBall
    vertex_indices: np.ndarray
    edges: np.ndarray
    induced: bool

    def __post_init__(self):
        self.vertex_indices = np.asarray(self.vertex_indices, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self._components = None
        members = np.sort(self.vertex_indices)
        if np.any(members[1:] == members[:-1]):
            raise ValueError("vertex_indices contains duplicates")
        found, at = locate(self.vertex_indices, self.edges.ravel())
        inside = found.reshape(-1, 2).all(axis=1)
        if not inside.all():
            u, v = self.edges[np.argmin(inside)]
            raise ValueError(f"edge ({u}, {v}) leaves the vertex subset")
        self._local_edges = at.reshape(-1, 2)
        self._local_edges.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.vertex_indices)

    def local_edges(self) -> np.ndarray:
        """Edges as positions into ``vertex_indices`` (read-only, cached)."""
        return self._local_edges

    def degrees(self) -> np.ndarray:
        """Degree of each vertex within the subgraph, aligned with vertex order."""
        return np.bincount(self._local_edges.ravel(),
                           minlength=self.size).astype(np.int64)

    def components(self) -> tuple:
        """``(count, labels)`` of the connected components (cached, read-only).

        ``labels[i]`` is the component of ``vertex_indices[i]``; an empty
        subgraph has no components.
        """
        if self._components is None:
            n = self.size
            loc = self._local_edges
            g = sparse.csr_matrix(
                (np.ones(len(loc)), (loc[:, 0], loc[:, 1])), shape=(n, n))
            count, labels = csgraph.connected_components(g, directed=False)
            labels.flags.writeable = False
            self._components = (int(count), labels)
        return self._components

    @property
    def connected(self) -> bool:
        return self.size > 0 and self.components()[0] == 1


def induced_subgraph(parent: CayleyBall, vertex_indices) -> FiniteSubgraph:
    """Subgraph induced by ``vertex_indices`` (sorted ascending)."""
    idx = np.unique(np.asarray(vertex_indices, dtype=np.int64))
    if len(idx) and (idx[0] < 0 or idx[-1] >= len(parent)):
        raise ValueError("vertex index out of range for the parent ball")
    mask = np.zeros(len(parent), dtype=bool)
    mask[idx] = True
    if len(parent.edges):
        keep = mask[parent.edges[:, 0]] & mask[parent.edges[:, 1]]
        edges = parent.edges[keep]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return FiniteSubgraph(parent=parent, vertex_indices=idx, edges=edges, induced=True)


def line_subgraph(ball: CayleyBall, n: int) -> FiniteSubgraph:
    """Path with n vertices along powers of the first generator, centred at
    the identity.  Edges are the n-1 consecutive pairs, listed explicitly.
    """
    if n < 1:
        raise ValueError("line length must be >= 1")
    spec = ball.spec
    g = spec.generators[0]
    lo = -((n - 1) // 2)
    offsets = range(lo, lo + n)
    elements = []
    cur = identity_element(spec)
    for _ in range(0, -lo):
        cur = multiply(spec, cur, inverse(spec, g))
    for _ in offsets:
        elements.append(cur)
        cur = multiply(spec, cur, g)
    if len(set(elements)) != n:
        raise ValueError("first generator has finite order; no line of that length")
    try:
        idx = [ball.index_of(el) for el in elements]
    except KeyError:
        raise ValueError(
            f"ball of radius {ball.radius} does not contain a line of {n} vertices")
    edges = np.array([sorted((idx[i], idx[i + 1])) for i in range(n - 1)],
                     dtype=np.int64) if n > 1 else np.zeros((0, 2), dtype=np.int64)
    return FiniteSubgraph(parent=ball, vertex_indices=np.array(idx, dtype=np.int64),
                          edges=edges, induced=False)


def tetrahedron(m: int, n: int, ball: CayleyBall) -> FiniteSubgraph:
    """Depth-n tetrahedron of the lamplighter graph Z_m wr Z.

    Vertex set: pairs (lamps, x) with 0 <= x <= n and lamp support inside
    {1, ..., n}; contains exactly (n+1) * m^n vertices.  The subgraph is
    induced by the ball, so its edges are the ball's own edges between
    members.  Every member lies in B(2n), and balls share their index
    prefixes, so any ball of radius >= 2n gives the same vertex indices
    and edges.
    """
    if ball.spec.kind != LAMPLIGHTER or ball.spec.modulus != m:
        raise ValueError("ball does not belong to the requested lamplighter group")
    if n < 1:
        raise ValueError("depth must be >= 1")
    members = []
    for values in itertools.product(range(m), repeat=n):
        lamps = tuple((pos, val) for pos, val in zip(range(1, n + 1), values) if val)
        for x in range(n + 1):
            members.append((lamps, x))
    index = ball.index
    try:
        idx = [index[el] for el in members]
    except KeyError:
        raise ValueError(
            f"ball of radius {ball.radius} too small for the depth-{n} tetrahedron "
            f"(radius >= {2 * n} suffices)")
    return induced_subgraph(ball, idx)


def thicken_subgraph(sub: FiniteSubgraph, radius: int) -> FiniteSubgraph:
    """Union of parent-ball balls of the given radius around each vertex,
    as an induced subgraph.  Used to reconnect vertex sets under alternative
    generator choices; the radius is caller supplied, never auto-tuned.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    edges = sub.parent.edges
    reached = np.zeros(len(sub.parent), dtype=bool)
    reached[sub.vertex_indices] = True
    for _ in range(radius):
        reached[edges[reached[edges[:, 0]] | reached[edges[:, 1]]]] = True
    return induced_subgraph(sub.parent, np.flatnonzero(reached))


def inner_vertex_boundary(sub: FiniteSubgraph) -> np.ndarray:
    """Vertices of the subgraph with fewer subgraph neighbors than the full
    Cayley degree k, i.e. those seeing at least one outside neighbor in the
    infinite graph.  Returned as sorted parent indices.
    """
    d = sub.degrees()
    return np.sort(sub.vertex_indices[d < sub.parent.k])


# ---------------------------------------------------------------------------
# bipartiteness
# ---------------------------------------------------------------------------

@dataclass
class BipartiteResult:
    bipartite: bool
    coloring: np.ndarray | None
    odd_cycle: list | None


def is_bipartite(ball: CayleyBall) -> BipartiteResult:
    """2-coloring of the enumerated ball, or an odd-cycle witness.

    Word length is BFS depth from the identity, and an edge joins word
    lengths that differ by at most one.  So the ball is bipartite iff no
    edge joins two vertices of equal word length, and then the parity of
    the word length is a proper coloring.  Otherwise the first such edge
    closes an odd cycle through the BFS tree of the edges between layers.
    """
    depth = ball.word_length
    u, v = ball.edges[:, 0], ball.edges[:, 1]
    level = depth[u] == depth[v]
    if not level.any():
        return BipartiteResult(True, ((-1) ** depth).astype(np.int8), None)
    # vertices are in BFS-layer order and u < v, so a non-level edge goes down
    down = ~level
    child, first = np.unique(v[down], return_index=True)
    parent = np.full(len(ball), -1, dtype=np.int64)
    parent[child] = u[down][first]
    a, b = ball.edges[np.argmax(level)]
    return BipartiteResult(False, None, _odd_cycle(int(a), int(b), parent, depth))


def _odd_cycle(u: int, v: int, parent: np.ndarray, depth: np.ndarray) -> list:
    path_u, path_v = [u], [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = int(parent[a]); path_u.append(a)
    while depth[b] > depth[a]:
        b = int(parent[b]); path_v.append(b)
    while a != b:
        a = int(parent[a]); path_u.append(a)
        b = int(parent[b]); path_v.append(b)
    return path_u[:-1] + path_v[::-1]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_edge_list(ball: CayleyBall, fh) -> None:
    """Write the edge-list text format: header, then ``u v`` with u < v."""
    fh.write(f"# group={ball.spec.label()} n={ball.radius} k={ball.k}\n")
    for u, v in ball.edges:
        fh.write(f"{u} {v}\n")
