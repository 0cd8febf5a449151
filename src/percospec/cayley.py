"""Cayley-graph enumeration for the group families used by the lab.

Supported families: free abelian groups Z^d, the discrete Heisenberg group
of 3x3 upper unitriangular integer matrices, and lamplighter wreath products
Z_m wr Z.  Balls are enumerated breadth first from the identity; the vertex
order (BFS layer, then lexicographic encoding) is the canonical order that
every downstream matrix inherits, so results are reproducible bit for bit.

Element encodings (``multiply``, ``inverse`` and ``CayleyBall.vertices``):

* free abelian:  integer tuple of length d
* Heisenberg:    integer triple (a, b, c) for the matrix with first row
                 (1, a, b) and second row (0, 1, c)
* lamplighter:   pair (lamps, x) where lamps is a sorted tuple of
                 (position, value) pairs with value != 0 mod m, and x is the
                 walker position

Inside a ball every element is one fixed-width int64 row: the coordinates
(Z^d), (a, b, c) (Heisenberg), or the lamp values on the window of
positions the ball's words can light, then x (lamplighter).  Each generator
acts on a whole array of rows, and :class:`_Layout` turns rows into
sortable keys, so enumeration runs no Python per vertex; the tuple
encodings of ``CayleyBall.vertices`` are decoded only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
# element rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Layout:
    """Row layout of the elements of B(n) and of their neighbours.

    Column j of each row lies in [lo[j], hi[j]].  Lamplighter rows hold the
    lamp value at position ``first_pos + j`` in column j and the walker in
    the last column.
    """

    lo: np.ndarray
    hi: np.ndarray
    first_pos: int = 0

    @cached_property
    def strides(self):
        """Mixed-radix place values (last column least significant), or
        None when the product of the column ranges exceeds int64."""
        span = [int(h - l) + 1 for l, h in zip(self.lo, self.hi)]
        if math.prod(span) >= 2 ** 63:
            return None
        return np.array([math.prod(span[j + 1:]) for j in range(len(span))],
                        dtype=np.int64)

    @cached_property
    def _origin(self) -> int:
        return int(self.lo @ self.strides)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Sortable keys of rows within the bounds: a packed int64 when the
        column ranges fit, else a byte (void) view of each row.  Equal rows
        give equal keys either way, and unique, argsort and searchsorted
        treat both kinds alike."""
        if self.strides is not None:
            return rows @ self.strides - self._origin
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`keys`."""
        strides = self.strides
        if strides is None:
            return keys.view(np.int64).reshape(len(keys), len(self.lo))
        rows = keys[:, None] // strides
        np.remainder(rows, self.hi - self.lo + 1, out=rows)
        rows += self.lo
        return rows


def _layout(spec: GroupSpec, n: int) -> _Layout:
    """Column bounds covering B(n + 1): edges look up every neighbour of B(n)."""
    t = n + 1
    if spec.kind != LAMPLIGHTER:
        reach = np.abs(np.array(spec.generators, dtype=np.int64)).max(axis=0)
        if spec.kind == HEISENBERG:
            # b gains b_g + a * c_g per step, with |a| <= t * max|a_g|
            a, b, c = reach
            reach = np.array([a, b + t * a * c, c])
        return _Layout(lo=-t * reach, hi=t * reach)
    shift = max(abs(x) for _, x in spec.generators)
    pos = [p for lamps, _ in spec.generators for p, _ in lamps] or [0]
    # lamps are lit at x + p by the first t steps, while |x| <= (t - 1) shift
    first = min(pos) - (t - 1) * shift
    width = max(pos) + (t - 1) * shift - first + 1
    lo = np.zeros(width + 1, dtype=np.int64)
    hi = np.full(width + 1, spec.modulus - 1, dtype=np.int64)
    lo[-1], hi[-1] = -t * shift, t * shift
    return _Layout(lo=lo, hi=hi, first_pos=first)


def _neighbour_keys(spec: GroupSpec, layout: _Layout, rows: np.ndarray) -> np.ndarray:
    """Keys of ``row * g`` for every row and generator, shape (rows, k)."""
    gens = spec.generators
    if spec.kind == FREE_ABELIAN:
        out = rows[:, None, :] + np.array(gens, dtype=np.int64)
    elif spec.kind == HEISENBERG:
        ga, gb, gc = np.array(gens, dtype=np.int64).T
        a, b, c = rows[:, :1], rows[:, 1:2], rows[:, 2:]
        out = np.stack([a + ga, b + gb + a * gc, c + gc], axis=-1)
    else:
        # one generator at a time: lamplighter rows are wide
        width = rows.shape[1]
        # flat offset of each row's lamp column at the walker
        at = np.arange(len(rows)) * width + rows[:, -1] - layout.first_pos
        keys = []
        for lamps, shift in gens:
            moved = rows.copy()
            flat = moved.reshape(-1)
            for pos, val in lamps:
                flat[at + pos] = (flat[at + pos] + val) % spec.modulus
            moved[:, -1] += shift
            keys.append(layout.keys(moved))
        return np.stack(keys, axis=1)
    return layout.keys(out.reshape(-1, rows.shape[1])).reshape(len(rows), len(gens))


def _lamp_lists(layout: _Layout, rows: np.ndarray) -> tuple:
    """Lit lamps of lamplighter rows as ``(pos, val, count)``: row i lights
    ``count[i]`` lamps, at ``pos[i, :count[i]]`` (increasing) with values
    ``val[i, :count[i]]``; the padding has position ``first_pos - 1``,
    below every lamp, and value 0."""
    digits = rows[:, :-1]
    r, c = np.nonzero(digits)
    count = np.bincount(r, minlength=len(rows))
    slot = np.arange(len(r)) - np.repeat(np.cumsum(count) - count, count)
    shape = (len(rows), int(count.max(initial=0)))
    pos = np.full(shape, layout.first_pos - 1, dtype=np.int64)
    val = np.zeros(shape, dtype=np.int64)
    pos[r, slot] = c + layout.first_pos
    val[r, slot] = digits[r, c]
    return pos, val, count


def _lexsort_keys(spec: GroupSpec, layout: _Layout, rows: np.ndarray) -> np.ndarray:
    """``np.lexsort`` keys (primary last) for the lexicographic order of the
    tuple encodings.  Lamplighter lamp tuples compare as their padded
    (pos, val) lists, since the padding sorts a prefix first."""
    if spec.kind != LAMPLIGHTER:
        return rows.T[::-1]
    pos, val, _ = _lamp_lists(layout, rows)
    keys = np.empty((2 * pos.shape[1] + 1, len(rows)), dtype=np.int64)
    keys[0] = rows[:, -1]
    keys[1::2] = val.T[::-1]
    keys[2::2] = pos.T[::-1]
    return keys


def _decode(spec: GroupSpec, layout: _Layout, rows: np.ndarray) -> tuple:
    """Tuple encodings of element rows."""
    if spec.kind != LAMPLIGHTER:
        return tuple(map(tuple, rows.tolist()))
    pos, val, count = _lamp_lists(layout, rows)
    return tuple((tuple(zip(p[:c], v[:c])), x) for p, v, c, x in zip(
        pos.tolist(), val.tolist(), count.tolist(), rows[:, -1].tolist()))


def _encode(spec: GroupSpec, layout: _Layout, element) -> np.ndarray:
    """Row of a tuple encoding; raises ValueError if it has no row here."""
    if spec.kind != LAMPLIGHTER:
        row = np.array(element, dtype=np.int64)
    else:
        lamps, x = element
        row = np.zeros(len(layout.lo), dtype=np.int64)
        for pos, val in lamps:
            if not 0 <= pos - layout.first_pos < len(row) - 1:
                raise ValueError(f"lamp position {pos} outside the ball's window")
            row[pos - layout.first_pos] = val
        row[-1] = x
    if row.shape != layout.lo.shape:
        raise ValueError(f"not an element of this group: {element!r}")
    return row


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CayleyBall:
    """Metric ball around the identity, with canonical vertex order.

    ``rows[i]`` is vertex ``i`` as an element row (see the module
    docstring) and ``vertices[i]`` its tuple encoding, decoded on first
    use; vertex 0 is the identity.  ``edges`` lists each undirected edge
    once as (u, v) with u < v.  Vertices are sorted by word length first,
    so the sub-ball of radius r <= radius is exactly the index prefix
    0 .. volume(r) - 1.
    """

    spec: GroupSpec
    radius: int
    rows: np.ndarray
    word_length: np.ndarray
    edges: np.ndarray
    k: int

    def __post_init__(self):
        self._vertices = None
        self._lookup = None
        self._adj = None

    def __len__(self) -> int:
        return len(self.rows)

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in ("_vertices", "_lookup", "_adj"):
            state[key] = None
        return state

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = _decode(self.spec, self._layout_keys()[0], self.rows)
        return self._vertices

    def _layout_keys(self) -> tuple:
        """``(layout, keys, sorter)``: the row layout, the vertex keys, and
        the ``argsort`` of the keys."""
        if self._lookup is None:
            layout = _layout(self.spec, self.radius)
            keys = layout.keys(self.rows)
            self._lookup = (layout, keys, np.argsort(keys, kind="stable"))
        return self._lookup

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vertex index of each element row, -1 for rows not in the ball."""
        layout, keys, sorter = self._layout_keys()
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(layout.lo))
        out = np.full(len(rows), -1, dtype=np.int64)
        # a row outside the columns' bounds could share a packed key
        inside = np.flatnonzero(((rows >= layout.lo) & (rows <= layout.hi)).all(axis=1))
        found, at = locate(keys, layout.keys(rows[inside]), sorter)
        out[inside[found]] = at
        return out

    def index_of(self, element) -> int:
        """Vertex index of a tuple encoding; KeyError if not in the ball."""
        layout = self._layout_keys()[0]
        try:
            row = _encode(self.spec, layout, element)
        except (TypeError, ValueError):
            raise KeyError(element) from None
        i = int(self.find_rows(row)[0])
        # a non-canonical encoding can share a row with a vertex
        if i < 0 or _decode(self.spec, layout, self.rows[i:i + 1])[0] != element:
            raise KeyError(element)
        return i

    def volume(self, r: int) -> int:
        """V(r) = number of vertices with word length <= r."""
        if r >= self.radius:
            return len(self)
        return int(np.searchsorted(self.word_length, r, side="right"))

    def ball_indices(self, r: int) -> np.ndarray:
        return np.arange(self.volume(r), dtype=np.int64)

    def adjacency_matrix(self) -> sparse.csr_matrix:
        if self._adj is None:
            n = len(self)
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
    """Enumerate the ball B(n) by BFS from the identity, a layer at a time.

    Each generator acts on the whole frontier; the generator set is
    symmetric, so layer L's neighbours lie in layers L - 1, L and L + 1,
    and the new layer is the neighbour keys minus those of the first two.
    Deterministic: the vertex order is BFS layer then lexicographic
    encoding, and the edge list is sorted.  Raises :class:`BudgetError`
    once more than ``budget`` vertices (default 2e6) have been discovered.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    cap = DEFAULT_VERTEX_BUDGET if budget is None else int(budget)
    layout = _layout(spec, n)
    rows = np.zeros((1, len(layout.lo)), dtype=np.int64)   # the identity
    keys = layout.keys(rows)
    layer_keys, neighbours = [keys], []
    older, total = keys[:0], 1
    for layer in range(n + 1):
        neighbours.append(_neighbour_keys(spec, layout, rows))
        if layer == n:
            break
        fresh = np.unique(neighbours[-1])
        seen, _ = locate(np.concatenate([older, keys]), fresh)
        older, fresh = keys, fresh[~seen]
        total += len(fresh)
        if total > cap:
            raise BudgetError(
                f"ball exceeds the vertex budget of {cap} vertices "
                f"(group {spec.label()}, radius {n})")
        rows = layout.rows(fresh)
        order = np.lexsort(_lexsort_keys(spec, layout, rows))
        rows, keys = rows[order], fresh[order]
        layer_keys.append(keys)

    keys = np.concatenate(layer_keys)
    sorter = np.argsort(keys, kind="stable")
    found, at = locate(keys, np.concatenate(neighbours).ravel(), sorter)
    u = np.repeat(np.arange(len(keys)), spec.k)[found]
    up = at > u
    u, v = u[up], at[up]
    order = np.lexsort((v, u))
    ball = CayleyBall(
        spec=spec, radius=n, rows=layout.rows(keys),
        word_length=np.repeat(np.arange(n + 1, dtype=np.int32),
                              [len(layer) for layer in layer_keys]),
        edges=np.stack([u[order], v[order]], axis=1), k=spec.k)
    ball._lookup = (layout, keys, sorter)
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

def locate(members: np.ndarray, wanted: np.ndarray, sorter=None) -> tuple:
    """Where each entry of ``wanted`` sits in ``members`` (distinct, any order).

    A binary search through an ``argsort`` sorter of ``members``, computed
    unless given.  Returns ``(found, at)``: ``found`` flags the entries of
    ``wanted`` that are members, and ``at`` holds the position in
    ``members`` of each found entry, in order.
    """
    if sorter is None:
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
    layout = ball._layout_keys()[0]
    width = len(layout.lo)
    cols = np.arange(1, n + 1) - layout.first_pos
    fits = cols[0] >= 0 and cols[-1] < width - 1
    if fits:
        # every lamp pattern on {1, ..., n}, at every walker position 0..n
        rows = np.zeros((m ** n, n + 1, width), dtype=np.int64)
        rows[:, :, cols] = (np.arange(m ** n)[:, None]
                            // m ** np.arange(n)[::-1] % m)[:, None, :]
        rows[:, :, -1] = np.arange(n + 1)
        idx = ball.find_rows(rows)
    if not fits or np.any(idx < 0):
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
