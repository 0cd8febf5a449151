"""Cayley-graph enumeration for the group families used by the lab.

Supported families: free abelian groups Z^d, the discrete Heisenberg group
of 3x3 upper unitriangular integer matrices, and lamplighter wreath products
Z_m wr Z.  A ball's vertex order (word length, then lexicographic encoding)
is the canonical order that every downstream matrix inherits, so results
are reproducible bit for bit.  Z^d balls with the ±unit generators and
Z_m wr Z balls with the natural generators, whose word lengths and
K_{m,m} cells have a closed form (:func:`enumerate_ball`), are built in
closed form; the others (Heisenberg, other Z^d and lamplighter sets)
breadth first from the identity.  Both give the same ball.

Element encodings (``multiply``, ``inverse`` and ``CayleyBall.vertices``):

* free abelian:  integer tuple of length d
* Heisenberg:    integer triple (a, b, c) for the matrix with first row
                 (1, a, b) and second row (0, 1, c)
* lamplighter:   pair (lamps, x) where lamps is a sorted tuple of
                 (position, value) pairs with value != 0 mod m, and x is the
                 walker position

Inside a ball every element is one fixed-width int64 row: the coordinates
(Z^d), (a, b, c) (Heisenberg), or the lamp values on the window of
positions the ball's words can light, then x (lamplighter).
:class:`_Layout` packs a row into a sortable key, mixed radix with the
last column least significant, in as few int64 words as hold the column
ranges: one int64 when they fit, else a void view of the words.
Enumeration works on keys alone, with no Python per vertex and no row
decoded: a generator changes only a few columns of a row, so a neighbour's
key adds a per-generator offset to the word of each changed column
(:func:`_moves`); the tuples' order is read off the keys' digits
(:func:`_order_keys`).  A :class:`CayleyBall` stores the layout and keys
that built it, and every lookup reads them; its rows, the tuple
encodings of ``CayleyBall.vertices`` and its edges are built from them on
first use, so enumeration builds no edge.  A ball's
layout comes from :func:`_layout` (spec, radius), a tetrahedron's from its
own n + 3 columns (:func:`_tetrahedron_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .errors import BudgetError

DEFAULT_VERTEX_BUDGET = 2_000_000

# keys decoded to rows at a time: a block's columns stay in cache
_DECODE_BLOCK = 1 << 14

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

def _default_generators(kind: str, rank: int, modulus: int,
                        budget: int | None = None) -> tuple:
    """The ±unit vectors of Z^rank, the Heisenberg set, or the natural set of
    Z_modulus wr Z.  Refuses (:class:`BudgetError`), before it is built, a set
    whose B(1) passes max(``budget``, the default vertex budget), counted as
    :func:`enumerate_ball` counts it: 2 rank + 1 or 2 modulus + 1 vertices,
    once per key word of its :func:`_layout`, which covers B(2): each step moves
    a Z^d column or the walker by at most 1, and the natural set lights lamps
    0 and 1 next to the walker."""
    if kind == HEISENBERG:
        return ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1))
    span = _span(2, 1)
    if kind == FREE_ABELIAN:    # columns as many to a word as _split puts in one
        size, words = 2 * rank + 1, -(-rank // int(np.sum(_split([span] * 64)[0] == 0)))
    else:   # _layout's lamp window at t = 2: positions 0 and 1, walker shift 1
        lamps = 1 + _span(1, 1)
        size, words = 2 * modulus + 1, int(_split([modulus] * lamps + [span])[0][0]) + 1
    cap = max(DEFAULT_VERTEX_BUDGET, budget or 0)
    if size * words > cap:
        raise BudgetError(f"B(1) of {kind}:{rank or modulus} with the default generators "
                          f"has {size} vertices on {words}-word keys, past the vertex "
                          f"budget of {cap} vertices")
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
    # lamplighter natural set: right movers setting the lamp one step ahead,
    # then left movers setting the lamp at the current position
    right = [((), 1)] + [(((1, l),), 1) for l in range(1, modulus)]
    left = [((), -1)] + [(((0, l),), -1) for l in range(1, modulus)]
    return tuple(right + left)


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated group with a fixed symmetric generator set.

    ``inverse_slots[i]`` is the position of the inverse of generator i in
    ``generators``, recorded when the set is checked for symmetry.
    """

    kind: str
    rank: int = 0
    modulus: int = 0
    generators: tuple = ()
    inverse_slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == FREE_ABELIAN and self.rank < 1:
            raise ValueError("free abelian rank must be >= 1")
        if self.kind == LAMPLIGHTER and self.modulus < 2:
            raise ValueError("lamplighter modulus must be >= 2")
        if not self.generators:
            raise ValueError("generator set must be nonempty")
        slot = {g: i for i, g in enumerate(self.generators)}
        if len(slot) != len(self.generators):
            raise ValueError("generator set contains duplicates")
        if identity_element(self) in slot:
            raise ValueError("generator set must not contain the identity")
        inverses = []
        for g in self.generators:
            _validate_element(self, g)
            inverses.append(slot.get(inverse(self, g)))
            if inverses[-1] is None:
                raise ValueError(f"generator set not symmetric: missing inverse of {g!r}")
        object.__setattr__(self, "inverse_slots", tuple(inverses))

    @classmethod
    def free_abelian(cls, rank: int, generators=None,
                     budget: int | None = None) -> "GroupSpec":
        gens = tuple(map(tuple, generators)) if generators is not None \
            else _default_generators(FREE_ABELIAN, rank, 0, budget)
        return cls(FREE_ABELIAN, rank=rank, generators=gens)

    @classmethod
    def heisenberg(cls) -> "GroupSpec":
        return cls(HEISENBERG, generators=_default_generators(HEISENBERG, 0, 0))

    @classmethod
    def lamplighter(cls, modulus: int, generators=None,
                    budget: int | None = None) -> "GroupSpec":
        gens = tuple(generators) if generators is not None \
            else _default_generators(LAMPLIGHTER, 0, modulus, budget)
        return cls(LAMPLIGHTER, modulus=modulus, generators=gens)

    @property
    def k(self) -> int:
        """Degree of the Cayley graph (size of the generator set)."""
        return len(self.generators)

    @property
    def edge_slots(self) -> tuple:
        """The first slot of each inverse pair {g, g^-1}, in order.  An edge
        u -- ug is found from u when g's slot is kept, else from ug, whose
        neighbour through g^-1 is u; an involution's from both ends."""
        return tuple(i for i, j in enumerate(self.inverse_slots) if i <= j)

    @property
    def is_hypercubic(self) -> bool:
        """Whether this is Z^d with the ±unit vectors, in any order, as generators."""
        # 2 rank distinct vectors of L1 norm 1 are all the ±unit vectors
        return self.kind == FREE_ABELIAN and self.k == 2 * self.rank and \
            all(sum(map(abs, g)) == 1 for g in self.generators)

    @property
    def is_natural_lamplighter(self) -> bool:
        """Whether this is Z_m wr Z with its natural set, in any order, as generators."""
        # 2m distinct steps that can set only the lamp they cross are all of them
        return self.kind == LAMPLIGHTER and self.k == 2 * self.modulus and \
            all(abs(x) == 1 and len(lamps) <= 1 and all(p == max(x, 0) for p, _ in lamps)
                for lamps, x in self.generators)

    def label(self) -> str:
        if self.kind == FREE_ABELIAN:
            return f"free_abelian:{self.rank}"
        if self.kind == HEISENBERG:
            return "heisenberg"
        return f"lamplighter:{self.modulus}"


# ---------------------------------------------------------------------------
# element rows
# ---------------------------------------------------------------------------

def _split(radices) -> tuple:
    """``(word, place)`` of each column of a mixed-radix number with these
    radices, last column least significant, in as few int64 words as hold
    them: word 0 takes columns from the last while they fit, then word 1."""
    split, w, p = [], 0, 1
    for radix in np.asarray(radices)[::-1].tolist():
        w, p = (w + 1, 1) if p * radix >= 2 ** 63 else (w, p)
        split.append((w, p))
        p *= radix
    return tuple(np.array(split[::-1], dtype=np.int64).T)


@dataclass(frozen=True, eq=False)
class _Layout:
    """Row layout of the elements of B(n) and of their neighbours.

    Column j of each row lies in [lo[j], hi[j]].  Lamplighter rows hold the
    lamp value at position ``first_pos + j`` in column j and the walker in
    the last column.  A row's key packs it into the words of :func:`_split`:
    column j adds ``(row[j] - lo[j]) * place[j]`` to word ``word[j]``.
    """

    lo: np.ndarray
    hi: np.ndarray
    first_pos: int = 0

    @cached_property
    def split(self) -> tuple:
        """``(word, place)``: the word that holds each column, and its place value."""
        return _split(self.hi - self.lo + 1)

    @cached_property
    def places(self) -> tuple:
        """Per word, the place value of each column, 0 off the word."""
        word, place = self.split
        return tuple(place * (word == np.arange(word[0] + 1)[:, None]))

    @cached_property
    def words(self) -> int:
        return int(self.split[0][0]) + 1     # the first column's word is the last

    def pack(self, words: np.ndarray) -> np.ndarray:
        """Keys of int64 words (..., words): the one word, or a void view."""
        if self.words == 1:
            return words[..., 0]
        return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * self.words)))[..., 0]

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The words of ``keys``, shape (keys, words)."""
        return np.ascontiguousarray(keys).view(np.int64).reshape(len(keys), self.words)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Sortable keys of rows within the bounds (see :meth:`pack`).  Equal
        rows give equal keys, sort, unique and searchsorted treat both kinds
        alike, and one-word keys sort like their rows."""
        return self.pack((rows - self.lo) @ np.transpose(self.places))

    def digits(self, keys: np.ndarray):
        """``(j, row[j] - lo[j])`` for each column j of the rows of ``keys``,
        from the last column to the first, one column at a time."""
        for w, rest in enumerate(self.unpack(keys).T):
            for j in np.flatnonzero(self.split[0] == w)[::-1]:
                span = int(self.hi[j] - self.lo[j]) + 1
                digit, rest = rest, rest // span
                yield int(j), digit - rest * span

    def column(self, keys: np.ndarray, j) -> np.ndarray:
        """Column j of the rows of ``keys``: one index, or one per key."""
        word, place = self.split
        # one column is a view of its word; one column per key, a gather
        at = (np.arange(len(keys)) if np.ndim(j) else slice(None), word[j])
        return self.unpack(keys)[at] // place[j] % (self.hi - self.lo + 1)[j] + self.lo[j]

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`keys`."""
        rows = np.empty((len(keys), len(self.lo)), dtype=np.int64)
        # a column at a time, in blocks of keys, each transposed into place
        for start in range(0, len(keys), _DECODE_BLOCK):
            block = [digit for _, digit in self.digits(keys[start:start + _DECODE_BLOCK])]
            rows[start:start + _DECODE_BLOCK] = np.stack(block[::-1]).T
        rows += self.lo
        return rows


def _span(t: int, reach: int) -> int:
    """Values a column spans after t steps that each move it by at most
    ``reach`` either way, in Python ints, which do not overflow."""
    return 2 * t * reach + 1


def _layout(spec: GroupSpec, n: int) -> _Layout:
    """Column bounds covering B(n + 1): edges look up every neighbour of B(n).
    A column spanning 2^63 values or more, past the int64 range of a key
    word, raises :class:`BudgetError` before anything is allocated."""
    t = n + 1
    if spec.kind == LAMPLIGHTER:    # the walker's reach; lamps span m values
        reach = [max(abs(x) for _, x in spec.generators)]
    else:
        reach = [max(map(abs, column)) for column in zip(*spec.generators)]
    if spec.kind == HEISENBERG:
        # b gains b_g + a * c_g per step, with |a| <= t * max|a_g|
        a, b, c = reach
        reach = [a, b + t * a * c, c]
    span = _span(t, max(reach))
    if span >= 2 ** 63:
        raise BudgetError(f"B({n}) of {spec.label()} spans {span} values in a "
                          f"column, past the int64 range of a key word (2^63)")
    if spec.kind != LAMPLIGHTER:
        reach = np.array(reach, dtype=np.int64)
        return _Layout(lo=-t * reach, hi=t * reach)
    shift = reach[0]
    pos = [p for lamps, _ in spec.generators for p, _ in lamps] or [0]
    # lamps are lit at x + p by the first t steps, while |x| <= (t - 1) shift
    first = min(pos) - (t - 1) * shift
    width = max(pos) - min(pos) + _span(t - 1, shift)
    lo = np.zeros(width + 1, dtype=np.int64)
    hi = np.full(width + 1, spec.modulus - 1, dtype=np.int64)
    lo[-1], hi[-1] = -t * shift, t * shift
    return _Layout(lo=lo, hi=hi, first_pos=first)


def _moves(spec: GroupSpec, layout: _Layout, keys: np.ndarray, slots=None) -> list:
    """For each generator g (of the given slots, default all), the columns
    of a row that ``row * g`` changes, as ``(column, change)`` pairs; either
    is one value for every key or one per key.  These need the rows' a
    (Heisenberg), or their walker and the lamps g lights next to it
    (lamplighter), and nothing else."""
    gens = spec.generators if slots is None else [spec.generators[i] for i in slots]
    if spec.kind == FREE_ABELIAN:
        return [[(j, x) for j, x in enumerate(g) if x] for g in gens]
    if spec.kind == HEISENBERG:
        a = layout.column(keys, 0)
        return [[(0, ga), (1, gb + a * gc), (2, gc)] for ga, gb, gc in gens]
    m, walker = spec.modulus, len(layout.lo) - 1
    # column of the lamp under each row's walker
    at = layout.column(keys, walker) - layout.first_pos
    lamp = {p: layout.column(keys, at + p) for lamps, _ in gens for p, _ in lamps}
    return [[(walker, shift)]
            + [(at + p, (lamp[p] + val) % m - lamp[p]) for p, val in lamps]
            for lamps, shift in gens]


def _neighbour_keys(spec: GroupSpec, layout: _Layout, keys: np.ndarray,
                    slots=None) -> np.ndarray:
    """Keys of ``row * g`` for the row of every key and every generator of
    the given slots (default all), shape (keys, slots).  A move
    (:func:`_moves`) adds change * place value to its column's word;
    neighbours lie in the layout, so no carry crosses words."""
    moves, words = _moves(spec, layout, keys, slots), layout.unpack(keys)
    out = np.empty((len(keys), len(moves), layout.words), dtype=np.int64)
    for w, place in enumerate(layout.places):
        word = words[:, w]
        for i, changes in enumerate(moves):
            out[:, i, w] = word + sum(change * place[col] for col, change in changes)
    return layout.pack(out)


def _order_keys(spec: GroupSpec, layout: _Layout, keys: np.ndarray) -> list:
    """``np.lexsort`` keys (primary last) for the lexicographic order of the
    tuple encodings of distinct element keys: one order digit per column,
    packed into as few int64s as hold them.

    Z^d and Heisenberg rows order like their tuples, so a row's order digits
    are its columns.  A lamplighter's lamp tuple orders like its order
    digits t_j: the lamp value where a lamp is lit, m where a lamp is lit at
    a later column, and 0 past the last lit lamp; the walker is the last
    digit."""
    lamps = len(layout.lo) - 1 if spec.kind == LAMPLIGHTER else 0
    word, place = _split(layout.hi - layout.lo + 1 + (np.arange(len(layout.lo)) < lamps))
    lit = np.zeros(len(keys), dtype=bool)
    out = np.zeros((word[0] + 1, len(keys)), dtype=np.int64)
    for j, digit in layout.digits(keys):
        if j < lamps:
            digit = np.where(digit > 0, digit, spec.modulus * lit)
            lit |= digit > 0
        out[word[j]] += digit * place[j]
    return list(out)


def _canonical(spec: GroupSpec, layout: _Layout, keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys in the lexicographic order of their tuples."""
    if spec.kind != LAMPLIGHTER and layout.words == 1:
        return keys     # one-word Z^d and Heisenberg keys sort like their rows
    order = _order_keys(spec, layout, keys)
    return keys[np.argsort(order[0]) if len(order) == 1 else np.lexsort(order)]


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

    The ball stores what enumeration builds: its row ``layout`` and the
    packed ``keys`` of its vertices in ball order (see the module
    docstring).  ``rows[i]``, vertex ``i`` as an element row, and
    ``vertices[i]``, its tuple encoding, are decoded on first use; vertex
    0 is the identity.  ``edges`` lists each undirected edge once as
    (u, v) with u < v, built from the layout and keys on first read and
    kept, so a ball whose edges nobody reads (``growth``) builds none.
    Vertices are sorted by word length first, so the sub-ball of radius
    r <= radius is exactly the index prefix 0 .. volume(r) - 1.
    """

    spec: GroupSpec
    radius: int
    layout: _Layout
    keys: np.ndarray
    word_length: np.ndarray
    k: int

    def __len__(self) -> int:
        return len(self.keys)

    def __getstate__(self):
        # the decoded caches are rebuilt from the keys on first use; built
        # edges are shipped
        return {key: value for key, value in self.__dict__.items()
                if key not in ("rows", "vertices", "_lookup", "band_rank")}

    @cached_property
    def rows(self) -> np.ndarray:
        return self.layout.rows(self.keys)

    @cached_property
    def vertices(self) -> tuple:
        return _decode(self.spec, self.layout, self.rows)

    @cached_property
    def band_rank(self) -> np.ndarray:
        """Each vertex's place in the band order: by row sum, then by row.

        On Z^d with the ±unit generators the row sum is the coordinate sum,
        so every edge joins adjacent levels, and a level of the r-ball of
        Z^2 holds at most r + 1 vertices; an operator over the ball orders
        its band candidates by it (``spectra._band_tridiagonal``).  Ranks
        restricted to a subset keep their order, so no subset is wider.
        """
        rows = self.rows
        order = np.lexsort([*rows.T[::-1], rows.sum(axis=1)])
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank

    @cached_property
    def _lookup(self) -> tuple:
        """``(ordered, sorter)``: the vertex keys sorted, and their ``argsort``."""
        sorter = np.argsort(self.keys, kind="stable")
        return self.keys[sorter], sorter

    @cached_property
    def edges(self) -> np.ndarray:
        """Sorted int64 edges (u, v), u < v: joined through the K_{m,m}
        cells on Z_m wr Z with the natural generators (:func:`_cell_edges`),
        else where a vertex's neighbour key through a generator of
        ``spec.edge_slots`` is a vertex key (:func:`_edges`), for blocks of
        slots whose keys hold at most ``DEFAULT_VERTEX_BUDGET`` words."""
        spec, layout, keys = self.spec, self.layout, self.keys
        if spec.is_natural_lamplighter:
            return _cell_edges(layout, keys, layout.column(keys, len(layout.lo) - 1))
        slots = spec.edge_slots
        involution = np.array([spec.inverse_slots[i] == i for i in slots])
        step = max(1, DEFAULT_VERTEX_BUDGET // (len(keys) * layout.words))
        return _edges(*self._lookup, (
            (_neighbour_keys(spec, layout, keys, slots[at:at + step]),
             involution[at:at + step]) for at in range(0, len(slots), step)))

    def find_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vertex index of each element row, -1 for rows not in the ball."""
        layout, (ordered, sorter) = self.layout, self._lookup
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(layout.lo))
        out = np.full(len(rows), -1, dtype=np.int64)
        # a row outside the columns' bounds could share a packed key
        inside = np.flatnonzero(((rows >= layout.lo) & (rows <= layout.hi)).all(axis=1))
        found, at = _search(ordered, layout.keys(rows[inside]))
        out[inside[found]] = sorter[at]
        return out

    def find_vertices(self, other: "CayleyBall") -> np.ndarray:
        """Index of each vertex of ``other`` (same group), -1 where absent."""
        layout, source = self.layout, other.layout
        # columns move by the lamp windows' offset (0 unless lamplighter), and
        # a lamp outside this window puts the walker out of bounds
        col = np.arange(len(source.lo) - 1) + source.first_pos - layout.first_pos
        fits = (col >= 0) & (col < len(layout.lo) - 1)
        rows = np.zeros((len(other), len(layout.lo)), dtype=np.int64)
        rows[:, col[fits]] = other.rows[:, :-1][:, fits]
        lost = other.rows[:, :-1][:, ~fits].any(axis=1)
        rows[:, -1] = np.where(lost, layout.hi[-1] + 1, other.rows[:, -1])
        return self.find_rows(rows)

    def index_of(self, element) -> int:
        """Vertex index of a tuple encoding; KeyError if not in the ball."""
        try:
            row = _encode(self.spec, self.layout, element)
        except (TypeError, ValueError):
            raise KeyError(element) from None
        i = int(self.find_rows(row)[0])
        # a non-canonical encoding can share a row with a vertex
        if i < 0 or _decode(self.spec, self.layout, row[None])[0] != element:
            raise KeyError(element)
        return i

    def volume(self, r: int) -> int:
        """V(r) = number of vertices with word length <= r."""
        if r >= self.radius:
            return len(self)
        return int(np.searchsorted(self.word_length, r, side="right"))

    def ball_indices(self, r: int) -> np.ndarray:
        return np.arange(self.volume(r), dtype=np.int64)

    def lamp_values(self, positions) -> np.ndarray:
        """Lamp value of every vertex at each absolute position, one column
        per position (lamplighter balls only).  A position outside the
        ball's lamp window is dark at every vertex."""
        if self.spec.kind != LAMPLIGHTER:
            raise ValueError("only lamplighter balls have lamps")
        layout = self.layout
        col = np.asarray(positions, dtype=np.int64) - layout.first_pos
        values = np.zeros((len(self), len(col)), dtype=np.int64)
        for i in np.flatnonzero((col >= 0) & (col < len(layout.lo) - 1)):
            values[:, i] = layout.column(self.keys, col[i])
        return values


def enumerate_ball(spec: GroupSpec, n: int, budget: int | None = None) -> CayleyBall:
    """B(n) in ball order (word length, then lexicographic encoding): in
    closed form on Z^d with the ±unit generators (:func:`_lattice_ball`) and
    on Z_m wr Z with the natural ones (:func:`_lamplighter_ball`), else by
    BFS (:func:`_bfs_ball`).  It builds the keys and word lengths; the edges
    are built on their first read (:attr:`CayleyBall.edges`).  Raises
    :class:`BudgetError` before building past ``budget`` vertices (default
    2e6), each counted once per key word.

    On Z_m wr Z with the natural generators, lamp p switches only on a step
    across walker positions p - 1 and p: a right mover sets lamp x + 1, a
    left mover lamp x.  A word for (lamps, x) walks from 0 to x over [a, b],
    a = min(0, x, lowest lit - 1) and b = max(0, x, highest lit), setting
    each lamp on its last crossing, so the shortest goes to the nearer end
    first: 2(b - a) - |x| steps (Parry, Trans. AMS 331, 1992).  A right step
    from (L, x) reaches (L', x + 1) for each L' that agrees with L off lamp
    x + 1, so (L, x) and (L', x + 1) are adjacent exactly then, and the 2m
    vertices whose lamps agree off x + 1, at x and x + 1, form a K_{m,m}
    cell: the Cayley graph is the Diestel-Leader graph DL(m, m) (Woess,
    Combin. Probab. Comput. 14, 2005)."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    budget = DEFAULT_VERTEX_BUDGET if budget is None else int(budget)
    # a generator that moves the walker has 2n + 1 distinct powers in B(n),
    # so such a radius is refused before the layout's O(n) columns are built
    if spec.kind == LAMPLIGHTER and 2 * n + 1 > budget and any(x for _, x in spec.generators):
        raise BudgetError(f"ball exceeds the vertex budget of {budget} vertices (group "
                          f"{spec.label()}, radius {n}, {2 * n + 1} walker positions)")
    # with the natural set B(n) also holds the m^(n // 2) patterns of lamps
    # 1 .. n // 2 with the walker at 0; m >= 2, so n // 2 at or past the
    # budget's bit length is past the budget without forming the power
    half = n // 2
    if spec.is_natural_lamplighter and (
            half >= budget.bit_length() or spec.modulus ** half > budget):
        raise BudgetError(f"ball exceeds the vertex budget of {budget} vertices (group "
                          f"{spec.label()}, radius {n}, {spec.modulus}^{half} lamp patterns)")
    build = _lattice_ball if spec.is_hypercubic else \
        _lamplighter_ball if spec.is_natural_lamplighter else _bfs_ball
    return build(spec, n, _layout(spec, n), budget)


def _refuse(spec: GroupSpec, n: int, layout: _Layout, budget: int):
    raise BudgetError(f"ball exceeds the vertex budget of {budget} vertices "
                      f"(group {spec.label()}, radius {n}, {layout.words}-word keys)")


def _lattice_ball(spec: GroupSpec, n: int, layout: _Layout, budget: int) -> CayleyBall:
    """B(n) of the hypercubic Z^d: the points of L1 norm <= n, whose count
    is sum_k 2^k C(d, k) C(n, k) (Conway & Sloane, Proc. R. Soc. A 453,
    1997), checked against the budget before anything is built."""
    d, cap = spec.rank, budget // layout.words
    if sum(2 ** k * comb(d, k) * comb(n, k) for k in range(min(d, n) + 1)) > cap:
        _refuse(spec, n, layout, budget)
    # a coordinate at a time, a partial row with norm `rest` left takes the values
    # -rest..rest in turn: tuple order, which a stable sort by word length keeps
    rest, values, parents = np.array([n]), [], []
    for _ in range(d):
        centre = np.cumsum(2 * rest + 1) - rest - 1     # of each row's run of values
        parents.append(np.repeat(np.arange(len(rest)), 2 * rest + 1))
        values.append(np.arange(len(parents[-1])) - centre[parents[-1]])
        rest = rest[parents[-1]] - np.abs(values[-1])
    at = np.argsort(-rest, kind="stable")
    word_length = (n - rest[at]).astype(np.int32)
    rows = np.empty((len(rest), d), dtype=np.int64)
    for j in range(d - 1, -1, -1):     # each column gathered once, last first
        rows[:, j], at = values[j][at], parents[j][at]
    return CayleyBall(spec=spec, radius=n, layout=layout, keys=layout.keys(rows),
                      word_length=word_length, k=spec.k)


def _natural_word_length(x, first, last):
    """Word length of (lamps, x) in Z_m wr Z with the natural generators, whose
    lit lamps span positions ``first .. last`` (``first, last = 1, 0`` if
    none is lit): 2(b - a) - |x|, a = min(0, x, first - 1), b = max(0, x,
    last) (see :func:`enumerate_ball`)."""
    a = np.minimum(np.minimum(x, first - 1), 0)
    b = np.maximum(np.maximum(x, last), 0)
    return 2 * (b - a) - np.abs(x)


def _lamp_patterns(m: int, n: int) -> tuple:
    """``(value, span)`` of every lamp pattern of B(n) of Z_m wr Z, in tuple
    order, after the empty pattern (0, -1).  A pattern lights lamps at
    offsets 0 .. span from its first lit lamp, both ends lit, span < n;
    ``value`` is the base-m number of its lamp values.

    Tuple order is the order of the patterns' order digits (see
    :func:`_order_keys`): a lit lamp's value, m for an unlit lamp before the
    last lit one, 0 after it.  So tails of k digits come in this order: the
    empty tail (all 0), each lit digit 1 .. m - 1 before every tail of
    k - 1 digits, then the unlit digit m before every nonempty one.  A
    pattern is a lit digit before a tail of n - 1 digits."""
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.full(1, -1)
    # the tails' digits up to the last lit one, and their base-m value
    length, value = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    lit = np.arange(1, m, dtype=np.int64)[:, None]
    for _ in range(n - 1):
        length, value = (np.concatenate([[0], np.tile(length + 1, m - 1), length[1:] + 1]),
                         np.concatenate([[0], (lit * m ** length + value).ravel(), value[1:]]))
    return (np.concatenate([[0], (lit * m ** length + value).ravel()]),
            np.concatenate([[-1], np.tile(length, m - 1)]))


def _lit_groups(n: int, layout: _Layout):
    """For s = 0 .. n - 1 in turn, ``(x, first, length)`` of the groups of
    B(n) of Z_m wr Z (natural generators) whose lamps are lit in columns
    first .. first + s, both ends lit: their walker, first column and word
    length (:func:`_natural_word_length`)."""
    # the first lit lamp is at p >= 1 - n, past column 0 (position -n)
    x, first = (axis.ravel() for axis in np.meshgrid(
        np.arange(-n, n + 1), np.arange(1, len(layout.lo) - 1), indexing="ij"))
    for s in range(n):
        length = _natural_word_length(x, first + layout.first_pos,
                                      first + s + layout.first_pos)
        lit = length <= n
        yield x[lit], first[lit], length[lit]


def _lamplighter_ball(spec: GroupSpec, n: int, layout: _Layout, budget: int) -> CayleyBall:
    """B(n) of Z_m wr Z with the natural generators, in closed form.

    Its vertices fall in groups: walker x and no lamp lit, or walker x and
    lamps lit at p .. p + s with both ends lit, which has m - 1 lamp
    patterns if s = 0, else (m - 1)^2 m^(s - 1) (:func:`_lit_groups`).  The
    ball's size is checked against the budget before anything is built:
    first against m^(n // 2), the patterns of lamps 1 .. n // 2 with the
    walker at 0, which bounds n before any group is listed, then group by
    group.  Ball order is one int64 sort key: word length, then the column
    of the first lit lamp (0 if none), then the pattern's place in tuple
    order (:func:`_lamp_patterns`), then x; its range is bounded in Python
    ints first.  Its edges, read later, join the K_{m,m} cells
    (:func:`_cell_edges`), and no neighbour key is made."""
    m, lamps, cap = spec.modulus, len(layout.lo) - 1, budget // layout.words
    # B(n) holds the m^(n // 2) patterns of lamps 1 .. n // 2 with the walker at 0
    if m ** (n // 2) > cap:
        _refuse(spec, n, layout, budget)
    # patterns per bucket: no lamp lit (bucket 0), then lamps lit in s + 1
    # columns (bucket s + 1)
    sizes = ([1, m - 1] + [(m - 1) ** 2 * m ** (s - 1) for s in range(1, n)])[:n + 1]
    total = 2 * n + 1
    for size, (x, _, _) in zip(sizes[1:], _lit_groups(n, layout)):
        total += size * len(x)
        if total > cap:
            _refuse(spec, n, layout, budget)
    width, patterns = 2 * n + 1, sum(sizes)
    # this bound is also past m^n, the patterns' largest base-m value
    bound = (n + 1) * lamps * patterns * width
    if bound >= 2 ** 63:
        raise BudgetError(f"B({n}) of {spec.label()} orders its vertices by {bound} "
                          f"sort keys, past the int64 range (2^63)")

    walker = np.arange(-n, n + 1)
    groups = [(walker, 0 * walker, np.abs(walker)), *_lit_groups(n, layout)]
    x, first, length = (np.concatenate(axis) for axis in zip(*groups))
    bucket = np.repeat(np.arange(n + 1), [len(group[0]) for group in groups])
    del groups
    value, pattern_span = _lamp_patterns(m, n)
    # places in tuple order of the patterns of each bucket, buckets in turn
    by_bucket = np.argsort(pattern_span, kind="stable")
    sizes = np.array(sizes, dtype=np.int64)
    count = sizes[bucket]
    order = np.repeat(((length * lamps + first) * patterns) * width + x + n, count)
    at = np.repeat(np.cumsum(sizes)[bucket] - sizes[bucket] - (np.cumsum(count) - count), count)
    at += np.arange(len(at))
    order += by_bucket[at] * width
    del at
    order.sort()

    x = order % width - n
    order //= width
    pattern = order % patterns
    order //= patterns
    first = order % lamps
    word_length = (order // lamps).astype(np.int32)
    del order
    keys = _pattern_keys(layout, m ** np.arange(n + 1), value[pattern], first,
                         first + pattern_span[pattern], x)
    return CayleyBall(spec=spec, radius=n, layout=layout, keys=keys, word_length=word_length,
                      k=spec.k)


def _pattern_keys(layout: _Layout, powers: np.ndarray, value: np.ndarray,
                  first: np.ndarray, last: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Keys of lamplighter elements whose lit lamps are the base-m digits of
    ``value`` in columns ``first .. last``, walker ``x``; ``powers`` holds
    m^0, m^1, ... up to m^(last - first + 1).  A word takes the digits of
    the columns it holds, each at its column's place."""
    word, place = layout.split
    lamps = len(layout.lo) - 1
    words = np.zeros((len(value), layout.words), dtype=np.int64)
    for w in range(layout.words):
        columns = np.flatnonzero(word[:lamps] == w)
        if not len(columns):
            continue
        # the digits in columns first .. last and in this word, if any
        top = np.minimum(last, columns[-1])
        digits = np.maximum(top - np.maximum(first, columns[0]) + 1, 0)
        below = np.minimum(last - top, len(powers) - 1)
        words[:, w] = value // powers[below] % powers[digits] * place[top]
    words[:, word[-1]] += (x - layout.lo[-1]) * place[-1]
    return layout.pack(words)


def _clear_lamp(layout: _Layout, keys: np.ndarray, j: np.ndarray, back: int) -> np.ndarray:
    """Keys of lamplighter rows with lamp column ``j`` (one per key) cleared
    and the walker moved back by ``back``."""
    lamp, words = layout.column(keys, j), layout.unpack(keys)
    out = np.empty_like(words)
    for w, places in enumerate(layout.places):
        out[:, w] = words[:, w] - lamp * places[j] - back * places[-1]
    return layout.pack(out)


def _runs(ids: np.ndarray) -> tuple:
    """``(order, start, count, id)`` of the runs of equal ``ids``: the
    ``argsort`` of the ids, and each run's start in it, length and id."""
    order = np.argsort(ids)
    ids = ids[order]
    start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    return order, start, np.diff(np.r_[start, len(ids)]), ids[start]


def _cell_edges(layout: _Layout, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sorted edges (u, v), u < v, of a ball of Z_m wr Z with the natural
    generators, from its vertices' keys and walkers ``x``.

    A vertex's right cell id is its key with lamp x + 1 cleared, its left
    cell id its key with lamp x cleared and the walker one back; each cell
    joins every vertex of its right run to every vertex of its left run
    (:func:`_runs`).  A cell's pairs are built from its side with fewer
    vertices, a member at a time, and all pairs are sorted once."""
    col = x - layout.first_pos     # of lamp x
    runs = [_runs(_clear_lamp(layout, keys, j, back)) for j, back in ((col + 1, 0), (col, 1))]
    del col
    found, at = _search(runs[1][3], runs[0][3])
    sides = [(order, start[pick], count[pick])
             for (order, start, count, _), pick in zip(runs, (found, at))]
    del runs, found, at
    pairs = np.empty(int(sides[0][2] @ sides[1][2]), dtype=np.int64)
    filled, swap, size = 0, sides[0][2] > sides[1][2], len(keys)
    for keep, ((few, few_start, few_count), (many, many_start, many_count)) in (
            (~swap, sides), (swap, sides[::-1])):
        few_start, few_count = few_start[keep], few_count[keep]
        many_start, many_count = many_start[keep], many_count[keep]
        for j in range(few_count.max(initial=0)):
            here = few_count > j
            count = many_count[here]
            u = np.repeat(few[few_start[here] + j], count)
            v = many[np.repeat(many_start[here] - np.cumsum(count) + count, count)
                     + np.arange(len(u))]
            pairs[filled:filled + len(u)] = np.minimum(u, v) * size + np.maximum(u, v)
            filled += len(u)
            del u, v
    del sides
    pairs.sort()
    edges = np.empty((len(pairs), 2), dtype=np.int64)
    np.divmod(pairs, size, out=(edges[:, 0], edges[:, 1]))
    return edges


def _bfs_ball(spec: GroupSpec, n: int, layout: _Layout, budget: int) -> CayleyBall:
    """B(n) by BFS from the identity, a layer of element keys at a time.

    The generator set is symmetric, so layer L's neighbours lie in layers
    L - 1, L and L + 1, and the new layer is the distinct neighbour keys
    minus those of the first two, put in the order of their tuples.  A
    layer whose neighbours could pass the budget is built from chunks of
    the frontier and refused as soon as its distinct new keys do.  No
    neighbour key outlives its layer: the edges look their own up when read.
    """
    cap = budget // layout.words    # no more neighbour-key words than one-word balls
    keys = layout.keys(np.zeros((1, len(layout.lo)), dtype=np.int64))
    layers, total = [keys], 1
    older, current = keys[:0], keys     # the last two layers, sorted
    for _ in range(n):
        # one chunk unless the frontier's neighbours could pass the budget
        step = max(1, (cap - total) // spec.k)
        fresh = keys[:0]
        for start in range(0, len(keys), step):
            ahead = _neighbour_keys(spec, layout, keys[start:start + step])
            fresh = sorted_unique(np.concatenate([fresh, ahead.ravel()]), older, current)
            if total + len(fresh) > cap:
                _refuse(spec, n, layout, budget)
        total += len(fresh)
        older, current = current, fresh
        keys = _canonical(spec, layout, fresh)
        layers.append(keys)
    word_length = np.repeat(np.arange(n + 1, dtype=np.int32), [len(layer) for layer in layers])
    return CayleyBall(spec=spec, radius=n, layout=layout, keys=np.concatenate(layers),
                      word_length=word_length, k=spec.k)


def sorted_unique(values: np.ndarray, *seen: np.ndarray) -> np.ndarray:
    """The distinct ``values``, flattened and sorted, that no sorted array in
    ``seen`` holds.  Without ``seen`` it is ``np.unique``, by one sort:
    numpy 2.4's ``np.unique`` hashes, many times slower on int64."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    for old in seen:
        keep &= ~_search(old, values)[0]
    return values[keep]


def _edges(ordered: np.ndarray, sorter: np.ndarray, blocks) -> np.ndarray:
    """Sorted edges (u, v), u < v, where row u of a block's ``neighbours``
    holds the key of vertex v, given the sorted vertex keys, their
    ``argsort`` and ``(neighbours, involution)`` blocks of columns.

    Column c holds one generator g of an inverse pair, so it finds each
    edge of g once, from one end, unless g is its own inverse
    (``involution[c]``): then it finds it from both ends, kept as u < v."""
    pairs = []
    for neighbours, involution in blocks:
        width = neighbours.shape[1]
        found, at = _search(ordered, neighbours.ravel())
        hit = np.flatnonzero(found)
        u, v = hit // width, sorter[at]
        keep = (v > u) | ~involution[hit % width]
        u, v = u[keep], v[keep]
        pairs.append(np.minimum(u, v) * len(sorter) + np.maximum(u, v))
    # the pairs are distinct, so one sort of u * n + v orders them
    pairs = np.sort(np.concatenate(pairs))
    return np.stack(np.divmod(pairs, len(sorter)), axis=1)


# ---------------------------------------------------------------------------
# growth data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GrowthProfile:
    """Ball volumes V(0..n_max) and the inverse growth function.

    ``phi(t)`` is the smallest radius n >= 0 with V(n) > t, for
    0 <= t < V(n_max).
    """

    spec: GroupSpec
    radii: np.ndarray
    volumes: np.ndarray

    @property
    def n_max(self) -> int:
        return int(self.radii[-1])

    def phi(self, t) -> np.ndarray | int:
        t_arr = np.asarray(t)
        if np.any(t_arr < 0) or np.any(t_arr >= self.volumes[-1]):
            raise ValueError(
                f"phi is defined only for 0 <= t < {int(self.volumes[-1])}")
        out = np.searchsorted(self.volumes, t_arr, side="right")
        return int(out) if np.isscalar(t) else out


def growth_profile(ball: CayleyBall) -> GrowthProfile:
    """Tabulate V(0..n) on an enumerated ball B(n), which defines phi over [0, V(n))."""
    if ball.radius < 2:
        raise ValueError("need a ball of radius >= 2")
    radii = np.arange(ball.radius + 1)
    volumes = np.searchsorted(ball.word_length, radii, side="right")
    return GrowthProfile(spec=ball.spec, radii=radii,
                         volumes=volumes.astype(np.int64))


# ---------------------------------------------------------------------------
# finite subgraphs
# ---------------------------------------------------------------------------

def locate(members: np.ndarray, wanted: np.ndarray) -> tuple:
    """Where each entry of ``wanted`` sits in ``members`` (distinct, any order).

    A binary search in a sorted copy of ``members``.  Returns ``(found,
    at)``: ``found`` flags the entries of ``wanted`` that are members, and
    ``at`` holds the position in ``members`` of each found entry, in order.
    """
    sorter = np.argsort(members, kind="stable")
    found, at = _search(members[sorter], wanted)
    return found, sorter[at]


def _search(ordered: np.ndarray, wanted: np.ndarray) -> tuple:
    """:func:`locate` in a sorted array: ``at`` indexes ``ordered``."""
    at = np.searchsorted(ordered, wanted)
    found = at < len(ordered)
    found[found] = ordered[at[found]] == wanted[found]
    return found, at[found]


@dataclass(eq=False)
class FiniteSubgraph:
    """A finite subgraph of an enumerated ball.

    ``vertex_indices`` are parent-ball indices in a meaningful order (path
    order for line graphs, ascending otherwise); ``edges`` are parent-index
    pairs.

    Construction rejects duplicate members, then locates every edge
    endpoint once with :func:`locate` and rejects an edge leaving the
    member set.  The resulting positions are kept and returned by
    :meth:`local_edges`; members 0 .. size - 1, in order, are their own
    positions, and their edges are only checked to lie among them.  Its
    Laplacians (``operators.subgraph_laplacian``) need distinct, loop-free
    edges, as every subgraph of a ball has.
    """

    parent: CayleyBall
    vertex_indices: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        self.vertex_indices = np.asarray(self.vertex_indices, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self._components = None
        if np.array_equal(self.vertex_indices, np.arange(self.size)):
            inside = ((self.edges >= 0) & (self.edges < self.size)).all(axis=1)
            at = self.edges.view()
        else:
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
            count, labels = connected_components(self.size, self._local_edges)
            labels.flags.writeable = False
            self._components = (count, labels)
        return self._components

    @property
    def connected(self) -> bool:
        return self.size > 0 and self.components()[0] == 1


def connected_components(n: int, edges) -> tuple:
    """``(count, labels)`` of the graph on 0 .. n - 1 with the given edges,
    by hook and shortcut (Shiloach & Vishkin, J. Algorithms 3, 1982).  A
    root is hooked only to a smaller one, so labels number the components
    by smallest vertex, as scipy's ``csgraph.connected_components`` does."""
    root = np.arange(n)
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    while len(u):
        ru, rv = root[u], root[v]
        live = ru != rv
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(root, up := root[root]):
            root = up
    is_root = root == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


def induced_subgraph(parent: CayleyBall, vertex_indices) -> FiniteSubgraph:
    """Subgraph induced by ``vertex_indices`` (sorted ascending)."""
    idx = sorted_unique(np.asarray(vertex_indices, dtype=np.int64))
    if len(idx) and (idx[0] < 0 or idx[-1] >= len(parent)):
        raise ValueError("vertex index out of range for the parent ball")
    mask = np.zeros(len(parent), dtype=bool)
    mask[idx] = True
    edges = parent.edges
    return FiniteSubgraph(parent=parent, vertex_indices=idx,
                          edges=edges[mask[edges[:, 0]] & mask[edges[:, 1]]])


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
                          edges=edges)


def tetrahedron_vertex_count(m: int, n: int) -> int:
    """(n+1) m^n, the vertex count of the depth-n tetrahedron of Z_m wr Z.

    Raises :class:`BudgetError` above the default vertex budget, from the
    arithmetic alone, and ``ValueError`` below depth 1.  m^n is at least
    2^(n (bits of m - 1)): past 2^64 it is not computed, and the message
    gives the count as (n+1) * m^n.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    if n * (m.bit_length() - 1) <= 64:
        size = (n + 1) * m ** n
        if size <= DEFAULT_VERTEX_BUDGET:
            return size
    else:
        size = f"{n + 1} * {m}^{n}"
    raise BudgetError(f"the depth-{n} tetrahedron of Z_{m} wr Z has {size} vertices, "
                      f"above the vertex budget of {DEFAULT_VERTEX_BUDGET}")


def tetrahedron_edge_count(m: int, n: int) -> int:
    """n m^(n+1), the edges of the depth-n tetrahedron of Z_m wr Z: n walker
    steps, m^(n-1) K_{m,m} cells a step, m^2 edges a cell.  Raises as
    :func:`tetrahedron_vertex_count`, and :class:`BudgetError` above 4e6 edges."""
    size, edges = tetrahedron_vertex_count(m, n), n * m ** (n + 1)
    if edges > 2 * DEFAULT_VERTEX_BUDGET:
        raise BudgetError(f"the depth-{n} tetrahedron of Z_{m} wr Z has {size} vertices "
                          f"and {edges} edges, above the budget of "
                          f"{2 * DEFAULT_VERTEX_BUDGET} edges")
    return edges


def _tetrahedron_columns(m: int, n: int) -> _Layout:
    """Layout of the depth-n tetrahedron: lamps at positions 0..n+1 and the
    walker in -1..n+1 hold every member and every neighbour."""
    return _Layout(lo=np.r_[np.zeros(n + 2, dtype=np.int64), -1],
                   hi=np.r_[np.full(n + 2, m - 1, dtype=np.int64), n + 1])


def tetrahedron(m: int, n: int) -> FiniteSubgraph:
    """Depth-n tetrahedron of the lamplighter graph Z_m wr Z, in closed form.

    Vertex set: pairs (lamps, x) with 0 <= x <= n and lamp support inside
    {1, ..., n}; contains exactly (n+1) * m^n vertices.  The parent holds
    exactly these members, with their word lengths, in the order of every
    ball B(r), r >= 2n, and with every Cayley edge between them, joined
    through the K_{m,m} cells as in a ball (:func:`_cell_edges`), so the
    subgraph is induced.  Its layout is its own n + 3 columns
    (:func:`_tetrahedron_columns`), so below the budget a member is one
    int64 key and its tuple order one int64.  Raises :class:`BudgetError`
    above the default vertex or edge budget, before allocating
    (:func:`tetrahedron_edge_count`).
    """
    tetrahedron_edge_count(m, n)
    spec = GroupSpec.lamplighter(m)
    layout = _tetrahedron_columns(m, n)
    # every lamp pattern on {1, ..., n}, at every walker position 0..n, packed
    # column by column (lamps lo 0, walker lo -1) without building the rows
    lamps = np.arange(m ** n)[:, None] // m ** np.arange(n)[::-1] % m
    x = np.arange(n + 1)
    place = layout.split[1]
    keys = ((lamps @ place[1:n + 1])[:, None] + (x - layout.lo[-1]) * place[-1]).ravel()
    # the lit lamps lie in 1 .. top, top = 0 if none: a = 0 for every member
    top = (np.arange(1, n + 1) * (lamps > 0)).max(axis=1)[:, None]
    word_length = _natural_word_length(x, 1, top).astype(np.int32).ravel()
    order = np.lexsort([*_order_keys(spec, layout, keys), word_length])
    parent = CayleyBall(spec=spec, radius=2 * n, layout=layout, keys=keys[order], k=spec.k,
                        word_length=word_length[order])
    return FiniteSubgraph(parent=parent, vertex_indices=np.arange(len(parent)),
                          edges=parent.edges)


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

def is_bipartite(ball: CayleyBall) -> bool:
    """Whether the enumerated ball is bipartite.

    Word length is BFS depth from the identity, and an edge joins word
    lengths that differ by at most one.  So the ball is bipartite iff no
    edge joins two vertices of equal word length, and then the parity of
    the word length is a proper coloring.
    """
    depth = ball.word_length
    return not np.any(depth[ball.edges[:, 0]] == depth[ball.edges[:, 1]])
