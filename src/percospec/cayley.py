"""Cayley-graph enumeration for the group families used by the lab.

Supported families: free abelian groups Z^d, the discrete Heisenberg group
of 3x3 upper unitriangular integer matrices, and lamplighter wreath products
Z_m wr Z.  A ball's vertex order (word length, then lexicographic encoding)
is the canonical order that every downstream matrix inherits, so results
are reproducible bit for bit.  Z^d balls with the ±unit generators are
built in closed form, the others breadth first from the identity.

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
that built it, and every lookup reads them; its rows and the tuple
encodings of ``CayleyBall.vertices`` are decoded on first use.  A ball's
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

_TETRAHEDRON_KEY_BUDGET = 4 * DEFAULT_VERTEX_BUDGET

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
        return len(self.places)

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
    (u, v) with u < v.  Vertices are sorted by word length first, so the
    sub-ball of radius r <= radius is exactly the index prefix
    0 .. volume(r) - 1.
    """

    spec: GroupSpec
    radius: int
    layout: _Layout
    keys: np.ndarray
    word_length: np.ndarray
    edges: np.ndarray
    k: int

    def __len__(self) -> int:
        return len(self.keys)

    def __getstate__(self):
        # the decoded caches are rebuilt from the keys on first use
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
        its band candidates by it (``spectra._band_eigenvalues``).  Ranks
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
    """B(n) in ball order (word length, then lexicographic encoding), edges
    sorted: in closed form on Z^d with the ±unit generators (:func:`_lattice_ball`),
    else by BFS (:func:`_bfs_ball`).  Raises :class:`BudgetError` before building
    past ``budget`` vertices (default 2e6), each counted once per key word."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    budget = DEFAULT_VERTEX_BUDGET if budget is None else int(budget)
    build = _lattice_ball if spec.is_hypercubic else _bfs_ball
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
    keys = layout.keys(rows)
    return _ball(spec, n, layout, keys, word_length,
                 _neighbour_keys(spec, layout, keys, spec.edge_slots))


def _bfs_ball(spec: GroupSpec, n: int, layout: _Layout, budget: int) -> CayleyBall:
    """B(n) by BFS from the identity, a layer of element keys at a time.

    The generator set is symmetric, so layer L's neighbours lie in layers
    L - 1, L and L + 1, and the new layer is the distinct neighbour keys
    minus those of the first two, put in the order of their tuples.  A
    layer whose neighbours could pass the budget is built from chunks of
    the frontier and refused as soon as its distinct new keys do.  The
    edges keep the neighbours of ``spec.edge_slots`` only, and the last
    layer computes no others.
    """
    cap = budget // layout.words    # no more neighbour-key words than one-word balls
    keys = layout.keys(np.zeros((1, len(layout.lo)), dtype=np.int64))
    layers, neighbours, total = [keys], [], 1
    older, current = keys[:0], keys     # the last two layers, sorted
    slots = list(spec.edge_slots)
    for _ in range(n):
        # one chunk unless the frontier's neighbours could pass the budget
        step = max(1, (cap - total) // spec.k)
        fresh = keys[:0]
        for start in range(0, len(keys), step):
            ahead = _neighbour_keys(spec, layout, keys[start:start + step])
            neighbours.append(ahead[:, slots])
            fresh = sorted_unique(np.concatenate([fresh, ahead.ravel()]), older, current)
            if total + len(fresh) > cap:
                _refuse(spec, n, layout, budget)
        total += len(fresh)
        older, current = current, fresh
        keys = _canonical(spec, layout, fresh)
        layers.append(keys)
    neighbours.append(_neighbour_keys(spec, layout, keys, slots))

    return _ball(spec, n, layout, np.concatenate(layers),
                 np.repeat(np.arange(n + 1, dtype=np.int32),
                           [len(layer) for layer in layers]),
                 np.concatenate(neighbours))


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


def _ball(spec: GroupSpec, radius: int, layout: _Layout, keys: np.ndarray,
          word_length: np.ndarray, neighbours: np.ndarray) -> CayleyBall:
    """Ball-ordered vertices, joined where row i of ``neighbours``, the
    neighbour keys of ``spec.edge_slots``, holds a key."""
    ball = CayleyBall(spec=spec, radius=radius, layout=layout, keys=keys,
                      word_length=word_length, edges=None, k=spec.k)
    slots = spec.edge_slots
    involution = np.array([spec.inverse_slots[i] == i for i in slots])
    ball.edges = _edges(*ball._lookup, neighbours, involution)
    return ball


def _edges(ordered: np.ndarray, sorter: np.ndarray, neighbours: np.ndarray,
           involution: np.ndarray) -> np.ndarray:
    """Sorted edges (u, v), u < v, where row u of ``neighbours`` holds the
    key of vertex v, given the sorted vertex keys and their ``argsort``.

    Column c holds one generator g of an inverse pair, so it finds each
    edge of g once, from one end, unless g is its own inverse
    (``involution[c]``): then it finds it from both ends, kept as u < v."""
    width = neighbours.shape[1]
    found, at = _search(ordered, neighbours.ravel())
    hit = np.flatnonzero(found)
    u, v = hit // width, sorter[at]
    keep = (v > u) | ~involution[hit % width]
    u, v = u[keep], v[keep]
    # the pairs are distinct, so one sort of u * n + v orders them
    pairs = np.sort(np.minimum(u, v) * len(sorter) + np.maximum(u, v))
    return np.stack(np.divmod(pairs, len(sorter)), axis=1)


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


def growth_profile(ball: CayleyBall) -> GrowthProfile:
    """Tabulate V(0..n) and phi over [0, V(n)) on an enumerated ball B(n)."""
    if ball.radius < 2:
        raise ValueError("need a ball of radius >= 2")
    radii = np.arange(ball.radius + 1)
    volumes = np.searchsorted(ball.word_length, radii, side="right")
    ts = np.arange(volumes[-1])
    phi_values = np.searchsorted(volumes, ts, side="right")
    return GrowthProfile(spec=ball.spec, radii=radii,
                         volumes=volumes.astype(np.int64),
                         phi_values=phi_values.astype(np.int64))


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
    positions, and their edges are only checked to lie among them.
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
    if len(parent.edges):
        keep = mask[parent.edges[:, 0]] & mask[parent.edges[:, 1]]
        edges = parent.edges[keep]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return FiniteSubgraph(parent=parent, vertex_indices=idx, edges=edges)


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
    arithmetic alone, and ``ValueError`` below depth 1.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    size = (n + 1) * m ** n
    if size > DEFAULT_VERTEX_BUDGET:
        raise BudgetError(
            f"the depth-{n} tetrahedron of Z_{m} wr Z has {size} vertices, "
            f"above the vertex budget of {DEFAULT_VERTEX_BUDGET}")
    return size


def tetrahedron_key_count(m: int, n: int) -> int:
    """(n+1) m^n * 2m, the neighbour keys that building the depth-n
    tetrahedron of Z_m wr Z holds.  Raises as :func:`tetrahedron_vertex_count`,
    and :class:`BudgetError` above the keys of a budget-sized ball of degree 4."""
    size = tetrahedron_vertex_count(m, n)
    if size * 2 * m > _TETRAHEDRON_KEY_BUDGET:
        raise BudgetError(f"the depth-{n} tetrahedron of Z_{m} wr Z has {size} vertices "
                          f"with {size * 2 * m} neighbour keys, above the budget of "
                          f"{_TETRAHEDRON_KEY_BUDGET} keys")
    return size * 2 * m


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
    ball B(r), r >= 2n, and with every Cayley edge between them, so the
    subgraph is induced.  Its layout is its own n + 3 columns
    (:func:`_tetrahedron_columns`), so below the budget a member is one
    int64 key and its tuple order one int64.  Raises :class:`BudgetError`
    above the default vertex budget or the neighbour-key budget, before
    allocating (:func:`tetrahedron_key_count`).
    """
    tetrahedron_key_count(m, n)
    spec = GroupSpec.lamplighter(m)
    layout = _tetrahedron_columns(m, n)
    # every lamp pattern on {1, ..., n}, at every walker position 0..n, packed
    # column by column (lamps lo 0, walker lo -1) without building the rows
    lamps = np.arange(m ** n)[:, None] // m ** np.arange(n)[::-1] % m
    x = np.arange(n + 1)
    place = layout.split[1]
    keys = ((lamps @ place[1:n + 1])[:, None] + (x - layout.lo[-1]) * place[-1]).ravel()
    # a shortest word walks right to max(walker, top lit lamp), then back
    top = (np.arange(1, n + 1) * (lamps > 0)).max(axis=1)[:, None]
    word_length = (2 * np.maximum(x, top) - x).astype(np.int32).ravel()
    order = np.lexsort([*_order_keys(spec, layout, keys), word_length])
    keys = keys[order]
    parent = _ball(spec, 2 * n, layout, keys, word_length[order],
                   _neighbour_keys(spec, layout, keys, spec.edge_slots))
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
