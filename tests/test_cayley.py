"""Ball enumeration, growth tables, special subgraphs, bipartiteness."""

import hashlib
import itertools
import pickle
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percospec import cayley
from percospec.cayley import (
    FiniteSubgraph,
    GroupSpec,
    enumerate_ball,
    growth_profile,
    identity_element,
    induced_subgraph,
    inner_vertex_boundary,
    inverse,
    is_bipartite,
    line_subgraph,
    multiply,
    tetrahedron,
)
from percospec.errors import BudgetError


def naive_ball(spec, n):
    """Independent brute-force BFS oracle: unsorted vertex and edge sets."""
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
        frontier = nxt
    edges = set()
    for u in dist:
        for g in spec.generators:
            v = multiply(spec, u, g)
            if v in dist:
                edges.add(frozenset((u, v)))
    return dist, edges


# ---------------------------------------------------------------------------
# ball enumeration
# ---------------------------------------------------------------------------

def test_z_ball_sizes():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    assert len(ball) == 7
    assert ball.k == 2
    assert ball.vertices[0] == (0,)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_z2_ball_volume_formula(n):
    # V(n) = 2n^2 + 2n + 1 on Z^2 with the standard generators
    ball = enumerate_ball(GroupSpec.free_abelian(2), n)
    assert len(ball) == 2 * n * n + 2 * n + 1


def test_z2_ball_matches_naive_oracle():
    spec = GroupSpec.free_abelian(2)
    ball = enumerate_ball(spec, 3)
    dist, edges = naive_ball(spec, 3)
    assert set(ball.vertices) == set(dist)
    got = {frozenset((ball.vertices[u], ball.vertices[v])) for u, v in ball.edges}
    assert got == edges
    for i, v in enumerate(ball.vertices):
        assert dist[v] == ball.word_length[i]


def test_lamplighter_ball_radius_one():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 1)
    assert len(ball) == 5
    assert ball.k == 4


def test_heisenberg_ball_matches_naive_oracle():
    spec = GroupSpec.heisenberg()
    ball = enumerate_ball(spec, 4)
    dist, edges = naive_ball(spec, 4)
    assert set(ball.vertices) == set(dist)
    got = {frozenset((ball.vertices[u], ball.vertices[v])) for u, v in ball.edges}
    assert got == edges


def test_determinism():
    spec = GroupSpec.lamplighter(3)
    b1 = enumerate_ball(spec, 4)
    b2 = enumerate_ball(spec, 4)
    assert b1.vertices == b2.vertices
    assert np.array_equal(b1.edges, b2.edges)


def test_interior_regularity():
    for spec in (GroupSpec.free_abelian(2), GroupSpec.heisenberg(),
                 GroupSpec.lamplighter(2)):
        ball = enumerate_ball(spec, 4)
        deg = np.zeros(len(ball), dtype=int)
        for u, v in ball.edges:
            deg[u] += 1
            deg[v] += 1
        interior = ball.word_length <= 3
        assert np.all(deg[interior] == ball.k)


def test_vertex_budget_error():
    with pytest.raises(BudgetError, match="17"):
        enumerate_ball(GroupSpec.free_abelian(2), 4, budget=17)


def _z_spec(step):
    return GroupSpec.free_abelian(1, generators=[(step,), (-step,)])


def test_column_span_past_int64_is_refused():
    # B(9) covers -9 * 2^59 .. 9 * 2^59: 9 * 2^60 + 1 values, past 2^63
    with pytest.raises(BudgetError, match="int64 range"):
        enumerate_ball(_z_spec(2 ** 59), 8)


def test_column_span_under_int64_builds():
    ball = enumerate_ball(_z_spec(2 ** 58), 8)
    assert len(ball) == 17
    assert ball.vertices[0] == (0,)
    assert sorted(ball.rows[:, 0].tolist()) == [j * 2 ** 58 for j in range(-8, 9)]
    assert ball.index_of((8 * 2 ** 58,)) == len(ball) - 1


def test_ball_prefix_property():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 4)
    for r in range(5):
        assert ball.volume(r) == 2 * r * r + 2 * r + 1
        assert np.all(ball.word_length[:ball.volume(r)] <= r)


# ---------------------------------------------------------------------------
# ball enumeration against pinned digests and a tuple reference
# ---------------------------------------------------------------------------

def tuple_ball(spec, n):
    """Reference enumeration on tuple encodings: BFS with a distance dict,
    each layer in lexicographic tuple order, edges from ``multiply``."""
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
        frontier = nxt
    layers = [[] for _ in range(n + 1)]
    for v, d in dist.items():
        layers[d].append(v)
    vertices = [v for layer in layers for v in sorted(layer)]
    index = {v: i for i, v in enumerate(vertices)}
    edges = sorted((i, index[w]) for i, u in enumerate(vertices)
                   for w in (multiply(spec, u, g) for g in spec.generators)
                   if index.get(w, -1) > i)
    return tuple(vertices), [dist[v] for v in vertices], edges


def ball_digest(ball):
    h = hashlib.sha256()
    h.update(repr(ball.vertices).encode())
    h.update(repr(ball.word_length.tolist()).encode())
    h.update(repr(ball.edges.tolist()).encode())
    return h.hexdigest()


_DIGEST_SPECS = {
    "Z": GroupSpec.free_abelian(1),
    "Z2": GroupSpec.free_abelian(2),
    "Z3": GroupSpec.free_abelian(3),
    "Z-pm1-pm2": GroupSpec.free_abelian(1, generators=[(1,), (-1,), (2,), (-2,)]),
    "Z2-diagonal": GroupSpec.free_abelian(2, generators=[
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]),
    "heisenberg": GroupSpec.heisenberg(),
    "lamplighter2": GroupSpec.lamplighter(2),
    "lamplighter3": GroupSpec.lamplighter(3),
    "lamplighter5": GroupSpec.lamplighter(5),
}

# sha256 of (vertices, word_length, edges), recorded from the tuple BFS
_BALL_DIGESTS = {
    ("Z", 0): "efe2318fed981722f605a8fbd90a33245a07b77b7fd209443c4d574a3131d74b",
    ("Z", 1): "c87324d2635b9bad293a2f793c0a05c31ed3e3a1ebbe9db838c19967c8351f33",
    ("Z", 5): "e59208c45a746ded04ba8f852192c795b08dfbc17c73f120bcd5deafb4192109",
    ("Z", 40): "3e612d105b196e100ee88b24c8a473f538cd68c5236cfd3b64ab93550701e9de",
    ("Z2", 0): "04dfcb8b374e927e2cdb855a4292bf967cd7a9e20303cdde5098659d4ff7547d",
    ("Z2", 3): "e23bd3adf4e1f1f20598fcea06baee02564a6680c4606894fabf9c718cb658a3",
    ("Z2", 8): "b984af3fe64d4ff3d9071f465b129e4fe5a91fb9695574df590c4a6bc8b8e22d",
    ("Z3", 2): "0153ca464aa6fb5f1052d368fa605a0842db872440ae45670ceb82cda1bf94e4",
    ("Z3", 5): "387de208d5dd1ac2d731e8c1e49897386e4a98be49a6ba0853d20abc3aa5f22b",
    ("Z-pm1-pm2", 1): "8773e26b61f95efe8259f09b6689e270e6684a1556597c24ccbe062381c0b477",
    ("Z-pm1-pm2", 4): "e602d5281d851459194265e3b0757b1439c8bdb7f66033349ac058d8b777899a",
    ("Z-pm1-pm2", 9): "b2a1a0404ae9a7fcff7656338329ec656656ab4bc391bcb391aea567f861ea25",
    ("Z2-diagonal", 2): "8acb01359a1748a2f88bfc95812ad4b6a7cc56916cdd042a319cd3f0dd0fcaba",
    ("Z2-diagonal", 6): "0af03c77b01c1daf3be386752d4813de0cd3ebde525eb0b2b892b4f8626c9f31",
    ("heisenberg", 1): "59000e7f2a785b499fd96fac7f457ad4df68c99ac734a1597a28d382a24fa52e",
    ("heisenberg", 4): "edbd4588ebe9f6c2f865afd84dbcc3a18b0ec7af158a826be81a7f515d295054",
    ("heisenberg", 7): "3403b974f1c453473dde504f4206da12f5803600d30d7345429e9ba30027968c",
    ("lamplighter2", 1): "aeabaa25ee3132a111bbf0e2abc0ac0cb29da30e3cc4a1adf9556c6c99e13dd7",
    ("lamplighter2", 4): "84fa3da099eb578f194d1dee1728f641f4123d16bad35f8d6ab80d472e9a1189",
    ("lamplighter2", 8): "00a1ca5ba8d3dfdcbd18433ea29359291bce708995f578e1fcabb09898831075",
    ("lamplighter3", 2): "7b63f182666766f351198622d362329df4b6fd59507f3f73849e1f110f0c4691",
    ("lamplighter3", 5): "3ffbdb7cf1aaf3d992c2becfe1f64670d70ae170342634486b724e0324c11744",
    ("lamplighter3", 10): "785206fc327080893a4e9d6a5b764be7851a84073666a8696b8d2a6775304150",
    ("lamplighter5", 1): "ce715c25c710e086dd428702ccc395f15e99f26c2e8c0539f17fd670c17ed7b8",
    ("lamplighter5", 3): "e3529d6d6af87d1e00e148ffb9719c4d4ce7908a3275df16174ef46fd6674642",
    ("lamplighter5", 5): "c7b8aa44673398b617f7852bc01bd15966f5b0f28c6c63fc977aca1918350257",
}


@pytest.mark.parametrize("name,radius", sorted(_BALL_DIGESTS))
def test_ball_matches_pinned_digest(name, radius):
    ball = enumerate_ball(_DIGEST_SPECS[name], radius)
    assert ball_digest(ball) == _BALL_DIGESTS[name, radius]


def _random_specs(rng):
    """Random generator sets on every family, with radii small enough for
    the tuple reference; Z^41 with unit generators takes two-word keys."""
    out = [(GroupSpec.free_abelian(41), 1), (GroupSpec.free_abelian(41), 2)]
    for _ in range(8):
        d = int(rng.integers(1, 5))
        vecs = [tuple(int(x) for x in rng.integers(-2, 3, size=d))
                for _ in range(int(rng.integers(1, 4)))]
        vecs = [v for v in vecs if any(v)] or [(1,) + (0,) * (d - 1)]
        gens = []
        for v in vecs:
            for h in (v, tuple(-x for x in v)):
                if h not in gens:
                    gens.append(h)
        out.append((GroupSpec.free_abelian(d, generators=gens),
                    int(rng.integers(1, {1: 12, 2: 7, 3: 5, 4: 4}[d]))))
    heis = GroupSpec.heisenberg()
    for _ in range(6):
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            g = tuple(int(x) for x in rng.integers(-1, 2, size=3))
            for h in (g, inverse(heis, g)):
                if any(h) and h not in gens:
                    gens.append(h)
        if gens:
            out.append((GroupSpec(cayley.HEISENBERG, generators=tuple(gens)),
                        int(rng.integers(1, 6))))
    for _ in range(8):
        m = int(rng.integers(2, 6))
        probe = GroupSpec.lamplighter(m)
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            lamps = {int(p): int(rng.integers(1, m))
                     for p in rng.integers(-1, 3, size=int(rng.integers(0, 3)))}
            g = (tuple(sorted(lamps.items())), int(rng.integers(-2, 3)))
            for h in (g, inverse(probe, g)):
                if h != ((), 0) and h not in gens:
                    gens.append(h)
        if gens:
            out.append((GroupSpec.lamplighter(m, generators=gens),
                        int(rng.integers(1, 6))))
    return out


def test_enumerate_ball_matches_tuple_reference():
    rng = np.random.Generator(np.random.Philox(key=np.array([29, 0],
                                                            dtype=np.uint64)))
    for spec, radius in _random_specs(rng):
        ball = enumerate_ball(spec, radius)
        vertices, word_length, edges = tuple_ball(spec, radius)
        assert ball.vertices == vertices, (spec, radius)
        assert ball.word_length.tolist() == word_length, (spec, radius)
        assert ball.edges.tolist() == [list(e) for e in edges], (spec, radius)


def _bfs_ball(spec, radius):
    """Slow reference for the closed-form lattice balls: the BFS that
    builds every other ball."""
    return cayley._bfs_ball(spec, radius, cayley._layout(spec, radius),
                            cayley.DEFAULT_VERTEX_BUDGET)


def _shuffled_lattice(rng, d):
    gens = list(GroupSpec.free_abelian(d).generators)
    return GroupSpec.free_abelian(d, generators=[gens[i] for i in rng.permutation(2 * d)])


def test_lattice_ball_matches_the_bfs():
    rng = np.random.Generator(np.random.Philox(key=np.array([41, 0],
                                                            dtype=np.uint64)))
    cases = [(GroupSpec.free_abelian(d), 0) for d in (1, 2, 5)]
    for _ in range(12):
        d = int(rng.integers(1, 7))
        radius = int(rng.integers(1, {1: 60, 2: 20, 3: 10, 4: 7, 5: 5, 6: 4}[d]))
        cases.append((GroupSpec.free_abelian(d), radius))
        cases.append((_shuffled_lattice(rng, d), radius))
    # two- and three-word keys, and shuffled ones
    cases += [(GroupSpec.free_abelian(28), 2), (GroupSpec.free_abelian(41), 2),
              (_shuffled_lattice(rng, 28), 2), (_shuffled_lattice(rng, 60), 1)]
    for spec, radius in cases:
        assert spec.is_hypercubic
        ball, ref = enumerate_ball(spec, radius), _bfs_ball(spec, radius)
        assert ball.keys.dtype == ref.keys.dtype, (spec.rank, radius)
        assert ball.keys.tobytes() == ref.keys.tobytes(), (spec.rank, radius)
        assert ball.word_length.dtype == ref.word_length.dtype == np.int32
        assert np.array_equal(ball.word_length, ref.word_length), (spec.rank, radius)
        assert ball.edges.dtype == ref.edges.dtype
        assert np.array_equal(ball.edges, ref.edges), (spec.rank, radius)


# the same Cayley graph as Z^2's, from generators that are not the unit vectors
_Z2_SHEARED = GroupSpec.free_abelian(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)])


@pytest.mark.parametrize("spec,hypercubic", [
    (GroupSpec.free_abelian(1), True),
    (GroupSpec.free_abelian(3, generators=[(0, 0, -1), (1, 0, 0), (0, 1, 0),
                                           (0, -1, 0), (0, 0, 1), (-1, 0, 0)]), True),
    (_DIGEST_SPECS["Z-pm1-pm2"], False),
    (_DIGEST_SPECS["Z2-diagonal"], False),
    (_Z2_SHEARED, False),
    (GroupSpec.free_abelian(2, generators=[(1, 0), (-1, 0)]), False),
    (GroupSpec.heisenberg(), False),
    (GroupSpec.lamplighter(2), False),
])
def test_is_hypercubic(spec, hypercubic):
    assert spec.is_hypercubic == hypercubic


@pytest.mark.parametrize("kind,columns", [
    ("free_abelian", 1), ("free_abelian", 27), ("free_abelian", 28),
    ("free_abelian", 55), ("lamplighter", 2), ("lamplighter", 40000)])
def test_default_set_refusal_counts_b1_as_enumerate_ball(monkeypatch, kind, columns):
    """A default generator set is refused when its B(1), 2 columns + 1
    vertices once per key word of the ball's layout, passes the larger of
    the given and the default vertex budget."""
    build = getattr(GroupSpec, kind)
    spec = build(columns)
    if columns < 100:
        assert len(enumerate_ball(spec, 1)) == 2 * columns + 1
    count = (2 * columns + 1) * cayley._layout(spec, 1).words
    monkeypatch.setattr(cayley, "DEFAULT_VERTEX_BUDGET", count)
    assert build(columns) == spec
    monkeypatch.setattr(cayley, "DEFAULT_VERTEX_BUDGET", count - 1)
    with pytest.raises(BudgetError, match=rf"^B\(1\) of {kind}:{columns} .* has "
                                          rf"{2 * columns + 1} vertices on "
                                          rf"{count // (2 * columns + 1)}-word keys"):
        build(columns)
    with pytest.raises(BudgetError):
        build(columns, budget=count - 1)
    assert build(columns, budget=count) == spec


@pytest.mark.parametrize("name,radius", [("Z", 5), ("Z3", 2), ("heisenberg", 4),
                                         ("lamplighter2", 4), ("lamplighter5", 3)])
def test_vertices_index_of_round_trip(name, radius):
    spec = _DIGEST_SPECS[name]
    ball = enumerate_ball(spec, radius)
    assert [ball.index_of(v) for v in ball.vertices] == list(range(len(ball)))
    outside = tuple_ball(spec, radius + 1)[0][len(ball)]
    with pytest.raises(KeyError):
        ball.index_of(outside)


def test_find_rows_rejects_rows_outside_the_columns():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 1)
    assert ball.find_rows(ball.rows).tolist() == list(range(len(ball)))
    # (0, 5) packs to the key of (1, 0), but its column lies outside B(2)'s
    assert ball.find_rows([[0, 5], [1, 0], [9, 9]]).tolist() == \
        [-1, ball.index_of((1, 0)), -1]


def test_index_of_rejects_non_canonical_lamps():
    ball = enumerate_ball(GroupSpec.lamplighter(3), 3)
    assert ball.index_of((((0, 1),), 0)) > 0
    for bad in ((((0, 0),), 0), (((0, 4),), 0), (((1, 1), (0, 1)), 0),
                (((0, 1),), 9), (((40, 1),), 0)):
        with pytest.raises(KeyError):
            ball.index_of(bad)


def test_line_subgraph_outside_lamplighter_ball():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 2)
    with pytest.raises(ValueError, match="does not contain a line of 9 vertices"):
        line_subgraph(ball, 9)


@pytest.mark.parametrize("name,radius", [("Z2", 3), ("heisenberg", 4),
                                         ("lamplighter3", 5)])
def test_ball_pickle_round_trip(name, radius):
    ball = enumerate_ball(_DIGEST_SPECS[name], radius)
    ball.vertices, ball.index_of(ball.vertices[-1])   # fill the caches
    back = pickle.loads(pickle.dumps(ball))
    assert back.vertices == ball.vertices
    assert np.array_equal(back.word_length, ball.word_length)
    assert np.array_equal(back.edges, ball.edges)
    assert back.index_of(ball.vertices[-1]) == len(ball) - 1


@pytest.mark.parametrize("make", [
    lambda: enumerate_ball(GroupSpec.lamplighter(3), 4),
    lambda: enumerate_ball(GroupSpec.free_abelian(41), 1),
    lambda: tetrahedron(2, 5).parent,
], ids=["packed", "two-word-keys", "tetrahedron"])
def test_ball_pickle_keeps_the_layout_and_keys(make):
    ball = make()
    rows, band_rank = ball.rows, ball.band_rank
    back = pickle.loads(pickle.dumps(ball))
    assert "rows" not in back.__dict__     # decoded again on first use
    assert "band_rank" not in back.__dict__
    assert np.array_equal(back.band_rank, band_rank)
    for name in ("lo", "hi"):
        assert np.array_equal(getattr(back.layout, name),
                              getattr(ball.layout, name))
    assert back.layout.first_pos == ball.layout.first_pos
    assert back.layout.words == ball.layout.words
    assert back.keys.dtype == ball.keys.dtype
    assert back.keys.tobytes() == ball.keys.tobytes()
    assert np.array_equal(back.rows, rows)
    assert back.vertices == ball.vertices
    assert back.find_rows(rows).tolist() == list(range(len(ball)))


def _band_width(ball):
    """Largest |rank(u) - rank(v)| + 1 over the ball's edges and vertices."""
    rank = ball.band_rank
    return int(np.abs(rank[ball.edges[:, 0]] - rank[ball.edges[:, 1]]).max(initial=0)) + 1


@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(1), 7), (GroupSpec.free_abelian(2), 6),
    (GroupSpec.free_abelian(3), 4), (_Z2_SHEARED, 5),
    (GroupSpec.heisenberg(), 3), (GroupSpec.lamplighter(3), 4),
], ids=["Z", "Z2", "Z3", "Z2-sheared", "heisenberg", "lamplighter3"])
def test_band_rank_orders_by_row_sum_then_row(spec, radius):
    ball = enumerate_ball(spec, radius)
    rank = ball.band_rank
    assert sorted(rank.tolist()) == list(range(len(ball)))
    ordered = ball.rows[np.argsort(rank)]
    keys = [(int(row.sum()), tuple(row.tolist())) for row in ordered]
    assert keys == sorted(keys)


def test_band_rank_grades_the_lattice_balls():
    # the ±unit generators change the coordinate sum by one along every edge
    for rank in (1, 2, 3, 4):
        ball = enumerate_ball(GroupSpec.free_abelian(rank), 5)
        level = ball.rows.sum(axis=1)
        assert np.array_equal(np.abs(level[ball.edges[:, 0]] - level[ball.edges[:, 1]]),
                              np.ones(len(ball.edges), dtype=np.int64))
    assert _band_width(enumerate_ball(GroupSpec.free_abelian(1), 400)) == 2
    for radius in (1, 2, 5, 11, 16, 24, 25):
        # a level x + y = c of the diamond holds at most radius + 1 vertices
        assert _band_width(enumerate_ball(GroupSpec.free_abelian(2), radius)) <= radius + 2


@pytest.mark.parametrize("name,radius", [("Z", 4), ("Z2", 3), ("heisenberg", 3),
                                         ("lamplighter3", 4)])
def test_budget_is_the_ball_size(name, radius):
    spec = _DIGEST_SPECS[name]
    size = len(enumerate_ball(spec, radius))
    assert len(enumerate_ball(spec, radius, budget=size)) == size
    with pytest.raises(BudgetError, match=str(size - 1)):
        enumerate_ball(spec, radius, budget=size - 1)


@pytest.mark.parametrize("spec,radius", [
    (_DIGEST_SPECS["Z2"], 6), (_Z2_SHEARED, 6), (_DIGEST_SPECS["heisenberg"], 5),
    (_DIGEST_SPECS["lamplighter3"], 6)], ids=["Z2-6", "Z2-sheared-6", "heisenberg-5",
                                              "lamplighter3-6"])
def test_ball_built_in_chunks_is_the_same_ball(spec, radius):
    ball = enumerate_ball(spec, radius)
    # at this budget every layer that could cross it is built in chunks
    chunked = enumerate_ball(spec, radius, budget=len(ball))
    for field in ("rows", "word_length", "edges"):
        assert np.array_equal(getattr(chunked, field), getattr(ball, field))


@pytest.mark.parametrize("rank,radius,budget,words", [
    (1, 2001, 4002, 1), (2, 1000, None, 1), (3, 20, 11520, 1), (100, 3, None, 6)])
def test_lattice_ball_over_the_budget_is_refused_before_it_is_built(
        monkeypatch, rank, radius, budget, words):
    # Z B(2001) has 4003 vertices, Z^2 B(1000) 2,002,001 and Z^3 B(20)
    # 11,521; Z^100 B(3) has 1,353,601 on six-word keys
    def no_build(*args):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(cayley, "_neighbour_keys", no_build)
    monkeypatch.setattr(cayley, "_bfs_ball", no_build)
    budget_text = budget or cayley.DEFAULT_VERTEX_BUDGET
    with pytest.raises(BudgetError, match=rf"^ball exceeds the vertex budget of "
                       rf"{budget_text} vertices \(group free_abelian:{rank}, "
                       rf"radius {radius}, {words}-word keys\)$"):
        enumerate_ball(GroupSpec.free_abelian(rank), radius, budget)


def test_crossing_layer_is_refused_before_it_is_built(monkeypatch):
    spec = GroupSpec.lamplighter(3)
    ball = enumerate_ball(spec, 7)
    built = []
    real = cayley._neighbour_keys

    def counting(spec, layout, keys):
        built.append(len(keys))
        return real(spec, layout, keys)

    monkeypatch.setattr(cayley, "_neighbour_keys", counting)
    with pytest.raises(BudgetError):
        enumerate_ball(spec, 8, budget=ball.volume(6) + 10)
    # layers 0..5 are built whole, then only part of layer 6's frontier
    assert ball.volume(5) < sum(built) < ball.volume(6)


def _lexsort_keys(spec, layout, rows):
    """Slow reference: ``np.lexsort`` keys (primary last) for the
    lexicographic order of the tuple encodings of rows.  Lamp tuples
    compare as their (pos, val) lists, padded below every lamp, so that a
    prefix sorts first."""
    if spec.kind != cayley.LAMPLIGHTER:
        return rows.T[::-1]
    pos, val, _ = cayley._lamp_lists(layout, rows)
    keys = np.empty((2 * pos.shape[1] + 1, len(rows)), dtype=np.int64)
    keys[0] = rows[:, -1]
    keys[1::2] = val.T[::-1]
    keys[2::2] = pos.T[::-1]
    return keys


def _random_lamp_rows(rng, layout, m, count):
    """Distinct lamplighter rows on the layout: sparse and dense lamps,
    rows with no lamp, and the prefixes of the lamp lists of some rows."""
    width = len(layout.lo) - 1
    density = rng.uniform(0, 1, size=(count, 1))
    lamps = rng.integers(1, m, size=(count, width)) * (
        rng.uniform(size=(count, width)) < density)
    lamps[: count // 8] = 0
    prefixes = []
    for row in lamps[-8:]:
        for cut in np.flatnonzero(row):
            prefixes.append(np.where(np.arange(width) < cut, row, 0))
    lamps = np.vstack([lamps] + prefixes)
    walker = rng.integers(layout.lo[-1], layout.hi[-1] + 1, size=(len(lamps), 1))
    rows = np.hstack([lamps, walker])
    # each lamp list also at a few shared walker positions
    rows = np.vstack([rows] + [np.hstack([lamps, np.full_like(walker, x)])
                               for x in (layout.lo[-1], 0, layout.hi[-1])])
    return np.unique(rows, axis=0)


def test_order_keys_match_the_lexsort_reference():
    rng = np.random.Generator(np.random.Philox(key=np.array([31, 0],
                                                            dtype=np.uint64)))
    cases = [(GroupSpec.lamplighter(m), n) for m in range(2, 7) for n in (0, 2, 9, 20, 40)]
    cases += [(GroupSpec.free_abelian(d), 2) for d in (3, 30, 60)]
    regimes = set()
    for spec, n in cases:
        layout = cayley._layout(spec, n)
        if spec.kind == cayley.LAMPLIGHTER:
            rows = _random_lamp_rows(rng, layout, spec.modulus, 300)
        else:
            rows = np.unique(rng.integers(layout.lo, layout.hi + 1,
                                          size=(300, len(layout.lo))), axis=0)
        rows = rows[rng.permutation(len(rows))]
        keys = layout.keys(rows)
        order = cayley._order_keys(spec, layout, keys)
        regimes.add((spec.kind, min(layout.words, 3), len(order) > 1))
        assert np.array_equal(np.lexsort(order),
                              np.lexsort(_lexsort_keys(spec, layout, rows))), (spec, n)
    # one-word keys with one and with several order keys, and layouts of
    # three words or more
    assert {(cayley.LAMPLIGHTER, 1, False), (cayley.LAMPLIGHTER, 1, True),
            (cayley.LAMPLIGHTER, 3, True), (cayley.FREE_ABELIAN, 3, True)} <= regimes


def _neighbour_specs(rng):
    """Every family with its own generators, random generator sets on each,
    Z^60 (three-word keys), a lamplighter with far-apart lamps (two words),
    and one with a large modulus whose lamp columns cross from word to word
    as the walker moves."""
    far = GroupSpec.lamplighter(2, generators=[(((0, 1), (70, 1)), 0),
                                               ((), 1), ((), -1)])
    wide = GroupSpec.lamplighter(1000, generators=[(((0, 1), (8, 1)), 0),
                                                   (((0, 999), (8, 999)), 0),
                                                   ((), 1), ((), -1)])
    return ([(spec, radius) for spec, radius in _random_specs(rng)]
            + [(_DIGEST_SPECS[name], 3) for name in sorted(_DIGEST_SPECS)]
            + [(GroupSpec.free_abelian(60), 1), (far, 3), (wide, 3)])


def test_neighbour_keys_match_the_keys_of_the_neighbour_rows():
    rng = np.random.Generator(np.random.Philox(key=np.array([37, 0],
                                                            dtype=np.uint64)))
    regimes = set()
    for spec, radius in _neighbour_specs(rng):
        ball = enumerate_ball(spec, radius)
        layout = cayley._layout(spec, radius)
        some = np.sort(rng.permutation(len(ball))[:150])
        keys = layout.keys(ball.rows[some])
        # a move whose column, one per key, lies in different words
        word = layout.split[0]
        crossing = any(np.ndim(col) and len(set(word[col].tolist())) > 1
                       for moves in cayley._moves(spec, layout, keys) for col, _ in moves)
        regimes.add((spec.kind, min(layout.words, 3), crossing))
        fast = cayley._neighbour_keys(spec, layout, keys)
        slow = np.stack([
            layout.keys(np.array([cayley._encode(spec, layout, multiply(spec, v, g))
                                  for v in (ball.vertices[i] for i in some)]))
            for g in spec.generators], axis=1)
        assert fast.shape == slow.shape == (len(some), spec.k)
        assert np.array_equal(layout.rows(fast.ravel()),
                              layout.rows(slow.ravel())), (spec, radius)
    assert {(cayley.FREE_ABELIAN, 1, False), (cayley.FREE_ABELIAN, 3, False),
            (cayley.LAMPLIGHTER, 1, False), (cayley.LAMPLIGHTER, 3, True)} <= regimes


def _all_slot_edges(ball):
    """Slow reference: the neighbour keys of every vertex and every
    generator, searched in the ball, each pair kept once as u < v."""
    keys = cayley._neighbour_keys(ball.spec, ball.layout, ball.keys)
    ordered, sorter = ball._lookup
    found, at = cayley._search(ordered, keys.ravel())
    u, v = np.flatnonzero(found) // ball.k, sorter[at]
    return np.array(sorted(zip(u[v > u].tolist(), v[v > u].tolist())),
                    dtype=np.int64).reshape(-1, 2)


# Z_2 wr Z with the bare lamp switch, an involution, beside the walker steps
_SWITCH = GroupSpec.lamplighter(2, generators=[((), 1), ((), -1), (((0, 1),), 0)])


def test_inverse_slots_pair_each_generator_with_its_inverse():
    for spec in [*_DIGEST_SPECS.values(), _SWITCH]:
        for i, j in enumerate(spec.inverse_slots):
            assert spec.generators[j] == inverse(spec, spec.generators[i])
        assert spec.edge_slots == tuple(i for i, j in enumerate(spec.inverse_slots)
                                        if i <= j)
    assert _SWITCH.inverse_slots == (1, 0, 2) and _SWITCH.edge_slots == (0, 2)
    assert GroupSpec.free_abelian(2).edge_slots == (0, 2)


def test_edges_from_one_slot_per_inverse_pair_match_the_all_slot_edges():
    wide = GroupSpec.lamplighter(1000, generators=[(((0, 1), (8, 1)), 0),
                                                   (((0, 999), (8, 999)), 0),
                                                   ((), 1), ((), -1)])
    diagonal = GroupSpec.free_abelian(41, generators=[
        *GroupSpec.free_abelian(41).generators, (1,) * 41, (-1,) * 41])
    cases = ([(_DIGEST_SPECS[name], 4) for name in sorted(_DIGEST_SPECS)]
             + [(_SWITCH, 6), (GroupSpec.lamplighter(2, generators=[
                 *_SWITCH.generators, (((0, 1),), 1), (((-1, 1),), -1)]), 4),
                (GroupSpec.free_abelian(41), 2), (diagonal, 1),
                (GroupSpec.free_abelian(60), 1), (wide, 3)])
    words = set()
    for spec, radius in cases:
        ball = enumerate_ball(spec, radius)
        words.add(ball.layout.words)
        assert np.array_equal(ball.edges, _all_slot_edges(ball)), (spec, radius)
    for m, n in [(2, 3), (3, 3)]:
        parent = tetrahedron(m, n).parent
        assert np.array_equal(parent.edges, _all_slot_edges(parent))
    assert words == {1, 2, 3}


# ---------------------------------------------------------------------------
# group laws (property tests)
# ---------------------------------------------------------------------------

def z2_elements():
    return st.tuples(st.integers(-20, 20), st.integers(-20, 20))


def heis_elements():
    return st.tuples(st.integers(-8, 8), st.integers(-40, 40), st.integers(-8, 8))


def lamp_elements(m=3):
    lamp = st.tuples(st.integers(-6, 6), st.integers(1, m - 1))
    return st.tuples(
        st.lists(lamp, max_size=5, unique_by=lambda t: t[0]).map(
            lambda ls: tuple(sorted(ls))),
        st.integers(-6, 6))


SPECS = {
    "z2": (GroupSpec.free_abelian(2), z2_elements()),
    "heisenberg": (GroupSpec.heisenberg(), heis_elements()),
    "lamplighter3": (GroupSpec.lamplighter(3), lamp_elements(3)),
}


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=350, deadline=None)
@given(data=st.data())
def test_group_laws(name, data):
    spec, strat = SPECS[name]
    a, b, c = (data.draw(strat) for _ in range(3))
    assert multiply(spec, multiply(spec, a, b), c) == \
        multiply(spec, a, multiply(spec, b, c))
    ident = identity_element(spec)
    assert multiply(spec, a, inverse(spec, a)) == ident
    assert multiply(spec, inverse(spec, a), a) == ident
    # canonical encoding: products of canonical elements stay canonical
    prod = multiply(spec, a, b)
    if spec.kind == cayley.LAMPLIGHTER:
        lamps, _ = prod
        assert list(lamps) == sorted(lamps)
        assert all(0 < v < spec.modulus for _, v in lamps)


def test_generator_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GroupSpec.free_abelian(1, generators=[(1,)])
    with pytest.raises(ValueError, match="identity"):
        GroupSpec.free_abelian(1, generators=[(0,), (1,), (-1,)])


# ---------------------------------------------------------------------------
# growth profile
# ---------------------------------------------------------------------------

def test_phi_on_z():
    prof = growth_profile(enumerate_ball(GroupSpec.free_abelian(1), 5))
    # V(2)=5 is not > 5, V(3)=7 > 5
    assert prof.phi(5) == 3
    assert np.array_equal(prof.volumes, [1, 3, 5, 7, 9, 11])


def test_phi_inverse_relation():
    for spec in (GroupSpec.free_abelian(2), GroupSpec.lamplighter(2)):
        prof = growth_profile(enumerate_ball(spec, 5))
        for n in range(prof.n_max):
            assert prof.phi(prof.volume(n)) == n + 1


def test_growth_monotone():
    for spec in (GroupSpec.free_abelian(1), GroupSpec.heisenberg(),
                 GroupSpec.lamplighter(2)):
        prof = growth_profile(enumerate_ball(spec, 6))
        assert np.all(np.diff(prof.volumes) > 0)


def test_ball_doubling_polynomial_growth():
    # V(2n) <= 2^d * (b/a) * V(n) with a, b fitted from V(n) ~ n^d
    for spec, d in ((GroupSpec.free_abelian(1), 1),
                    (GroupSpec.free_abelian(2), 2),
                    (GroupSpec.heisenberg(), 4)):
        prof = growth_profile(enumerate_ball(spec, 12))
        ns = np.arange(1, 13)
        ratios = prof.volumes[1:] / ns.astype(float) ** d
        a, b = ratios.min(), ratios.max()
        for n in range(1, 7):
            assert prof.volume(2 * n) <= 2 ** d * (b / a) * prof.volume(n)


# ---------------------------------------------------------------------------
# line subgraphs
# ---------------------------------------------------------------------------

def test_line_in_z():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    line = line_subgraph(ball, 3)
    els = [ball.vertices[i] for i in line.vertex_indices]
    assert els == [(-1,), (0,), (1,)]
    assert len(line.edges) == 2
    assert line.connected


def test_line_in_z2():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 3)
    line = line_subgraph(ball, 5)
    els = [ball.vertices[i] for i in line.vertex_indices]
    assert els == [(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)]
    assert len(line.edges) == 4


def test_line_in_lamplighter():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 3)
    line = line_subgraph(ball, 3)
    els = [ball.vertices[i] for i in line.vertex_indices]
    assert els == [((), -1), ((), 0), ((), 1)]
    # all consecutive pairs adjacent in the Cayley graph
    edges = set(map(tuple, ball.edges.tolist()))
    for (u, v) in line.edges.tolist():
        assert (min(u, v), max(u, v)) in edges


def test_line_too_long():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 2)
    with pytest.raises(ValueError, match="does not contain"):
        line_subgraph(ball, 9)


# ---------------------------------------------------------------------------
# finite subgraphs
# ---------------------------------------------------------------------------

def test_subgraph_local_edges_match_dict_reference():
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0],
                                                            dtype=np.uint64)))
    ball = enumerate_ball(GroupSpec.free_abelian(2), 6)
    for _ in range(50):
        members = rng.permutation(len(ball))[:int(rng.integers(0, len(ball)))]
        inside = np.zeros(len(ball), dtype=bool)
        inside[members] = True
        edges = ball.edges[inside[ball.edges[:, 0]] & inside[ball.edges[:, 1]]]
        edges = rng.permutation(edges)
        sub = FiniteSubgraph(parent=ball, vertex_indices=members, edges=edges)
        pos = {int(p): i for i, p in enumerate(members)}
        expect = [[pos[int(u)], pos[int(v)]] for u, v in edges]
        assert sub.local_edges().tolist() == expect
        degrees = np.zeros(len(members), dtype=np.int64)
        for u, v in expect:
            degrees[u] += 1
            degrees[v] += 1
        assert sub.degrees().tolist() == degrees.tolist()


def test_subgraph_local_edges_in_path_order():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 6)
    line = line_subgraph(ball, 9)
    assert not np.all(np.diff(line.vertex_indices) > 0)
    assert sorted(map(sorted, line.local_edges().tolist())) == \
        [[i, i + 1] for i in range(8)]
    assert line.degrees().tolist() == [1] + [2] * 7 + [1]
    assert line.connected


def test_empty_subgraph():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 2)
    sub = FiniteSubgraph(parent=ball, vertex_indices=[], edges=[])
    assert sub.size == 0
    assert sub.local_edges().shape == (0, 2)
    assert sub.degrees().shape == (0,)
    assert not sub.connected


def test_connected_and_components():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 3)
    empty = FiniteSubgraph(parent=ball, vertex_indices=[], edges=[])
    assert empty.components()[0] == 0 and len(empty.components()[1]) == 0
    assert not empty.connected
    single = induced_subgraph(ball, [5])
    assert single.components()[0] == 1
    assert single.connected
    a, b = ball.index_of((0, 0)), ball.index_of((1, 0))
    c, d = ball.index_of((-3, 0)), ball.index_of((0, 3))
    split = induced_subgraph(ball, [d, a, c, b])
    count, labels = split.components()
    assert count == 3
    pos = {int(v): i for i, v in enumerate(split.vertex_indices)}
    assert labels[pos[a]] == labels[pos[b]]
    assert len({labels[pos[a]], labels[pos[c]], labels[pos[d]]}) == 3
    assert not split.connected
    assert split.components() is split.components()
    assert induced_subgraph(ball, ball.ball_indices(2)).connected


def _csgraph_components(n, edges):
    """The reference labelling: scipy's csgraph on the symmetric pattern."""
    from scipy import sparse
    from scipy.sparse import csgraph

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    g = sparse.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                          shape=(n, n))
    return csgraph.connected_components(g, directed=False)


def _assert_same_components(n, edges):
    count, labels = cayley.connected_components(n, edges)
    want_count, want_labels = _csgraph_components(n, edges)
    assert count == want_count
    assert labels.tolist() == want_labels.tolist()


def test_connected_components_match_csgraph():
    rng = np.random.Generator(np.random.Philox(key=np.array([77, 0],
                                                            dtype=np.uint64)))
    # no vertices, and vertices without edges
    for n in (0, 1, 6):
        _assert_same_components(n, np.zeros((0, 2), dtype=np.int64))
    # isolated vertices, repeated edges in both orientations, and loops
    _assert_same_components(7, [[5, 2], [2, 5], [5, 2], [3, 3], [6, 1], [1, 6]])
    for n in (2, 9, 60, 1000, 5000):
        for m in (1, n // 3, n // 2, n, 2 * n):
            _assert_same_components(n, rng.integers(0, n, size=(m, 2)))


def test_connected_components_on_relabelled_paths():
    # the slowest order for hook and shortcut: one long path, or several,
    # with the vertices in random order
    rng = np.random.Generator(np.random.Philox(key=np.array([77, 1],
                                                            dtype=np.uint64)))
    for n in (2, 3, 100, 4096, 50_000):
        for paths in (1, 3):
            perm = rng.permutation(n)
            cut = np.sort(rng.choice(np.arange(1, n), size=min(paths, n) - 1,
                                     replace=False))
            edges = np.stack([perm[:-1], perm[1:]], axis=1)
            edges = np.delete(edges, cut - 1, axis=0)
            edges = edges[rng.permutation(len(edges))]
            _assert_same_components(n, edges)
            assert cayley.connected_components(n, edges)[0] == min(paths, n)


def test_prefix_members_are_their_own_positions():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 4)
    for r in (0, 2, 4):
        prefix = induced_subgraph(ball, ball.ball_indices(r))
        assert np.array_equal(prefix.local_edges(), prefix.edges)
        # the same members in another order are located one by one
        order = np.arange(prefix.size)[::-1]
        other = FiniteSubgraph(parent=ball, vertex_indices=order,
                               edges=prefix.edges)
        assert np.array_equal(order[other.local_edges()], prefix.edges)
    assert ball.edges.flags.writeable
    with pytest.raises(ValueError, match=r"^edge \(-1, 2\) leaves"):
        FiniteSubgraph(parent=ball, vertex_indices=[0, 1, 2],
                       edges=[[0, 1], [-1, 2]])


def test_sorted_unique_matches_np_unique():
    rng = np.random.Generator(np.random.Philox(key=np.array([41, 0],
                                                            dtype=np.uint64)))
    for size in (0, 1, 2, 7, 100, 5000):
        for high in (1, 3, 50, 2 ** 62):
            # unsorted, with repeats; flattened like np.unique
            values = rng.integers(-high, high, size=size)
            if size % 2 == 0:
                values = values.reshape(-1, 2)
            got = cayley.sorted_unique(values)
            assert got.dtype == values.dtype
            assert np.array_equal(got, np.unique(values)), (size, high)
            # minus sorted arrays of some of the values
            seen = [np.unique(rng.choice(values.ravel(), size // 3))
                    for _ in range(2)]
            assert np.array_equal(cayley.sorted_unique(values, *seen),
                                  np.setdiff1d(values, np.concatenate(seen)))


def test_subgraph_rejects_duplicate_vertices():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    with pytest.raises(ValueError, match="vertex_indices contains duplicates"):
        FiniteSubgraph(parent=ball, vertex_indices=[4, 1, 2, 1],
                       edges=[[1, 2]])


def test_subgraph_rejects_escaping_edge():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    with pytest.raises(ValueError,
                       match=r"^edge \(2, 6\) leaves the vertex subset$"):
        FiniteSubgraph(parent=ball, vertex_indices=[0, 1, 2],
                       edges=[[0, 1], [2, 6], [5, 1]])
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) leaves"):
        FiniteSubgraph(parent=ball, vertex_indices=[], edges=[[0, 1]])


# ---------------------------------------------------------------------------
# tetrahedra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (3, 2)])
def test_tetrahedron_vertex_count(m, n):
    tet = tetrahedron(m, n)
    assert tet.size == (n + 1) * m ** n
    assert tet.connected


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tetrahedron_count_oracle(m, n):
    assert tetrahedron(m, n).size == (n + 1) * m ** n


# sha256 of the parent's (vertices, word_length, edges), recorded from the
# build on the B(2n) layout; at depth 14 that layout overflows int64 keys
_TETRAHEDRON_DIGESTS = {
    (2, 13): "54d0235be4612e7d23821db4ad1dbc23f6fe0723d6e24e276c8a40043d37965c",
    (2, 14): "70ffd6f8dc44d37b0d88064ee7e1da8754be36d4f412379f66cb3a3a00c33738",
}


@pytest.mark.parametrize("m,n", sorted(_TETRAHEDRON_DIGESTS))
def test_tetrahedron_matches_pinned_digest(m, n):
    tet = tetrahedron(m, n)
    assert tet.vertex_indices.tolist() == list(range(tet.size))
    assert ball_digest(tet.parent) == _TETRAHEDRON_DIGESTS[m, n]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_tetrahedron_word_lengths_are_the_ball_word_lengths(m):
    for n in range(1, {2: 6, 3: 5, 5: 4}[m]):
        ball = enumerate_ball(GroupSpec.lamplighter(m), 2 * n)
        tet = tetrahedron(m, n)
        idx = ball.find_vertices(tet.parent)
        assert np.all(idx >= 0)
        assert np.array_equal(tet.parent.word_length, ball.word_length[idx])


@pytest.mark.parametrize("spec", [GroupSpec.free_abelian(2),
                                  GroupSpec.heisenberg(),
                                  GroupSpec.lamplighter(2)],
                         ids=["Z2", "heisenberg", "lamplighter2"])
def test_find_vertices_across_radii(spec):
    small, big = enumerate_ball(spec, 2), enumerate_ball(spec, 4)
    assert big.find_vertices(small).tolist() == list(range(len(small)))
    assert small.find_vertices(big).tolist() == \
        list(range(len(small))) + [-1] * (len(big) - len(small))


def test_find_vertices_with_lamps_outside_the_window():
    # B(2) has lamp columns for positions -2..3 only: a member lighting
    # lamp 4 or 5 must be missing, not matched with the lamp dropped
    ball = enumerate_ball(GroupSpec.lamplighter(2), 2)
    parent = tetrahedron(2, 5).parent
    want = []
    for v in parent.vertices:
        try:
            want.append(ball.index_of(v))
        except KeyError:
            want.append(-1)
    assert ball.find_vertices(parent).tolist() == want
    assert want.count(-1) < len(want)


@pytest.mark.parametrize("m", [2, 3])
def test_lamp_values_match_the_decoded_vertices(m):
    # B(3) has lamp columns for positions -3..4 only; the rest are dark
    ball = enumerate_ball(GroupSpec.lamplighter(m), 3)
    positions = list(range(-5, 7))
    want = [[dict(lamps).get(p, 0) for p in positions]
            for lamps, _ in ball.vertices]
    assert ball.lamp_values(positions).tolist() == want
    assert ball.rows[:, -1].tolist() == [x for _, x in ball.vertices]
    with pytest.raises(ValueError, match="lamplighter"):
        enumerate_ball(GroupSpec.free_abelian(1), 2).lamp_values([0])


@pytest.mark.parametrize("m,n,keys", [
    (2, 16, 4_456_448), (3, 10, 3_897_234), (4, 8, 4_718_592),
    (5, 7, 6_250_000), (31, 2, 178_746), (110, 2, 7_986_000)])
def test_neighbour_key_budget_accepts(m, n, keys):
    # the deepest Z_2, Z_3, Z_4 and Z_5 tetrahedra under the vertex budget,
    # the Z_31 one the CLI tests check, and the largest m at depth 2
    assert cayley.tetrahedron_key_count(m, n) == keys
    assert keys <= cayley._TETRAHEDRON_KEY_BUDGET


@pytest.mark.parametrize("m,n", [(816, 2), (111, 2), (7, 6), (32, 3)])
def test_neighbour_key_budget_refuses_before_allocating(monkeypatch, m, n):
    # under the vertex budget, but over (n+1) m^n * 2m > 8e6 neighbour keys:
    # Z_816 wr Z at depth 2 has 1,997,568 vertices and would hold 3.3e9
    def no_build(*args):
        raise AssertionError("the tetrahedron was built")

    monkeypatch.setattr(cayley, "_tetrahedron_columns", no_build)
    monkeypatch.setattr(cayley, "_neighbour_keys", no_build)
    size = cayley.tetrahedron_vertex_count(m, n)
    with pytest.raises(BudgetError,
                       match=rf"^the depth-{n} tetrahedron of Z_{m} wr Z has "
                             rf"{size} vertices with {size * 2 * m} neighbour keys"):
        tetrahedron(m, n)


def test_tetrahedron_is_its_induced_parent():
    tet = tetrahedron(3, 3)
    ref = induced_subgraph(tet.parent, np.arange(len(tet.parent)))
    assert np.array_equal(tet.vertex_indices, ref.vertex_indices)
    assert np.array_equal(tet.edges, ref.edges)
    assert np.array_equal(tet.local_edges(), ref.local_edges())
    assert tet.parent.edges.flags.writeable and not tet.local_edges().flags.writeable


@pytest.mark.parametrize("n", range(1, 17))
def test_largest_accepted_tetrahedron_packs_into_one_key(n):
    # the largest m whose depth-n tetrahedron is under the vertex budget;
    # from depth 17 on, not even m = 2 is
    m = round((cayley.DEFAULT_VERTEX_BUDGET / (n + 1)) ** (1 / n)) + 1
    while (n + 1) * m ** n > cayley.DEFAULT_VERTEX_BUDGET:
        m -= 1
    assert m >= 2
    cayley.tetrahedron_vertex_count(m, n)
    with pytest.raises(BudgetError):
        cayley.tetrahedron_vertex_count(m + 1, n)
    if n == 16:
        with pytest.raises(BudgetError):
            cayley.tetrahedron_vertex_count(2, 17)
    # from the layout alone: the order keys read only the kind and modulus
    layout = cayley._tetrahedron_columns(m, n)
    spec = SimpleNamespace(kind=cayley.LAMPLIGHTER, modulus=m)
    assert layout.words == 1
    assert len(cayley._order_keys(spec, layout, np.zeros(1, dtype=np.int64))) == 1


def test_tetrahedron_budget():
    # refused before anything is allocated: (30 + 1) 2^30 rows
    with pytest.raises(BudgetError, match="vertex budget"):
        tetrahedron(2, 30)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        tetrahedron(2, 0)


def multiply_tetrahedron(m, n, ball):
    """Slow reference: members by index lookup, edges by the product of
    every member with every generator."""
    members = [((tuple((pos, val) for pos, val in zip(range(1, n + 1), values)
                       if val)), x)
               for values in itertools.product(range(m), repeat=n)
               for x in range(n + 1)]
    index = {v: i for i, v in enumerate(ball.vertices)}
    idx = sorted(index[el] for el in members)
    inside = set(idx)
    edges = set()
    for i in idx:
        for g in ball.spec.generators:
            j = index.get(multiply(ball.spec, ball.vertices[i], g))
            if j is not None and j in inside and j > i:
                edges.add((i, j))
    return idx, [list(e) for e in sorted(edges)]


@pytest.mark.parametrize("m", [2, 3])
def test_tetrahedron_matches_multiply_reference(m):
    depths = range(1, 6 if m == 2 else 5)
    balls = {r: enumerate_ball(GroupSpec.lamplighter(m), r)
             for r in range(2, 2 * depths[-1] + 3, 2)}
    for n in depths:
        tet = tetrahedron(m, n)
        assert np.array_equal(tet.edges,
                              induced_subgraph(tet.parent, tet.vertex_indices).edges)
        assert tet.vertex_indices.tolist() == list(range(tet.size))
        idx, edges = multiply_tetrahedron(m, n, balls[2 * n])
        # located in B(2n), and at the same indices in the bigger B(2n + 2)
        for ball in (balls[2 * n], balls[2 * n + 2]):
            at = ball.find_vertices(tet.parent)
            assert at.tolist() == idx
            assert at[tet.edges].tolist() == edges


# ---------------------------------------------------------------------------
# inner vertex boundary
# ---------------------------------------------------------------------------

def test_boundary_of_line_in_z():
    # the midpoint of a 3-path in Z has both neighbors inside, so the
    # boundary is exactly the two endpoints
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    line = line_subgraph(ball, 3)
    bd = inner_vertex_boundary(line)
    els = sorted(ball.vertices[i] for i in bd)
    assert els == [(-1,), (1,)]


def test_boundary_of_subball_in_z():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    sub = induced_subgraph(ball, ball.ball_indices(2))
    bd = inner_vertex_boundary(sub)
    assert sorted(ball.vertices[i] for i in bd) == [(-2,), (2,)]


def test_boundary_of_full_window():
    # the whole ball: the outer layer has degree < k, the rest is interior
    ball = enumerate_ball(GroupSpec.free_abelian(2), 3)
    sub = induced_subgraph(ball, np.arange(len(ball)))
    bd = set(inner_vertex_boundary(sub).tolist())
    deg = np.zeros(len(ball), dtype=int)
    for u, v in ball.edges:
        deg[u] += 1
        deg[v] += 1
    expect = {i for i in range(len(ball)) if deg[i] < ball.k}
    assert bd == expect
    assert all(ball.word_length[i] == 3 for i in bd)


# ---------------------------------------------------------------------------
# graph queries against neighbor-list references
# ---------------------------------------------------------------------------

def _neighbor_lists(ball):
    neighbors = [[] for _ in range(len(ball))]
    for u, v in ball.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    return [sorted(vs) for vs in neighbors]


def bfs_is_bipartite_reference(ball):
    """Queue BFS 2-coloring from the identity; None on a same-color edge."""
    neighbors = _neighbor_lists(ball)
    color = np.zeros(len(ball), dtype=np.int8)
    color[0] = 1
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if color[v] == 0:
                color[v] = -color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return None
    return color


_QUERY_BALLS = {
    "Z": (GroupSpec.free_abelian(1), 6),
    "Z2": (GroupSpec.free_abelian(2), 4),
    "Z3": (GroupSpec.free_abelian(3), 3),
    "heisenberg": (GroupSpec.heisenberg(), 3),
    "lamplighter2": (GroupSpec.lamplighter(2), 4),
    "lamplighter3": (GroupSpec.lamplighter(3), 3),
    "Z-pm1-pm2": (GroupSpec.free_abelian(
        1, generators=[(1,), (-1,), (2,), (-2,)]), 4),
    "Z2-diagonal": (GroupSpec.free_abelian(2, generators=[
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]), 3),
    "radius0": (GroupSpec.free_abelian(2), 0),
}


def _query_ball(name):
    spec, radius = _QUERY_BALLS[name]
    return enumerate_ball(spec, radius)


@pytest.mark.parametrize("name", sorted(_QUERY_BALLS))
def test_is_bipartite_matches_bfs_reference(name):
    ball = _query_ball(name)
    ref = bfs_is_bipartite_reference(ball)
    assert is_bipartite(ball) is (ref is not None)
    if ref is not None:     # the BFS coloring is the word length's parity
        assert np.array_equal((-1) ** ball.word_length, ref)


# ---------------------------------------------------------------------------
# bipartiteness
# ---------------------------------------------------------------------------

def test_zd_bipartite():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 4)
    assert is_bipartite(ball)
    # the coordinate sum alone alternates along every edge
    for u, v in ball.edges:
        assert (sum(ball.vertices[u]) - sum(ball.vertices[v])) % 2 == 1


def test_lamplighter_bipartite():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 4)
    assert is_bipartite(ball)
    # the walker coordinate alone alternates along every edge
    for u, v in ball.edges:
        assert (ball.vertices[u][1] - ball.vertices[v][1]) % 2 == 1


def test_z_with_doubled_generators_not_bipartite():
    spec = GroupSpec.free_abelian(1, generators=[(1,), (-1,), (2,), (-2,)])
    assert is_bipartite(enumerate_ball(spec, 4)) is False

