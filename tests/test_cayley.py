"""Ball enumeration, growth tables, special subgraphs, bipartiteness."""

import hashlib
import io
import itertools
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percospec import cayley
from percospec.cayley import (
    FiniteSubgraph,
    GroupSpec,
    enumerate_ball,
    export_edge_list,
    growth_profile,
    identity_element,
    induced_subgraph,
    inner_vertex_boundary,
    inverse,
    is_bipartite,
    line_subgraph,
    multiply,
    tetrahedron,
    thicken_subgraph,
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
    the tuple reference; Z^41 with unit generators takes the byte keys."""
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
    ball.vertices, ball.adjacency_matrix()   # fill the caches
    back = pickle.loads(pickle.dumps(ball))
    assert back.vertices == ball.vertices
    assert np.array_equal(back.word_length, ball.word_length)
    assert np.array_equal(back.edges, ball.edges)
    assert back.index_of(ball.vertices[-1]) == len(ball) - 1
    assert (back.adjacency_matrix() != ball.adjacency_matrix()).nnz == 0


@pytest.mark.parametrize("name,radius", [("Z", 4), ("Z2", 3), ("heisenberg", 3),
                                         ("lamplighter3", 4)])
def test_budget_is_the_ball_size(name, radius):
    spec = _DIGEST_SPECS[name]
    size = len(enumerate_ball(spec, radius))
    assert len(enumerate_ball(spec, radius, budget=size)) == size
    with pytest.raises(BudgetError, match=str(size - 1)):
        enumerate_ball(spec, radius, budget=size - 1)


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
    prof = growth_profile(GroupSpec.free_abelian(1), 5)
    # V(2)=5 is not > 5, V(3)=7 > 5
    assert prof.phi(5) == 3
    assert np.array_equal(prof.volumes, [1, 3, 5, 7, 9, 11])


def test_phi_inverse_relation():
    for spec in (GroupSpec.free_abelian(2), GroupSpec.lamplighter(2)):
        prof = growth_profile(spec, 5)
        for n in range(prof.n_max):
            assert prof.phi(prof.volume(n)) == n + 1


def test_growth_monotone():
    for spec in (GroupSpec.free_abelian(1), GroupSpec.heisenberg(),
                 GroupSpec.lamplighter(2)):
        prof = growth_profile(spec, 6)
        assert np.all(np.diff(prof.volumes) > 0)


def test_ball_doubling_polynomial_growth():
    # V(2n) <= 2^d * (b/a) * V(n) with a, b fitted from V(n) ~ n^d
    for spec, d in ((GroupSpec.free_abelian(1), 1),
                    (GroupSpec.free_abelian(2), 2),
                    (GroupSpec.heisenberg(), 4)):
        prof = growth_profile(spec, 12)
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
    for (u, v) in line.edges:
        assert ball.has_edge(int(u), int(v))


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
        sub = FiniteSubgraph(parent=ball, vertex_indices=members, edges=edges,
                             induced=True)
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
    sub = FiniteSubgraph(parent=ball, vertex_indices=[], edges=[], induced=True)
    assert sub.size == 0
    assert sub.local_edges().shape == (0, 2)
    assert sub.degrees().shape == (0,)
    assert not sub.connected


def test_connected_and_components():
    ball = enumerate_ball(GroupSpec.free_abelian(2), 3)
    empty = FiniteSubgraph(parent=ball, vertex_indices=[], edges=[],
                           induced=True)
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


def test_subgraph_rejects_duplicate_vertices():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    with pytest.raises(ValueError, match="vertex_indices contains duplicates"):
        FiniteSubgraph(parent=ball, vertex_indices=[4, 1, 2, 1],
                       edges=[[1, 2]], induced=False)


def test_subgraph_rejects_escaping_edge():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 3)
    with pytest.raises(ValueError,
                       match=r"^edge \(2, 6\) leaves the vertex subset$"):
        FiniteSubgraph(parent=ball, vertex_indices=[0, 1, 2],
                       edges=[[0, 1], [2, 6], [5, 1]], induced=False)
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) leaves"):
        FiniteSubgraph(parent=ball, vertex_indices=[], edges=[[0, 1]],
                       induced=False)


# ---------------------------------------------------------------------------
# tetrahedra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (3, 2)])
def test_tetrahedron_vertex_count(m, n):
    ball = enumerate_ball(GroupSpec.lamplighter(m), 2 * n)
    tet = tetrahedron(m, n, ball)
    assert tet.size == (n + 1) * m ** n
    assert tet.connected


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tetrahedron_count_oracle(m, n):
    ball = enumerate_ball(GroupSpec.lamplighter(m), 2 * n)
    assert tetrahedron(m, n, ball).size == (n + 1) * m ** n


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
    radii = [2, 4, 6, 8, 10]
    balls = {r: enumerate_ball(GroupSpec.lamplighter(m), r) for r in radii}
    for n in (1, 2, 3, 4):
        ball = balls[2 * n]
        idx, edges = multiply_tetrahedron(m, n, ball)
        tet = tetrahedron(m, n, ball)
        assert tet.induced
        assert tet.vertex_indices.tolist() == idx
        assert tet.edges.tolist() == edges
        bigger = tetrahedron(m, n, balls[radii[n]])
        assert np.array_equal(bigger.vertex_indices, tet.vertex_indices)
        assert np.array_equal(bigger.edges, tet.edges)


def test_tetrahedron_ball_too_small():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 2)
    with pytest.raises(ValueError, match="too small"):
        tetrahedron(2, 3, ball)
    # B(0)'s lamp window, {0, 1}, does not reach position 3
    with pytest.raises(ValueError, match="too small"):
        tetrahedron(2, 3, enumerate_ball(GroupSpec.lamplighter(2), 0))


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


def test_thicken_subgraph():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 5)
    tet = tetrahedron(2, 2, ball)
    fat = thicken_subgraph(tet, 1)
    assert set(tet.vertex_indices.tolist()) <= set(fat.vertex_indices.tolist())
    assert fat.connected


# ---------------------------------------------------------------------------
# graph queries against neighbor-list references
# ---------------------------------------------------------------------------

def _neighbor_lists(ball):
    adj = ball.adjacency_matrix().tocsr()
    return [adj.indices[adj.indptr[i]:adj.indptr[i + 1]]
            for i in range(len(ball))]


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


def bfs_thicken_reference(sub, radius):
    neighbors = _neighbor_lists(sub.parent)
    reached = set(sub.vertex_indices.tolist())
    frontier = list(reached)
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for v in neighbors[u]:
                v = int(v)
                if v not in reached:
                    reached.add(v)
                    nxt.append(v)
        frontier = nxt
    return induced_subgraph(sub.parent, sorted(reached))


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


def assert_odd_closed_walk(ball, cycle):
    assert len(cycle) % 2 == 1 and len(cycle) >= 3
    edges = {(int(u), int(v)) for u, v in ball.edges}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(a, b), max(a, b)) in edges


@pytest.mark.parametrize("name", sorted(_QUERY_BALLS))
def test_is_bipartite_matches_bfs_reference(name):
    ball = _query_ball(name)
    res = is_bipartite(ball)
    ref = bfs_is_bipartite_reference(ball)
    assert res.bipartite == (ref is not None)
    if ref is None:
        assert res.coloring is None
        assert_odd_closed_walk(ball, res.odd_cycle)
    else:
        assert res.coloring.dtype == np.int8
        assert np.array_equal(res.coloring, ref)
        assert res.odd_cycle is None


@pytest.mark.parametrize("name", sorted(_QUERY_BALLS))
def test_thicken_subgraph_matches_bfs_reference(name):
    ball = _query_ball(name)
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [17, len(ball)], dtype=np.uint64)))
    tenth = rng.choice(len(ball), size=max(1, len(ball) // 10), replace=False)
    for sub in (induced_subgraph(ball, [0]), induced_subgraph(ball, tenth)):
        for radius in range(4):
            got = thicken_subgraph(sub, radius)
            ref = bfs_thicken_reference(sub, radius)
            assert np.array_equal(got.vertex_indices, ref.vertex_indices)
            assert np.array_equal(got.edges, ref.edges)
            assert got.induced


@pytest.mark.parametrize("name", sorted(_QUERY_BALLS))
def test_has_edge_matches_set_reference(name):
    ball = _query_ball(name)
    edges = {(int(u), int(v)) for u, v in ball.edges}
    for u, v in edges:
        assert ball.has_edge(u, v) and ball.has_edge(v, u)
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [23, len(ball)], dtype=np.uint64)))
    for u, v in rng.integers(-1, len(ball) + 1, size=(300, 2)).tolist():
        assert ball.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)


# ---------------------------------------------------------------------------
# bipartiteness
# ---------------------------------------------------------------------------

def test_zd_bipartite():
    res = is_bipartite(enumerate_ball(GroupSpec.free_abelian(2), 4))
    assert res.bipartite
    ball = enumerate_ball(GroupSpec.free_abelian(2), 4)
    for u, v in ball.edges:
        assert res.coloring[u] * res.coloring[v] == -1


def test_lamplighter_bipartite():
    ball = enumerate_ball(GroupSpec.lamplighter(2), 4)
    res = is_bipartite(ball)
    assert res.bipartite
    # the walker coordinate alone alternates along every edge
    for u, v in ball.edges:
        assert (ball.vertices[u][1] - ball.vertices[v][1]) % 2 == 1


def test_z_with_doubled_generators_not_bipartite():
    spec = GroupSpec.free_abelian(1, generators=[(1,), (-1,), (2,), (-2,)])
    ball = enumerate_ball(spec, 4)
    res = is_bipartite(ball)
    assert not res.bipartite
    assert_odd_closed_walk(ball, res.odd_cycle)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_edge_list_export():
    ball = enumerate_ball(GroupSpec.free_abelian(1), 2)
    buf = io.StringIO()
    export_edge_list(ball, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# group=free_abelian:1 n=2 k=2"
    assert len(lines) == 1 + len(ball.edges)
    for ln in lines[1:]:
        u, v = map(int, ln.split())
        assert u < v
