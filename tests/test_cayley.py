"""Ball enumeration, growth tables, special subgraphs, bipartiteness."""

import io
import itertools
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
    idx = sorted(ball.index[el] for el in members)
    inside = set(idx)
    edges = set()
    for i in idx:
        for g in ball.spec.generators:
            j = ball.index.get(multiply(ball.spec, ball.vertices[i], g))
            if j is not None and j in inside and j > i:
                edges.add((i, j))
    return idx, [list(e) for e in sorted(edges)]


@pytest.mark.parametrize("m", [2, 3])
def test_tetrahedron_matches_multiply_reference(m):
    # B(10) of Z_3 wr Z takes seconds to enumerate, so the (3, 4) case
    # compares B(8) with B(9) instead of B(10)
    radii = [2, 4, 6, 8, 10] if m == 2 else [2, 4, 6, 8, 9]
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
