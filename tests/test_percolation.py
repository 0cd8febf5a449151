"""Sampling determinism, cluster decomposition, and subcritical statistics."""

import concurrent.futures
import itertools
import os

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from percospec import _parallel
from percospec.cayley import GroupSpec, enumerate_ball
from percospec.cli import write_csv
from percospec.percolation import (
    PercolationModel,
    cluster_stats,
    decompose,
    deleted_density_expected,
    item_uniforms,
    sample,
)


def z_window(radius):
    return enumerate_ball(GroupSpec.free_abelian(1), radius)


def z2_window(radius):
    return enumerate_ball(GroupSpec.free_abelian(2), radius)


def tail_oracle_z(p, n):
    """P(|C_o| >= n) for site percolation on Z: p^n * (n(1-p) + p).

    From P(|C_o| = j) = j p^j (1-p)^2: the origin can sit at j positions of
    an open run flanked by closed sites.
    """
    return p ** n * (n * (1 - p) + p)


def test_tail_oracle_against_exhaustive_enumeration():
    # enumerate all configurations on 13 sites of Z centred at the origin;
    # for n <= 4 the cluster cannot feel the truncation
    m = 13
    origin = m // 2
    for p in (0.3, 0.5):
        prob_ge = np.zeros(5)
        for bits in itertools.product((0, 1), repeat=m):
            w = np.prod([p if b else 1 - p for b in bits])
            size = 0
            if bits[origin]:
                size = 1
                i = origin - 1
                while i >= 0 and bits[i]:
                    size += 1
                    i -= 1
                i = origin + 1
                while i < m and bits[i]:
                    size += 1
                    i += 1
            for n in range(1, 5):
                if size >= n:
                    prob_ge[n] += w
        for n in range(1, 5):
            assert prob_ge[n] == pytest.approx(tail_oracle_z(p, n), abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_p_zero_and_one():
    w = z2_window(3)
    s0 = sample(PercolationModel("site", 0.0, 7), w, 0)
    assert len(s0.active_vertices()) == 0
    s1 = sample(PercolationModel("site", 1.0, 7), w, 0)
    assert np.array_equal(s1.active_vertices(), np.arange(len(w)))
    dec = decompose(s1)
    assert dec.cluster_count == 1

    sb = sample(PercolationModel("bond", 1.0, 7), w, 0)
    # all edges open; all non-isolated window vertices active (none isolated here)
    assert np.array_equal(sb.active_vertices(), np.arange(len(w)))


def test_sampling_determinism():
    w = z2_window(4)
    model = PercolationModel("site", 0.44, 123)
    a = sample(model, w, 5).open_marks
    b = sample(model, w, 5).open_marks
    assert np.array_equal(a, b)
    c = sample(model, w, 6).open_marks
    assert not np.array_equal(a, c)


def test_marks_are_pure_function_of_seed_index_item():
    u1 = item_uniforms(99, 3, 50)
    u2 = item_uniforms(99, 3, 80)
    assert np.array_equal(u1, u2[:50])


def test_monotone_coupling_in_p():
    w = z2_window(4)
    for kind in ("site", "bond"):
        lo = sample(PercolationModel(kind, 0.3, 11), w, 2)
        hi = sample(PercolationModel(kind, 0.7, 11), w, 2)
        assert np.all(hi.open_marks[lo.open_marks])


def test_bond_vertex_rule():
    w = z2_window(4)
    model = PercolationModel("bond", 0.4, 5)
    for i in range(20):
        s = sample(model, w, i)
        active = set(s.active_vertices().tolist())
        incident = set(np.unique(s.open_edges()).tolist())
        assert active == incident


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_single_segment_on_z():
    w = z_window(3)
    model = PercolationModel("site", 0.5, 1)
    marks = np.zeros(len(w), dtype=bool)
    for el in [(-1,), (0,), (1,)]:
        marks[w.index_of(el)] = True
    s = sample(model, w, 0)
    s.open_marks = marks
    dec = decompose(s)
    assert dec.cluster_count == 1
    assert dec.origin_cluster_size == 3


def test_decompose_single_bond():
    w = z2_window(3)
    model = PercolationModel("bond", 0.5, 1)
    marks = np.zeros(len(w.edges), dtype=bool)
    marks[4] = True
    s = sample(model, w, 0)
    s.open_marks = marks
    dec = decompose(s)
    assert dec.cluster_count == 1
    assert np.array_equal(dec.sizes, [2])
    assert len(dec.active) == 2


def bfs_cluster_sizes(active, edges):
    """Independent BFS recount of component sizes."""
    active = [int(a) for a in active]
    adj = {a: [] for a in active}
    for u, v in edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    seen, sizes = set(), []
    for a in active:
        if a in seen:
            continue
        stack, comp = [a], 0
        seen.add(a)
        while stack:
            x = stack.pop()
            comp += 1
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        sizes.append(comp)
    return sorted(sizes)


def test_decompose_matches_bfs_oracle():
    w = z2_window(6)
    model = PercolationModel("site", 0.5, 321)
    for i in range(5):
        s = sample(model, w, i)
        dec = decompose(s)
        assert dec.sizes.sum() == len(dec.active)
        assert sorted(dec.sizes.tolist()) == \
            bfs_cluster_sizes(s.active_vertices(), s.open_edges())


def local_map_decompose(s):
    """Slow reference: components labelled through a window-sized local map."""
    active = s.active_vertices()
    n = len(active)
    if n == 0:
        return active, np.zeros(0, dtype=np.int64), 0, 0
    local = np.full(len(s.window), -1, dtype=np.int64)
    local[active] = np.arange(n)
    edges = s.open_edges()
    g = sparse.csr_matrix(
        (np.ones(len(edges)), (local[edges[:, 0]], local[edges[:, 1]])),
        shape=(n, n))
    ncomp, labels = csgraph.connected_components(g, directed=False)
    sizes = np.bincount(labels, minlength=ncomp).astype(np.int64)
    origin_size = int(sizes[labels[local[0]]]) if local[0] >= 0 else 0
    return active, sizes, int(ncomp), origin_size


@pytest.mark.parametrize("kind", ["site", "bond"])
@pytest.mark.parametrize("spec,radius", [
    (GroupSpec.free_abelian(2), 6), (GroupSpec.heisenberg(), 3),
    (GroupSpec.lamplighter(2), 5)])
def test_decompose_matches_local_map_reference(kind, spec, radius):
    w = enumerate_ball(spec, radius)
    seen = set()
    for p in (0.0, 0.2, 0.5, 0.8, 1.0):
        model = PercolationModel(kind, p, 2718)
        for i in range(6):
            s = sample(model, w, i)
            dec = decompose(s)
            got = (dec.active, dec.sizes, dec.cluster_count,
                   dec.origin_cluster_size)
            want = local_map_decompose(s)
            for a, b in zip(got[:2], want[:2]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert got[2:] == want[2:]
            seen.add("empty" if not len(dec.active)
                     else "origin in" if dec.origin_cluster_size
                     else "origin out")
    assert seen == {"empty", "origin in", "origin out"}


# ---------------------------------------------------------------------------
# statistics# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.3, 0.5])
def test_tail_matches_renewal_oracle_on_z(p):
    # the 3 sigma band uses the oracle's binomial deviation: the plug-in
    # stderr degenerates to 0 when no tail hit is observed
    w = z_window(120)
    model = PercolationModel("site", p, 2024)
    n_samples = 800
    stats = cluster_stats(model, w, n_samples, tail_grid=range(1, 9))
    for n, t in zip(stats.tail_grid, stats.tail):
        exact = tail_oracle_z(p, int(n))
        sigma = np.sqrt(exact * (1 - exact) / n_samples)
        assert abs(t - exact) <= 3 * sigma


def test_clusters_per_vertex_on_z():
    w = z_window(300)
    model = PercolationModel("site", 0.5, 77)
    stats = cluster_stats(model, w, 300, tail_grid=range(1, 6))
    val, se = stats.clusters_per_vertex
    assert abs(val - 0.25) <= 3 * max(se, 1e-4)


def test_deleted_density_site():
    w = z2_window(12)
    model = PercolationModel("site", 0.3, 31)
    stats = cluster_stats(model, w, 200, tail_grid=range(1, 5))
    val, se = stats.deleted_density
    assert abs(val - 0.7) <= 3 * max(se, 1e-4)


def test_deleted_density_expected_values():
    assert deleted_density_expected(PercolationModel("site", 0.3, 0), 4) == pytest.approx(0.7)
    assert deleted_density_expected(PercolationModel("bond", 0.5, 0), 4) == pytest.approx(0.0625)
    assert deleted_density_expected(PercolationModel("bond", 1.0, 0), 4) == 0.0


def test_subcritical_loglinear_tail_z2_bond():
    w = z2_window(18)
    model = PercolationModel("bond", 0.25, 5150)
    stats = cluster_stats(model, w, 1500, tail_grid=range(1, 13))
    assert stats.tau_fit.valid
    assert stats.tau_fit.tau > 0
    assert stats.tau_fit.r2 > 0.9


def test_tail_fit_invalid_when_no_data():
    w = z_window(40)
    model = PercolationModel("site", 0.05, 8)
    stats = cluster_stats(model, w, 120, tail_grid=range(6, 12))
    assert not stats.tau_fit.valid
    assert stats.tau_fit.tau is None and stats.tau_fit.r2 is None
    assert np.all(np.diff(stats.tail) <= 1e-12)


def test_workers_do_not_change_results():
    w = z2_window(8)
    model = PercolationModel("site", 0.45, 99)
    a = cluster_stats(model, w, 120, tail_grid=range(1, 6), workers=1)
    b = cluster_stats(model, w, 120, tail_grid=range(1, 6), workers=4)
    assert np.array_equal(a.tail, b.tail)
    assert a.clusters_per_vertex == b.clusters_per_vertex


@pytest.mark.parametrize("workers,tasks,cores,pool,chunk", [
    (5000, 10, 64, 10, 1), (5000, 100, 4, 4, 6), (3, 100, 8, 3, 8),
    (2, 1, 8, None, None), (8, 100, 1, None, None), (8, 100, None, None, None)])
def test_worker_pool_is_clamped_to_tasks_and_cores(monkeypatch, workers, tasks,
                                                   cores, pool, chunk):
    """A pool forks all its workers on the first submit, so it gets no more
    than min(workers, tasks, cores), and one worker runs in process; the
    chunk size is read off the clamped count.  No process is started."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            made.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            made.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    out = _parallel.run_indexed(lambda ctx, i: ctx + i, range(tasks), workers, 100)
    assert out == [100 + i for i in range(tasks)]
    assert made == ([] if pool is None else [pool, chunk])


def test_cluster_stats_export(tmp_path):
    # tail.csv is written by the generic CSV writer, one row per tail point
    w = z_window(60)
    stats = cluster_stats(PercolationModel("site", 0.5, 10), w, 150,
                          tail_grid=range(1, 4))
    path = tmp_path / "tail.csv"
    write_csv(path, ["n", "tail", "stderr"],
              zip(stats.tail_grid, stats.tail, stats.tail_stderr))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,tail,stderr"
    assert len(lines) == 4
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows[:, 0], [1, 2, 3])
    assert np.array_equal(rows[:, 1], stats.tail)
    assert np.array_equal(rows[:, 2], stats.tail_stderr)


def test_model_seed_must_fit_the_64_bit_key():
    # item_uniforms keys its stream with 64 bits, so a wider seed would alias
    for seed in (-1, 2 ** 64, 2 ** 64 + 1):
        with pytest.raises(ValueError, match="seed"):
            PercolationModel("site", 0.5, seed)
    w = enumerate_ball(GroupSpec.free_abelian(1), 3)
    top = sample(PercolationModel("site", 0.5, 2 ** 64 - 1), w, 0)
    assert top.open_marks.shape == (len(w),)
