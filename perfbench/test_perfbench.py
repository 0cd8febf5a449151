"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import statistics
import sys

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))

from percospec import bounds, cayley, operators, percolation, spectra  # noqa: E402

TINY = {
    "ids-line-sub": run._ids_config({"kind": "free_abelian", "rank": 1},
                                    {"kind": "site", "p": 0.5}, 200, 4.0, 10),
    "ids-z2-bond-super": run._ids_config({"kind": "free_abelian", "rank": 2},
                                         {"kind": "bond", "p": 0.6}, 4, 8.0, 10),
    "lamplighter-m3": {"group": {"kind": "lamplighter", "modulus": 3},
                       "window": {"depths": [2, 3], "return_max": 2}},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    for name, config in TINY.items():
        wl = run.WORKLOADS[name]
        monkeypatch.setitem(run.WORKLOADS, name,
                            run.Workload(wl.subcommand, config, wl.expected_spans))


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_untraced(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_RUNS
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_traced(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    coverage = json.loads(next(l for l in lines if l.startswith("coverage: "))
                          .split(": ", 1)[1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.PER_LAYER_UNITS
    assert coverage["missing_expected_spans"] == []
    assert 0.9 < coverage["covered_share"] <= 1.0
    assert tracer.leftover_wrappers() == []


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ids-line-sub", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_self_time_arithmetic():
    S = tracer.Span
    spans = [S("a", 0.0, 10.0, None),   # 0
             S("b", 1.0, 4.0, 0),       # 1
             S("c", 2.0, 3.0, 1),       # 2
             S("b", 5.0, 9.0, 0),       # 3
             S("d", 11.0, 12.0, None)]
    rows = tracer.self_times(spans)
    assert rows["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert rows["b"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert rows["c"]["self_s"] == 1.0 and rows["d"]["self_s"] == 1.0
    assert tracer.covered_s(spans) == 11.0

    trace = tracer.Trace(spans=spans)
    report = tracer.layer_report(trace, wall_s=12.5, names=("a", "b", "x"))
    assert report["unmeasured"] == ["x"]
    assert report["counters"]["cli.other_s"] == pytest.approx(12.5 - 11.0)
    assert report["covered_share"] == pytest.approx(11.0 / 12.5)


def test_wrappers_cover_every_namespace_and_are_removed():
    originals = {
        (cayley, "enumerate_ball"), (spectra, "enumerate_ball"),
        (bounds, "enumerate_ball"), (percolation, "enumerate_ball"),
        (spectra, "subgraph_laplacian"), (bounds, "subgraph_laplacian"),
        (operators, "subgraph_laplacian"), (spectra, "sample"),
    }
    before = {(m, a): getattr(m, a) for m, a in originals}
    trace = tracer.Trace()
    with pytest.raises(RuntimeError):
        with tracer.installed(trace):
            for m, a in originals:
                assert getattr(m, a).__wrapped_by_perfbench__
            cayley.enumerate_ball(cayley.GroupSpec.free_abelian(2), 3)
            raise RuntimeError("a failing run still unwraps")
    assert tracer.leftover_wrappers() == []
    assert all(getattr(m, a) is f for (m, a), f in before.items())
    assert [s.name for s in trace.spans] == ["cayley.enumerate_ball",
                                             tracer.COUNTER_SPAN]
    assert trace.counters == {"cayley.vertices": 25, "cayley.edges": 36}


def ids_outputs(out, neumann_zero, adjacency_zero=0.0):
    out.mkdir()
    report = {bc: {"n_at_zero": 0.0, "n_at_zero_stderr": 0.0}
              for bc in run.BCS}
    report["neumann"] = {"n_at_zero": neumann_zero, "n_at_zero_stderr": 0.01}
    report["adjacency"]["n_at_zero"] = adjacency_zero
    (out / "ids_report.json").write_text(json.dumps(report))
    for bc in run.BCS:
        (out / f"ids_{bc}.csv").write_text("h\n" + "r\n" * 65)
    return out


def test_checker_flags_bad_and_differing_outputs(tmp_path):
    checker = run.OutputChecker("ids-z2-bond-super", seed=-1)
    assert checker.check("good", 0, ids_outputs(tmp_path / "good", 0.25))
    assert not checker.check("kernel", 0,
                             ids_outputs(tmp_path / "kernel", 0.25, 0.01))
    assert any("adjacency n_at_zero" in p for p in checker.problems)
    assert any("differ between repeats" in p for p in checker.problems)


def line_kernel_density(ball, window_size, model, n_samples):
    """Clusters of open sites per window site, averaged over the samples:
    on Z the open window sites form a forest, so clusters = sites - edges."""
    edges = ball.edges[(ball.edges < window_size).all(axis=1)]
    counts = []
    for i in range(n_samples):
        marks = percolation.sample(model, ball, i).open_marks
        counts.append(marks[:window_size].sum()
                      - (marks[edges[:, 0]] & marks[edges[:, 1]]).sum())
    return sum(counts) / n_samples / window_size


def test_line_kernel_density_is_the_reported_n_at_zero():
    model = percolation.PercolationModel("site", 0.5, 7)
    ball = cayley.enumerate_ball(cayley.GroupSpec.free_abelian(1), 201)
    est = spectra.empirical_ids(cayley.GroupSpec.free_abelian(1), model,
                                "neumann", radius=200, n_samples=10,
                                energy_grid=[0.0])
    assert est.n_at_zero[0] == pytest.approx(
        line_kernel_density(ball, ball.volume(200), model, 10), abs=1e-15)


def test_neumann_check_passes_every_seed_and_catches_a_shift(tmp_path):
    wl = run.WORKLOADS["ids-line-sub"]
    p, radius = wl.config["percolation"]["p"], wl.config["window"]["radius"]
    n = wl.config["spectra"]["n_samples"]
    mean, se = run.line_cluster_density(p, radius, n)
    ball = cayley.enumerate_ball(cayley.GroupSpec.free_abelian(1), radius + 1)
    z = [(line_kernel_density(ball, ball.volume(radius),
                              percolation.PercolationModel("site", p, seed), n)
          - mean) / se for seed in range(2000)]
    assert max(map(abs, z)) < run.NEUMANN_Z
    # the exact stderr is the spread the seeds actually show
    assert statistics.pstdev(z) == pytest.approx(1.0, abs=0.05)

    def problems(name, value):
        return run.check_outputs("ids-line-sub", ids_outputs(tmp_path / name, value))

    assert problems("mean", mean) == []
    assert problems("inside", mean - 0.9 * run.NEUMANN_Z * se) == []
    assert "neumann n_at_zero" in problems("outside", mean + 1.1 * run.NEUMANN_Z * se)[0]
    # dropping the single-site clusters, p(1-p)^2 per site, is far outside
    assert problems("singletons", mean - p * (1 - p) ** 2)


def test_benchmark_json_names_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.END_TO_END_UNITS) == {"wall_s", "samples_per_s", "setup_s",
                                         "peak_rss_mb"}
