"""Which scipy modules a run loads, each checked in a fresh interpreter.

The CLI, ball enumeration, the fits, the operators and their products, and
an ids run whose clusters are small need numpy alone: ``growth`` and
``percolate`` load no scipy subpackage, and ``exponents`` and ``bounds``
load ``scipy.linalg`` for their eigensolves and neither ``scipy.stats`` nor
``scipy.sparse``; the free IDS of Z^d is numpy's, so ``free-ids`` without a
ball and ``exponents`` on Z^d, d >= 2, load no scipy at all.  The
tetrahedron checks of ``lamplighter`` and of ``bounds`` on a lamplighter
group solve nothing, so those runs load no
scipy subpackage, except that the depth-2 tetrahedron of Z_2 wr Z keeps a
full ``scipy.linalg`` solve.  ``import percospec.cli`` loads no scipy at
all, and the manifest records scipy's version only when the run loaded it.
``import scipy`` itself loads a few private modules and no subpackage;
those are the baseline.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import percospec

_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(Path(percospec.__file__).resolve().parent.parent)

# prints the scipy modules loaded once the code in argv[1] has run
_LOADED = """
import sys
exec(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(code: str) -> set:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LOADED, code], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return set(done.stdout.split())


def cli_run(tmp_path, subcommand: str, cfg: dict) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return ("from percospec import cli\n"
            f"assert cli.main([{subcommand!r}, '--config', {str(path)!r}]) == 0")


def test_import_scipy_loads_no_subpackage():
    loaded = scipy_modules_after("import scipy")
    assert "scipy" in loaded
    assert not {"scipy.sparse", "scipy.linalg", "scipy.stats"} & loaded


def test_cli_import_loads_no_scipy_submodule():
    assert scipy_modules_after("import percospec.cli") == set()


def test_manifest_records_scipy_only_when_the_run_loaded_it(tmp_path):
    growth = {"seed": 1, "group": {"kind": "free_abelian", "rank": 2},
              "window": {"radius": 8}, "output_dir": str(tmp_path / "g")}
    assert scipy_modules_after(cli_run(tmp_path, "growth", growth)) == set()
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest["environment"]["scipy"] is None
    # the free IDS of a ball solves the whole ball with scipy.linalg
    free = {"seed": 1, "group": {"kind": "free_abelian", "rank": 2},
            "window": {"radius": 3}, "output_dir": str(tmp_path / "f"),
            "spectra": {"energy_grid": {"values": [1.0]}}}
    assert "scipy" in scipy_modules_after(cli_run(tmp_path, "free-ids", free))
    manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert manifest["environment"]["scipy"] == scipy.__version__


@pytest.mark.parametrize("subcommand,rank,extra", [
    ("free-ids", 2, {"spectra": {"energy_grid": {"values": [0.5, 4.0, 7.0]}}}),
    ("exponents", 3, {"window": {"radius": 8}}),
], ids=["free-ids-z2", "exponents-z3"])
def test_free_ids_zd_runs_load_no_scipy(tmp_path, subcommand, rank, extra):
    # the free IDS of Z^d is numpy's Gauss-Legendre rule, with no ball solve
    cfg = {"seed": 1, "group": {"kind": "free_abelian", "rank": rank},
           "output_dir": str(tmp_path / "o"), **extra}
    assert scipy_modules_after(cli_run(tmp_path, subcommand, cfg)) == set()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["environment"]["scipy"] is None


def test_small_cluster_ids_run_loads_no_scipy_submodule(tmp_path):
    # Z, site p = 0.5: clusters of a few sites, none solved by scipy
    cfg = {"seed": 3, "workers": 1, "output_dir": str(tmp_path / "o"),
           "group": {"kind": "free_abelian", "rank": 1},
           "percolation": {"kind": "site", "p": 0.5},
           "window": {"radius": 200},
           "spectra": {"boundary_conditions": ["neumann", "adjacency", "dirichlet"],
                       "n_samples": 10,
                       "energy_grid": {"min": 0.0, "max": 4.0, "points": 17}}}
    baseline = scipy_modules_after("import scipy")
    assert scipy_modules_after(cli_run(tmp_path, "ids", cfg)) <= baseline
    assert (tmp_path / "o" / "ids_report.json").exists()


def test_band_path_loads_scipy_linalg_and_keeps_the_pinned_bytes(tmp_path):
    # the benchmark's Z^2 bond run past p_c at seed 0: its giant clusters
    # take the band solve, which needs no scipy.sparse
    entry = json.loads((_ROOT / "perfbench" / "digests.json").read_text())[
        "ids-z2-bond-super"]
    out = tmp_path / "o"
    cfg = {**entry["config"], "seed": 0, "workers": 1, "output_dir": str(out)}
    loaded = scipy_modules_after(cli_run(tmp_path, "ids", cfg))
    assert "scipy.linalg" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["scipy", "sparse"]}
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in json.loads((out / "manifest.json").read_text())["outputs"]}
    assert got == entry["outputs"]["0"]


_M3 = json.loads((_ROOT / "perfbench" / "digests.json").read_text())[
    "lamplighter-m3"]["config"]
_M2 = {"kind": "lamplighter", "modulus": 2}


@pytest.mark.parametrize("subcommand,cfg", [
    ("lamplighter", _M3),
    ("bounds", _M3),
    ("lamplighter", {"group": _M2, "window": {"depths": [3, 6], "return_max": 4}}),
    ("bounds", {"group": _M2, "window": {"depths": [3, 6]}}),
], ids=["lamplighter-m3", "bounds-m3", "lamplighter-m2", "bounds-m2"])
def test_certified_tetrahedron_runs_load_no_scipy_submodule(tmp_path, subcommand,
                                                            cfg):
    # every tetrahedron but depth 2 of Z_2 wr Z takes the certificate: the
    # benchmark's Z_3 wr Z depths 2-5 (27 to 1458 vertices), and Z_2 wr Z
    # depths 3 (32) and 6 (448)
    cfg = {**cfg, "seed": 1, "workers": 1, "output_dir": str(tmp_path / "o")}
    baseline = scipy_modules_after("import scipy")
    assert scipy_modules_after(cli_run(tmp_path, subcommand, cfg)) <= baseline
    solves = json.loads((tmp_path / "o" / "manifest.json").read_text())[
        "tetrahedron_solves"]
    assert set(solves.values()) == {"certificate"}


def _subpackages(modules: set) -> set:
    """The public scipy subpackages that have a module among ``modules``."""
    return {m.split(".")[1] for m in modules
            if m.count(".") and not m.split(".")[1].startswith("_")}


_Z1 = {"kind": "free_abelian", "rank": 1}
_Z2 = {"kind": "free_abelian", "rank": 2}


@pytest.mark.parametrize("subcommand,cfg", [
    ("growth", {"group": _Z2, "window": {"radius": 8}}),
    ("percolate", {"group": _Z2, "window": {"radius": 6},
                   "percolation": {"kind": "site", "p": 0.6, "n_samples": 100}}),
], ids=["growth", "percolate"])
def test_fit_runs_load_no_scipy_submodule(tmp_path, subcommand, cfg):
    cfg = {**cfg, "seed": 1, "workers": 1, "output_dir": str(tmp_path / "o")}
    baseline = scipy_modules_after("import scipy")
    assert scipy_modules_after(cli_run(tmp_path, subcommand, cfg)) <= baseline


@pytest.mark.parametrize("subcommand,cfg", [
    ("exponents", {"group": _Z1, "window": {"radius": 8},
                   "percolation": {"kind": "site", "p": 0.5},
                   "fits": {"line_max": 8}}),
    ("bounds", {"group": _Z2, "fits": {"dirichlet_n_max": 4, "line_max": 8}}),
    ("bounds", {"group": {"kind": "lamplighter", "modulus": 2},
                "window": {"depths": [2, 6]}}),
    ("lamplighter", {"group": {"kind": "lamplighter", "modulus": 2},
                     "window": {"depths": [2, 6], "return_max": 4}}),
], ids=["exponents", "bounds-z2", "bounds-lamplighter", "lamplighter"])
def test_solving_runs_load_scipy_linalg_alone(tmp_path, subcommand, cfg):
    # on Z_2 wr Z depth 2 (12 vertices), the one tetrahedron below the
    # certificate floor, takes the full eigh, depth 6 (448) the certificate
    cfg = {**cfg, "seed": 1, "workers": 1, "output_dir": str(tmp_path / "o")}
    loaded = scipy_modules_after(cli_run(tmp_path, subcommand, cfg))
    assert _subpackages(loaded - scipy_modules_after("import scipy")) == {"linalg"}
