"""Which scipy modules a run loads, each checked in a fresh interpreter.

The CLI, ball enumeration, the fits, the operators and their products, and
an ids run whose clusters are small need numpy alone: ``growth`` and
``percolate`` load no scipy subpackage, and ``exponents``, ``bounds`` and
``lamplighter`` load ``scipy.linalg`` for their eigensolves and neither
``scipy.stats`` nor ``scipy.sparse``.  ``import scipy`` itself, which the
manifest needs for its version, loads a few private modules and no
subpackage; those are the baseline.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    baseline = scipy_modules_after("import scipy")
    assert scipy_modules_after("import percospec.cli") <= baseline


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
    # depth 2 takes the full eigh, depth 6 (448 vertices) the certificate
    cfg = {**cfg, "seed": 1, "workers": 1, "output_dir": str(tmp_path / "o")}
    loaded = scipy_modules_after(cli_run(tmp_path, subcommand, cfg))
    assert _subpackages(loaded - scipy_modules_after("import scipy")) == {"linalg"}
