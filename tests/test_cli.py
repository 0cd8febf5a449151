"""CLI: validation, exit codes, artifact content, byte-level determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import csgraph

import percospec
from percospec import bounds, cayley, cli, operators, percolation, spectra
from percospec.cli import main, validate_config
from percospec.errors import BudgetError, ValidationError


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(out, **extra):
    cfg = {
        "seed": 424242,
        "workers": 1,
        "output_dir": str(out),
    }
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------------

def test_missing_seed_is_validation_error(tmp_path):
    cfg = {"group": {"kind": "free_abelian", "rank": 1},
           "window": {"radius": 4}, "output_dir": str(tmp_path / "o")}
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 1


def test_seed_flag_satisfies_requirement(tmp_path):
    cfg = {"group": {"kind": "free_abelian", "rank": 1},
           "window": {"radius": 10}, "output_dir": str(tmp_path / "o")}
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path, "--seed", "7"]) == 0


def test_unknown_key_rejected(tmp_path):
    cfg = base_config(tmp_path / "o", group={"kind": "free_abelian", "rank": 1},
                      window={"radius": 4}, typo_key=1)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 1


def test_unknown_nested_key_rejected(tmp_path):
    cfg = base_config(tmp_path / "o",
                      group={"kind": "free_abelian", "rank": 1, "oops": 2},
                      window={"radius": 4})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 1


@pytest.mark.parametrize("section,key", [(None, "seed"), ("window", "radius")])
def test_config_integer_past_the_digit_limit_is_unreadable(tmp_path, capsys,
                                                           section, key):
    # Python converts at most 4300 digits to an int, so json.load raises a
    # ValueError that is not a JSONDecodeError
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "free_abelian", "rank": 1},
                      window={"radius": 4})
    (cfg[section] if section else cfg)[key] = "HUGE"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg).replace('"HUGE"', "9" * 5000))
    assert main(["growth", "--config", str(path)]) == 1
    assert "cannot read config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["growth"], ["nosuch", "--config", "c.json"],
    ["growth", "--config", "c.json", "--seed", "x"]],
    ids=["no-config", "unknown-subcommand", "seed-not-an-integer"])
def test_usage_mistakes_exit_1(tmp_path, monkeypatch, capsys, argv):
    # argparse exits 2, the resource-budget code here
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, "c.json", base_config(
        tmp_path / "o", group={"kind": "free_abelian", "rank": 1},
        window={"radius": 4}))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: percospec")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: percospec")


def test_budget_exceeded_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("PERCOSPEC_BUDGET_VERTICES", "10")
    cfg = base_config(tmp_path / "o", group={"kind": "free_abelian", "rank": 2},
                      window={"radius": 12})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 2


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["growth", "--config", str(path)]) == 1


def test_non_object_config_is_validation_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert main(["growth", "--config", str(path), "--seed", "7"]) == 1


def test_ids_requires_exactly_one_window_kind(tmp_path):
    cfg = base_config(tmp_path / "o",
                      group={"kind": "lamplighter", "modulus": 2},
                      percolation={"kind": "site", "p": 0.5},
                      window={"radius": 4, "depth": 2},
                      spectra={"n_samples": 10,
                               "energy_grid": {"values": [1.0]}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["ids", "--config", path]) == 1


def test_chain_requires_radius(tmp_path):
    cfg = base_config(tmp_path / "o",
                      group={"kind": "free_abelian", "rank": 2},
                      percolation={"kind": "site", "p": 0.5},
                      window={"depth": 2},
                      spectra={"n_samples": 10,
                               "energy_grid": {"values": [1.0]}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["chain", "--config", path]) == 1


def test_ids_too_few_samples_is_validation_error(tmp_path, capsys):
    cfg = base_config(tmp_path / "o", group={"kind": "free_abelian", "rank": 1},
                      percolation={"kind": "site", "p": 0.5},
                      window={"radius": 10},
                      spectra={"n_samples": 5,
                               "energy_grid": {"values": [1.0]}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["ids", "--config", path]) == 1
    assert "spectra.n_samples must be >= 10" in capsys.readouterr().err


def test_non_integer_budget_env_is_validation_error(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setenv("PERCOSPEC_BUDGET_VERTICES", "abc")
    cfg = base_config(tmp_path / "o", group={"kind": "free_abelian", "rank": 1},
                      window={"radius": 10})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 1
    assert "PERCOSPEC_BUDGET_VERTICES must be an integer" \
        in capsys.readouterr().err


_Z1 = {"kind": "free_abelian", "rank": 1}
_Z2 = {"kind": "free_abelian", "rank": 2}
_SITE = {"kind": "site", "p": 0.5}
_Z1_STEPS_1_2 = {**_Z1, "generators": [[1], [-1], [2], [-2]]}


@pytest.mark.parametrize("subcommand,body,key", [
    ("percolate", {"group": _Z1, "window": {"radius": 10},
                   "percolation": {**_SITE, "n_samples": 50}},
     "percolation.n_samples"),
    ("percolate", {"group": _Z1, "window": {"radius": 10},
                   "percolation": {**_SITE, "n_samples": "x"}},
     "percolation.n_samples"),
    ("ids", {"group": _Z1, "window": {"radius": 10}, "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {
                 "min": 0, "max": 4, "points": 5, "scale": "log"}}},
     "spectra.energy_grid.min"),
    ("ids", {"group": _Z1, "window": {"radius": 10}, "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {
                 "min": 0, "max": 4, "points": "x"}}},
     "spectra.energy_grid.points"),
    ("lamplighter", {"group": {"kind": "lamplighter", "modulus": 2},
                     "window": {"depths": [0]}},
     "window.depths"),
    ("bounds", {"group": {"kind": "lamplighter", "modulus": 2},
                "window": {"depths": [2, 0]}},
     "window.depths"),
    ("chain", {"group": {"kind": "free_abelian", "rank": 2},
               "window": {"radius": 3}, "percolation": _SITE,
               "spectra": {"n_samples": 2, "couplings": [-1],
                           "energy_grid": {"values": [1.0]}}},
     "spectra.couplings"),
    ("percolate", {"group": _Z1, "window": {"radius": 5},
                   "percolation": {**_SITE, "tail_max": "x"}},
     "percolation.tail_max"),
    ("ids", {"group": _Z1, "window": {"radius": 5}, "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {"values": ["a"]}}},
     "spectra.energy_grid.values"),
    ("ids", {"group": _Z1, "window": {"depth": 2}, "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {"values": [1.0]}}},
     "window.depth"),
    ("growth", {"group": {**_Z2, "generators": [[1, 0]]},
                "window": {"radius": 10}},
     "group:"),
    ("exponents", {"group": _Z1, "window": {"radius": 3}}, "window.radius"),
    ("exponents", {"group": _Z1, "fits": {"van_hove_range": [0.1]}},
     "fits.van_hove_range"),
    ("exponents", {"group": _Z1, "fits": {"van_hove_range": [0, 0.1]}},
     "fits.van_hove_range"),
    ("exponents", {"group": _Z1, "fits": {"van_hove_range": [0.1, 0.01]}},
     "fits.van_hove_range"),
    ("growth", {"group": _Z1, "window": {"radius": 10},
                "fits": {"growth_n_min": "x"}},
     "fits.growth_n_min"),
    ("growth", {"group": _Z1, "window": {"radius": 10},
                "fits": {"growth_n_max": 30}},
     "fits.growth_n_max"),
    ("growth", {"group": _Z1, "window": {"radius": 10},
                "fits": {"growth_n_max": 6}},
     "fits.growth_n_max"),
    ("bounds", {"group": _Z2, "fits": {"dirichlet_n_max": 1}},
     "fits.dirichlet_n_max"),
    ("bounds", {"group": _Z2, "fits": {"line_max": 1}}, "fits.line_max"),
    ("lamplighter", {"group": {"kind": "lamplighter", "modulus": 2},
                     "window": {"depths": [1]}},
     "window.depths"),
    ("ids", {"group": _Z1, "window": {"radius": 5}, "percolation": _SITE},
     "spectra"),
    ("lamplighter", {"group": {"kind": "lamplighter", "modulus": 2,
                               "generators": [[5]]},
                     "window": {"depths": [2], "return_max": 2}},
     "group.generators"),
    ("growth", {"group": {"kind": "heisenberg", "generators": [[1, 0, 0]]},
                "window": {"radius": 6}},
     "group.generators"),
    ("ids", {"group": _Z1, "window": {"radius": 5}, "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {
                 "min": 0, "max": 4, "points": 5, "scale": "lin"}}},
     "spectra.energy_grid.scale"),
    ("lamplighter", {"group": {"kind": "lamplighter", "modulus": 2},
                     "window": {"depths": [], "return_max": 27}},
     "window.return_max"),
    ("lamplighter", {"group": {"kind": "lamplighter", "modulus": 46},
                     "window": {"depths": []}},
     "window.return_max"),
    ("exponents", {"group": _Z1, "window": {"radius": 8},
                   "fits": {"growth_n_max": 25}},
     "fits.growth_n_max"),
    ("exponents", {"group": _Z1, "percolation": {"kind": "site", "p": 0}},
     "percolation.p"),
    ("exponents", {"group": _Z1, "percolation": {"kind": "site", "p": 1}},
     "percolation.p"),
    # no energy of the fit range leaves a usable point for the double-log fit
    ("exponents", {"group": _Z1, "percolation": _SITE,
                   "fits": {"lifshitz_range": [1e-9, 2e-9]}},
     "fits.lifshitz_range"),
    ("exponents", {"group": _Z1, "percolation": {"kind": "site", "p": 0.999999}},
     "fits.lifshitz_range"),
    ("ids", {"group": _Z1, "window": {"radius": 5}, "percolation": _SITE,
             "spectra": {"boundary_conditions": [], "n_samples": 10,
                         "energy_grid": {"values": [1.0]}}},
     "spectra.boundary_conditions"),
    ("ids", {"group": _Z1, "window": {"radius": 5}, "percolation": _SITE,
             "spectra": {"boundary_conditions": ["neumann", "neumann"],
                         "n_samples": 10, "energy_grid": {"values": [1.0]}}},
     "spectra.boundary_conditions"),
    # the free IDS of Z^2 is 1 from E = 8 on, so no point of the range is usable
    ("exponents", {"group": _Z2, "fits": {"van_hove_range": [10, 20]}},
     "fits.van_hove_range"),
    # the torus formula is not the IDS of Z with generators +-1, +-2
    ("free-ids", {"group": _Z1_STEPS_1_2,
                  "spectra": {"energy_grid": {"values": [1.0]}}},
     "window.radius"),
    # the sampling key is 64 bits wide: other seeds would alias
    ("ids", {"seed": -1, "group": _Z1, "window": {"radius": 5},
             "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {"values": [1.0]}}},
     "seed"),
    ("ids", {"seed": 2 ** 64 + 1, "group": _Z1, "window": {"radius": 5},
             "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {"values": [1.0]}}},
     "seed"),
    # the shortest line's threshold 2(1 - cos(pi/6)) = 0.268 lies above the
    # Lifshitz range, so the sandwich has no energy to check
    ("exponents", {"group": _Z1, "percolation": _SITE,
                   "fits": {"line_max": 6}},
     "fits.line_max"),
    # the IDS is constant over these ranges: no line to fit, no r2 to write
    ("exponents", {"group": _Z1, "percolation": _SITE,
                   "fits": {"lifshitz_range": [4.5, 5.0]}},
     "fits.lifshitz_range"),
    ("exponents", {"group": _Z1, "percolation": _SITE,
                   "fits": {"lifshitz_range": [1e300, 1e301]}},
     "fits.lifshitz_range"),
    ("exponents", {"group": _Z1, "percolation": {"kind": "site", "p": 0.9},
                   "fits": {"lifshitz_range": [10, 20]}},
     "fits.lifshitz_range"),
])
def test_user_mistake_is_validation_error(tmp_path, capsys, subcommand, body,
                                          key):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", base_config(out, **body))
    assert main([subcommand, "--config", path]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["ids", "chain", "free-ids"])
def test_linear_energy_grid_with_an_overflowing_span_is_refused(
        tmp_path, capsys, subcommand):
    """A linear grid steps by (max - min) / (points - 1), so a span past the
    float64 range would write nan and inf energies; a span just inside it,
    or the same ends on a log scale, pass validation."""
    out = tmp_path / "o"
    body = _BASES[subcommand]

    def with_grid(grid):
        return base_config(out, **{**body, "spectra": {**body["spectra"],
                                                       "energy_grid": grid}})

    path = write_config(tmp_path, "c.json", with_grid(
        {"min": -1e308, "max": 1e308, "points": 5}))
    assert main([subcommand, "--config", path]) == 1
    assert "spectra.energy_grid.max - .min" in capsys.readouterr().err
    assert not out.exists()
    validate_config(with_grid({"min": -8e307, "max": 8e307, "points": 5}),
                    subcommand)
    validate_config(with_grid({"min": 1e-308, "max": 1e308, "points": 5,
                               "scale": "log"}), subcommand)


@pytest.mark.parametrize("key", ["energy_grid.max", "couplings"])
def test_integer_past_the_float64_range_is_refused(tmp_path, capsys, key):
    # json reads a 401-digit number as an int, which no float64 holds
    out = tmp_path / "o"
    spectra_cfg = {**_BASES["chain"]["spectra"]}
    if key == "couplings":
        spectra_cfg["couplings"] = ["HUGE"]
    else:
        spectra_cfg["energy_grid"] = {"min": 0, "max": "HUGE", "points": 5}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(base_config(
        out, **{**_BASES["chain"], "spectra": spectra_cfg})).replace(
            '"HUGE"', "1" + "0" * 400))
    assert main(["chain", "--config", str(path)]) == 1
    assert f"spectra.{key}" in capsys.readouterr().err
    assert not out.exists()


# one small config per subcommand that runs in well under a second
_BASES = {
    "growth": {"group": _Z1, "window": {"radius": 8}},
    "percolate": {"group": _Z1, "window": {"radius": 5},
                  "percolation": {**_SITE, "n_samples": 100, "tail_max": 3}},
    "ids": {"group": _Z1, "window": {"radius": 5}, "percolation": _SITE,
            "spectra": {"n_samples": 10, "energy_grid": {"values": [1.0]}}},
    "free-ids": {"group": _Z1, "window": {"radius": 3},
                 "spectra": {"energy_grid": {"values": [1.0]}}},
    "bounds": {"group": _Z1, "fits": {"dirichlet_n_max": 3, "line_max": 4}},
    "exponents": {"group": _Z1, "percolation": _SITE, "window": {"radius": 8},
                  "fits": {"line_max": 8}},
    "chain": {"group": _Z2, "window": {"radius": 2}, "percolation": _SITE,
              "spectra": {"n_samples": 2, "energy_grid": {"values": [1.0]}}},
    "lamplighter": {"group": {"kind": "lamplighter", "modulus": 2},
                    "window": {"depths": [2], "return_max": 2}},
}

# for every key in the schema, a value it must reject: out of range where the
# key has a range, else of the wrong type
_OUT_OF_RANGE = {
    "seed": 2 ** 64, "workers": 0, "output_dir": 5, "budget_vertices": 0,
    "group.kind": "free", "group.rank": 0, "group.modulus": 1,
    "group.generators": [[1.5]],
    "percolation.kind": "mixed", "percolation.p": 1.5,
    "percolation.tail_max": 0, "percolation.n_samples": 0,
    "window.radius": 0, "window.depth": 0, "window.depths": [1],
    "window.return_max": 0,
    "spectra.boundary_conditions": ["periodic"],
    "spectra.energy_grid.min": float("nan"),
    "spectra.energy_grid.max": float("inf"),
    "spectra.energy_grid.points": 0, "spectra.energy_grid.values": [],
    "spectra.energy_grid.scale": "lin",
    "spectra.n_samples": 0, "spectra.dense_cap": 0, "spectra.couplings": [-1],
    "fits.growth_n_min": -1, "fits.growth_n_max": 0,
    "fits.van_hove_range": [0.1], "fits.lifshitz_range": [0.1, 0.2, 0.3],
    "fits.dirichlet_n_max": 1, "fits.line_max": 1,
}

# of the wrong type for every key; "x" is a fine output_dir
_WRONG_TYPE = [None, True, "x", [None], {"x": 1}]


def _schema_rules(schema, prefix=""):
    for key, rule in schema.items():
        yield prefix + key, rule
        if isinstance(rule, dict):
            yield from _schema_rules(rule, f"{prefix}{key}.")


_RULES = dict(_schema_rules(cli._SCHEMA))
_PATHS = sorted(_RULES)


def test_out_of_range_table_covers_schema():
    leaves = {p for p, rule in _RULES.items() if not isinstance(rule, dict)}
    assert leaves == set(_OUT_OF_RANGE)


def _with(body, path, value):
    cfg = json.loads(json.dumps(body))
    *sections, leaf = path.split(".")
    node = cfg
    for key in sections:
        node = node.setdefault(key, {})
    node[leaf] = value
    return cfg


@pytest.mark.parametrize("subcommand", sorted(_BASES))
def test_base_config_runs(tmp_path, subcommand):
    path = write_config(tmp_path, "c.json",
                        base_config(tmp_path / "o", **_BASES[subcommand]))
    assert main([subcommand, "--config", path]) == 0


@settings(max_examples=150, deadline=None)
@given(subcommand=st.sampled_from(sorted(_BASES)),
       path=st.sampled_from(_PATHS), data=st.data())
def test_one_bad_key_is_validation_error(subcommand, path, data):
    choices = list(_WRONG_TYPE)
    if path in _OUT_OF_RANGE:
        choices.append(_OUT_OF_RANGE[path])
    value = data.draw(st.sampled_from(choices))
    assume(not (path == "output_dir" and isinstance(value, str)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        cfg = _with(base_config(out, **_BASES[subcommand]), path, value)
        config = write_config(Path(tmp), "c.json", cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", config])
        assert code == 1, err.getvalue()
        assert path in err.getvalue()
        assert not out.exists()


@pytest.mark.parametrize("path", sorted(_OUT_OF_RANGE))
def test_every_out_of_range_value_is_rejected(path):
    for subcommand, body in _BASES.items():
        cfg = _with(base_config("o", **body), path, _OUT_OF_RANGE[path])
        with pytest.raises(ValidationError, match=re.escape(path)):
            validate_config(cfg, subcommand)


_ROOT = Path(__file__).resolve().parent.parent
_README = _ROOT / "README.md"


def readme_ids_example() -> dict:
    return json.loads(re.search(r"```json\n(.*?)```", _README.read_text(),
                                re.S).group(1))


def test_readme_ids_example_validates():
    text = _README.read_text()
    example = readme_ids_example()
    cfg, _ = validate_config(example, "ids")
    assert cfg["output_dir"] == example["output_dir"]
    # and the README's key table names every key of the schema
    for path in _PATHS:
        assert f"`{path}`" in text, path


def test_free_ids_respects_dense_cap(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = base_config(out, group=_Z2, window={"radius": 6},
                      spectra={"dense_cap": 5,
                               "energy_grid": {"values": [1.0]}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["free-ids", "--config", path]) == 2
    assert "dense cap 5" in capsys.readouterr().err
    assert not out.exists()


def _over_budget(monkeypatch, out):
    monkeypatch.setenv("PERCOSPEC_BUDGET_VERTICES", "10")
    return base_config(out, group=_Z2, window={"radius": 12})


def test_failed_run_removes_the_directory_it_created(tmp_path, monkeypatch):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", _over_budget(monkeypatch, out))
    assert main(["growth", "--config", path]) == 2
    assert not out.exists()
    assert tmp_path.exists()


def test_failed_run_keeps_what_another_run_wrote_beside_it(tmp_path,
                                                           monkeypatch):
    # the run creates sweep/ for sweep/r1; another run writes sweep/r2 meanwhile
    out, other = tmp_path / "sweep" / "r1", tmp_path / "sweep" / "r2"

    def other_run_then_budget(cfg, group, out):
        other.mkdir()
        (other / "keep.txt").write_text("theirs")
        raise BudgetError("over budget")

    monkeypatch.setitem(cli._SUBCOMMANDS, "growth", other_run_then_budget)
    path = write_config(tmp_path, "c.json",
                        base_config(out, group=_Z1, window={"radius": 8}))
    assert main(["growth", "--config", path]) == 2
    assert not out.exists()
    assert (other / "keep.txt").read_text() == "theirs"


@pytest.mark.parametrize("below", ["", "sub"])
def test_output_dir_that_cannot_be_a_directory(tmp_path, capsys, below):
    # output_dir names an existing file, or a path under one
    afile = tmp_path / "afile"
    afile.write_text("theirs")
    cfg = base_config(afile / below, group=_Z1, window={"radius": 8})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 1
    assert "output_dir" in capsys.readouterr().err
    assert afile.read_text() == "theirs"


def test_exponents_sandwich_reaches_into_the_lifshitz_range(tmp_path):
    # 2(1 - cos(pi/7)) = 0.198 lies just below the range top 0.2
    out = tmp_path / "o"
    cfg = base_config(out, group=_Z1, percolation=_SITE, fits={"line_max": 7})
    assert main(["exponents", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
    sandwich, = [r for r in json.loads((out / "exponents.json").read_text())
                 if r["kind"] == "sandwich-neumann"]
    lo, hi = sandwich["range"]
    assert 2 * (1 - math.cos(math.pi / 7)) <= lo <= hi <= 0.2
    assert sandwich["a"] is not None and sandwich["b"] is not None


def _counted(monkeypatch, modules, name):
    """The calls of ``name`` through each of ``modules`` from now on."""
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_exponents_solves_each_line_once(tmp_path, monkeypatch):
    # the sandwich thresholds and alpha_N read the same 7 Neumann solves
    calls = _counted(monkeypatch, [bounds], "lowest_nonzero")
    cfg = base_config(tmp_path / "o", group=_Z1, percolation=_SITE,
                      fits={"line_max": 8})
    assert main(["exponents", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
    assert len(calls) == 7


def test_chain_solves_the_free_laplacian_once_per_run(tmp_path, monkeypatch):
    calls = _counted(monkeypatch, [operators, spectra], "free_laplacian")
    cfg = base_config(tmp_path / "o", group=_Z2, window={"radius": 3},
                      percolation=_SITE,
                      spectra={"n_samples": 5, "energy_grid": {"values": [1.0, 4.0]}})
    assert main(["chain", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
    assert len(calls) == 1


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def test_percolate_invalid_tail_fit_writes_null(tmp_path):
    # too few clusters reach the tail grid for a fit
    out = tmp_path / "o"
    cfg = base_config(out, group=_Z2, window={"radius": 5},
                      percolation={"kind": "site", "p": 0.2, "n_samples": 100})
    cfg["seed"] = 7
    assert main(["percolate", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
    fit = _strict_json(out / "percolate_report.json")["tau_fit"]
    assert fit["valid"] is False and fit["tau"] is None and fit["r2"] is None


def test_percolate_at_p_one_writes_a_flat_tail(tmp_path):
    # every sample opens the whole window: the log tail is constant, so the
    # decay rate is 0 and R^2 is undefined
    out = tmp_path / "o"
    cfg = base_config(out, group=_Z2, window={"radius": 3},
                      percolation={"kind": "site", "p": 1, "n_samples": 100,
                                   "tail_max": 4})
    assert main(["percolate", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
    fit = _strict_json(out / "percolate_report.json")["tau_fit"]
    assert fit["valid"] is True and fit["r2"] is None
    assert fit["tau"] == 0.0 and math.copysign(1.0, fit["tau"]) == 1.0


_GROUPS = {"Z": _Z1, "Z2": _Z2, "Z+-1+-2": _Z1_STEPS_1_2,
           "heisenberg": {"kind": "heisenberg"},
           "Z2wrZ": {"kind": "lamplighter", "modulus": 2}}


def _smallest_configs():
    """(subcommand, body) pairs at p in {0, 1} and the smallest radii,
    depths, sample counts and line lengths the schema accepts."""
    grid = {"energy_grid": {"values": [0.0, 1.0]}}
    for name, group in _GROUPS.items():
        lamp = group["kind"] == "lamplighter"
        yield "growth", {"group": group, "window": {"radius": 4},
                         "fits": {"growth_n_min": 0}}
        yield "free-ids", {"group": group, "window": {"radius": 1},
                           "spectra": grid}
        yield "bounds", {"group": group, "window": {"depths": [2]},
                         "fits": {"dirichlet_n_max": 2, "line_max": 2}}
        if lamp:
            yield "lamplighter", {"group": group,
                                  "window": {"depths": [2], "return_max": 1}}
        for p in (0, 1):
            for kind in ("site", "bond"):
                perc = {"kind": kind, "p": p}
                yield "percolate", {"group": group, "window": {"radius": 1},
                                    "percolation": {**perc, "n_samples": 100,
                                                    "tail_max": 1}}
                for window in ([{"radius": 1}, {"depth": 1}] if lamp
                               else [{"radius": 1}]):
                    yield "ids", {"group": group, "window": window,
                                  "percolation": perc,
                                  "spectra": {"n_samples": 10, **grid}}
            yield "chain", {"group": group, "window": {"radius": 1},
                            "percolation": {"kind": "site", "p": p},
                            "spectra": {"n_samples": 1, **grid}}
            yield "exponents", {"group": group, "window": {"radius": 4},
                                "percolation": {"kind": "site", "p": p},
                                "fits": {"growth_n_min": 0, "line_max": 2}}


def test_smallest_configs_exit_cleanly_with_strict_json(tmp_path):
    """Exit codes 0-2 only, never an internal error or an oracle violation,
    and every JSON file a run leaves behind is strict."""
    seen = set()
    for i, (subcommand, body) in enumerate(_smallest_configs()):
        out = tmp_path / str(i)
        path = write_config(tmp_path, f"{i}.json", base_config(out, **body))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", path])
        assert code in (0, 1, 2), (subcommand, body, err.getvalue())
        for f in out.glob("*.json") if out.exists() else ():
            _strict_json(f)
        seen.add((subcommand, code))
    # percolate at p = 1 runs through to its report
    assert ("percolate", 0) in seen


def _edge_value_configs():
    """``(subcommand, body)`` params with values that pass every key check
    but sit at the edges of what a run can use: fit ranges below, inside,
    across the top of and above the spectrum of Z^d (which ends at 4d),
    energy grids at +-1e308, and couplings of 1e300."""
    spans = {"below": [1e-300, 1e-299], "low": [1e-3, 1e-1],
             "inside": [0.5, 1.5], "top": [3.0, 30.0], "above": [30.0, 40.0],
             "far": [1e300, 1e301]}
    for name, span in spans.items():
        for rank in (1, 2, 3):
            yield pytest.param("exponents", {
                "group": {"kind": "free_abelian", "rank": rank},
                "window": {"radius": 8}, "fits": {"van_hove_range": span}},
                id=f"van_hove-{name}-Z{rank}")
        for p in (0.1, 0.5, 0.9):
            yield pytest.param("exponents", {
                "group": _Z1, "percolation": {"kind": "site", "p": p},
                "window": {"radius": 8},
                "fits": {"lifshitz_range": span, "line_max": 8}},
                id=f"lifshitz-{name}-p{p}")
    grids = {"values": {"values": [-1e308, 0.0, 1e308]},
             "linear": {"min": -1e308, "max": 0.0, "points": 3},
             "log": {"min": 1e-308, "max": 1e308, "points": 3, "scale": "log"}}
    for name, grid in grids.items():
        yield pytest.param("ids", {
            "group": _Z2, "window": {"radius": 3}, "percolation": _SITE,
            "spectra": {"n_samples": 10, "energy_grid": grid}}, id=f"ids-{name}")
        yield pytest.param("free-ids", {
            "group": _Z2, "window": {"radius": 3},
            "spectra": {"energy_grid": grid}}, id=f"free-ids-{name}")
        yield pytest.param("chain", {
            "group": _Z2, "window": {"radius": 2}, "percolation": _SITE,
            "spectra": {"n_samples": 2, "energy_grid": grid,
                        "couplings": [0, 1e300]}}, id=f"chain-{name}")
    yield pytest.param("chain", {
        "group": _Z2, "window": {"radius": 2}, "percolation": _SITE,
        "spectra": {"n_samples": 2, "energy_grid": {"values": [0.0, 1.0, 1e300]},
                    "couplings": [1e300]}}, id="chain-couplings")


@pytest.mark.parametrize("subcommand,body", _edge_value_configs())
def test_edge_values_exit_cleanly_with_strict_json(tmp_path, subcommand, body):
    """Never an internal error: exit 0 with strict JSON, or 1 or 2 with no
    output directory."""
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", base_config(out, **body))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([subcommand, "--config", path])
    assert code in (0, 1, 2), err.getvalue()
    assert out.exists() == (code == 0), err.getvalue()
    for f in out.glob("*.json"):
        _strict_json(f)


def _near_budget_configs():
    """(subcommand, body) for every ball-reading subcommand on Z, Z^2,
    Heisenberg and Z_2 wr Z at small sizes; lamplighter bounds read no ball."""
    grid = {"energy_grid": {"values": [0.0, 1.0]}}
    site = {"kind": "site", "p": 0.7}
    for group in (_Z1, _Z2, _HEISENBERG, {"kind": "lamplighter", "modulus": 2}):
        lamp = group["kind"] == "lamplighter"
        yield "growth", {"group": group, "window": {"radius": 4},
                         "fits": {"growth_n_min": 0}}
        yield "percolate", {"group": group, "window": {"radius": 2},
                            "percolation": {**site, "n_samples": 100,
                                            "tail_max": 1}}
        for window in [{"radius": 2}] + ([{"depth": 1}] if lamp else []):
            yield "ids", {"group": group, "window": window, "percolation": site,
                          "spectra": {"n_samples": 10, **grid}}
        if not lamp:
            yield "bounds", {"group": group,
                             "fits": {"dirichlet_n_max": 2, "line_max": 2}}
        yield "exponents", {"group": group, "window": {"radius": 4},
                            "percolation": site,
                            "fits": {"growth_n_min": 0, "line_max": 8}}
        yield "chain", {"group": group, "window": {"radius": 1},
                        "percolation": site, "spectra": {"n_samples": 2, **grid}}
        yield "free-ids", {"group": group, "window": {"radius": 1},
                           "spectra": grid}


def test_budgets_at_the_ball_and_the_largest_component(tmp_path, monkeypatch):
    """``budget_vertices`` = |B(r)| of the run's ball runs and one less exits
    2; so does ``spectra.dense_cap`` at the largest component a run solves
    (the ball itself for free-ids).  Never exit 4, and only strict JSON."""
    sizes = {}
    enumerate_ball, block_eigenvalues = cayley.enumerate_ball, spectra.block_eigenvalues

    def ball_spy(spec, n, budget=None):
        ball = enumerate_ball(spec, n, budget)
        sizes["ball"] = len(ball)
        return ball

    def block_spy(op, dense_cap=spectra.DENSE_CAP, shifts=None):
        labels = csgraph.connected_components(op.matrix, directed=False)[1]
        sizes["component"] = max(sizes.get("component", 0),
                                 int(np.bincount(labels, minlength=1).max()))
        return block_eigenvalues(op, dense_cap, shifts)

    for module in (cayley, bounds, percolation, spectra):
        if getattr(module, "enumerate_ball", None) is enumerate_ball:
            monkeypatch.setattr(module, "enumerate_ball", ball_spy)
    monkeypatch.setattr(spectra, "block_eigenvalues", block_spy)
    for i, (subcommand, body) in enumerate(_near_budget_configs()):
        def run(tag, **extra):
            out = tmp_path / f"{i}{tag}"
            cfg = base_config(out, **{**body, **extra})
            path = write_config(tmp_path, f"{i}{tag}.json", cfg)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([subcommand, "--config", path])
            for f in out.glob("*.json") if out.exists() else ():
                _strict_json(f)
            return code, out, (subcommand, body, tag, err.getvalue())

        sizes.clear()
        code, _, case = run("free")
        assert code == 0, case
        ball = sizes["ball"]
        biggest = ball if subcommand == "free-ids" else sizes.get("component")
        runs = [("budget", {"budget_vertices": ball}, 0),
                ("under", {"budget_vertices": ball - 1}, 2)]
        if subcommand in ("ids", "chain", "free-ids"):
            assert biggest >= 2, case
            caps = {**body["spectra"], "dense_cap": biggest}
            runs += [("cap", {"spectra": caps}, 0),
                     ("below", {"spectra": {**caps, "dense_cap": biggest - 1}}, 2)]
        for tag, extra, want in runs:
            code, out, case = run(tag, **extra)
            assert code == want, case
            assert out.exists() == (want == 0), case


def test_write_json_refuses_non_finite_numbers(tmp_path):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "r.json", {"x": value})


def test_van_hove_fit_drops_the_clamped_top_of_its_range(tmp_path):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        base_config(out, group=_Z2,
                                    fits={"van_hove_range": [5, 20]}))
    assert main(["exponents", "--config", path]) == 0
    fit = json.loads((out / "exponents.json").read_text())[1]
    assert fit["kind"] == "van-hove"
    assert fit["range"][0] == 5 and fit["range"][1] < 8
    # the manifest says which points the fit dropped
    notes = json.loads((out / "manifest.json").read_text())["van_hove"]
    assert notes["flags"] == ["range-shrunk-values-at-one"]
    assert notes["n_points"] < 20


@pytest.mark.parametrize("rank,van_hove_range", [
    (3, None), (4, None), (3, [0.003, 0.0031])], ids=["Z3", "Z4", "Z3-narrow"])
def test_exponents_van_hove_slope_on_z3_and_z4(tmp_path, rank, van_hove_range):
    # N_d is of order E^(d/2) near 0: on the default range [1e-3, 0.1], and
    # on a narrow one, every point is fitted and the slope is d/2
    out = tmp_path / "o"
    fits = {"van_hove_range": van_hove_range} if van_hove_range else {}
    lo, hi = van_hove_range or (1e-3, 0.1)
    path = write_config(tmp_path, "c.json", base_config(
        out, group={"kind": "free_abelian", "rank": rank}, window={"radius": 8},
        fits=fits))
    assert main(["exponents", "--config", path]) == 0
    fit = json.loads((out / "exponents.json").read_text())[1]
    assert fit["kind"] == "van-hove"
    assert fit["slope"] == pytest.approx(rank / 2, abs=0.02)
    assert fit["range"] == [lo, pytest.approx(hi)]
    notes = json.loads((out / "manifest.json").read_text())["van_hove"]
    assert notes == {"n_points": 20, "flags": []}


@pytest.mark.parametrize("generators,torus", [
    ([[0, -1], [1, 0], [0, 1], [-1, 0]], True),
    ([[1, 0], [-1, 0], [1, 1], [-1, -1]], False)])
def test_free_ids_torus_values_need_the_standard_generators(tmp_path, generators,
                                                           torus):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", base_config(
        out, group={**_Z2, "generators": generators}, window={"radius": 2},
        spectra={"energy_grid": {"values": [1.0, 4.0]}}))
    assert main(["free-ids", "--config", path]) == 0
    assert (out / "free_ids.csv").exists() == torus
    assert (out / "free_ids_ball.csv").exists()


def test_exponents_skips_torus_and_line_fits_for_other_generators(tmp_path):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", base_config(
        out, group=_Z1_STEPS_1_2, percolation=_SITE, window={"radius": 12},
        fits={"line_max": 8}))
    assert main(["exponents", "--config", path]) == 0
    reports = json.loads((out / "exponents.json").read_text())
    assert [r["kind"] for r in reports] == ["growth"]


def test_exponents_reads_growth_n_max_and_ignores_depth(tmp_path):
    # window.depth is an ids key; exponents never reads it
    cfg = base_config("o", group=_Z1, window={"radius": 8, "depth": 2})
    assert validate_config(cfg, "exponents")[0]["window"] == {"radius": 8, "depth": 2}
    # the growth fit stops at fits.growth_n_max, as it does for growth
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        base_config(out, group=_Z2, window={"radius": 12},
                                    fits={"growth_n_max": 9}))
    assert main(["exponents", "--config", path]) == 0
    growth = json.loads((out / "exponents.json").read_text())[0]
    assert growth["kind"] == "growth" and growth["range"] == [4, 9]


@pytest.mark.parametrize("modulus,largest", [(2, 26), (3, 20), (5, 15),
                                             (46, 7)])
def test_return_max_limit_depends_on_modulus(modulus, largest):
    group = {"kind": "lamplighter", "modulus": modulus}
    for return_max in (1, largest):
        validate_config(base_config("o", group=group, window={
            "depths": [], "return_max": return_max}), "lamplighter")
    with pytest.raises(ValidationError, match=rf"^window.return_max is "
                                              rf"{largest + 1}, .* n = {largest}$"):
        validate_config(base_config("o", group=group, window={
            "depths": [], "return_max": largest + 1}), "lamplighter")
    if largest < 8:
        with pytest.raises(ValidationError,
                           match=rf"window.return_max is 8 \(the default\), .* "
                                 rf"n = {largest}$"):
            validate_config(base_config("o", group=group), "lamplighter")


def test_failed_run_keeps_an_existing_directory(tmp_path, monkeypatch):
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("mine")
    path = write_config(tmp_path, "c.json", _over_budget(monkeypatch, out))
    assert main(["growth", "--config", path]) == 2
    assert (out / "keep.txt").read_text() == "mine"


def _files(directory):
    return {f.name: f.read_bytes() for f in directory.iterdir()}


def test_failed_rerun_leaves_the_earlier_run_and_no_temporary_directory(
        tmp_path, monkeypatch):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        base_config(out, group=_Z1, window={"radius": 8}))
    assert main(["growth", "--config", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["output_dir"] == str(out)
    before = _files(out)

    def write_then_fail(cfg, group, work):
        (work / "growth.csv").write_text("partial")
        raise BudgetError("over budget")

    monkeypatch.setitem(cli._SUBCOMMANDS, "growth", write_then_fail)
    assert main(["growth", "--config", path]) == 2
    assert _files(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "o"]


def test_rerun_replaces_its_files_and_keeps_the_others(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("mine")
    (out / "growth.csv").write_text("stale")
    cfg = base_config(out, group=_Z1, window={"radius": 8})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 0
    fresh = tmp_path / "fresh"
    assert main(["growth", "--config", path, "--out", str(fresh)]) == 0
    assert (out / "keep.txt").read_text() == "mine"
    assert (out / "growth.csv").read_bytes() == (fresh / "growth.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "fresh", "o"]
    # a new output directory gets the permissions mkdir gives
    probe = tmp_path / "probe"
    probe.mkdir()
    assert fresh.stat().st_mode == probe.stat().st_mode


def test_cli_import_skips_stats_and_integrate():
    src = str(Path(percospec.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import percospec.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate', "
            "'numpy.polynomial') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_growth_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "free_abelian", "rank": 2},
                      window={"radius": 20}, fits={"growth_n_min": 8})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["growth", "--config", path]) == 0
    fit = json.loads((out / "growth_fit.json").read_text())
    assert fit["classification"] == "polynomial"
    assert abs(fit["loglog"]["slope"] - 2.0) < 0.1
    lines = (out / "growth.csv").read_text().strip().splitlines()
    assert lines[0] == "n,volume"
    assert lines[1] == "0,1"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "growth"
    assert "growth.csv" in manifest["outputs"]


def test_percolate_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "free_abelian", "rank": 1},
                      percolation={"kind": "site", "p": 0.5,
                                   "n_samples": 200, "tail_max": 6},
                      window={"radius": 60})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["percolate", "--config", path]) == 0
    lines = (out / "tail.csv").read_text().strip().splitlines()
    assert lines[0] == "n,tail,stderr"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5", "6"]
    rep = json.loads((out / "percolate_report.json").read_text())
    assert abs(rep["deleted_density"]["value"] - 0.5) < 0.05
    assert rep["deleted_density_expected"] == 0.5


def test_ids_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(
        out, group={"kind": "free_abelian", "rank": 1},
        percolation={"kind": "site", "p": 0.5},
        window={"radius": 40},
        spectra={"boundary_conditions": ["neumann"], "n_samples": 20,
                 "energy_grid": {"min": 0.0, "max": 4.0, "points": 5}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["ids", "--config", path]) == 0
    lines = (out / "ids_neumann.csv").read_text().strip().splitlines()
    assert lines[0] == "E,mean,stderr,n_samples,bc,model,p,radius,seed"
    assert len(lines) == 6
    rep = json.loads((out / "ids_report.json").read_text())
    assert abs(rep["neumann"]["n_at_zero"] - 0.25) < 0.05


def test_free_ids_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(
        out, group={"kind": "free_abelian", "rank": 1},
        spectra={"energy_grid": {"values": [0.5, 2.0]}},
        window={"radius": 30})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["free-ids", "--config", path]) == 0
    lines = (out / "free_ids.csv").read_text().strip().splitlines()
    assert lines[2].startswith("2,0.5")
    assert (out / "free_ids_ball.csv").exists()


def test_bounds_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "free_abelian", "rank": 2},
                      fits={"dirichlet_n_max": 5, "line_max": 16})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["bounds", "--config", path]) == 0
    rep = json.loads((out / "bounds_report.json").read_text())
    assert rep["dirichlet_upper"]["constants"]["gamma_D"] > 0
    assert rep["adjacency_lower_balls"]["violations"] == 0


def test_exponents_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "free_abelian", "rank": 1},
                      percolation={"kind": "site", "p": 0.5},
                      window={"radius": 30},
                      fits={"growth_n_min": 8, "line_max": 48})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["exponents", "--config", path]) == 0
    reports = json.loads((out / "exponents.json").read_text())
    kinds = {r["kind"] for r in reports}
    assert {"growth", "van-hove", "lifshitz-neumann",
            "sandwich-neumann", "lifshitz-adjacency"} <= kinds
    by_kind = {r["kind"]: r for r in reports}
    assert abs(by_kind["van-hove"]["slope"] - 0.5) < 0.02
    assert by_kind["sandwich-neumann"]["a"] > 0


def test_chain_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(
        out, group={"kind": "free_abelian", "rank": 2},
        percolation={"kind": "site", "p": 0.5},
        window={"radius": 4},
        spectra={"n_samples": 10, "couplings": [1, 10],
                 "energy_grid": {"min": 0.0, "max": 9.0, "points": 10}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["chain", "--config", path]) == 0
    rep = json.loads((out / "chain_report.json").read_text())
    assert rep["per_sample_ordering_holds"]
    assert rep["ordering_violations"] == 0


def test_lamplighter_artifacts(tmp_path):
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2},
                      window={"depths": [2, 3], "return_max": 4})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["lamplighter", "--config", path]) == 0
    rep = json.loads((out / "lamplighter_report.json").read_text())
    assert rep["return_probability"]["first_value"] == 0.25
    assert rep["return_probability"]["neg_log_increasing"]
    assert rep["tetrahedron"]["2"]["eigenvalue_gap"] <= 1e-8


def count_enumerations(monkeypatch):
    """Record the radius of every ball enumeration, whichever module calls it."""
    radii = []
    original = cayley.enumerate_ball

    def counting(spec, n, budget=None):
        radii.append(n)
        return original(spec, n, budget)

    for module in (cayley, bounds, percolation, spectra):
        if getattr(module, "enumerate_ball", None) is original:
            monkeypatch.setattr(module, "enumerate_ball", counting)
    return radii


_HEISENBERG = {"kind": "heisenberg"}


@pytest.mark.parametrize("subcommand,body,radius", [
    ("growth", _BASES["growth"], 8),
    ("percolate", _BASES["percolate"], 5),
    ("free-ids", _BASES["free-ids"], 3),
    ("chain", _BASES["chain"], 2),
    # the ball family, phi and the Dirichlet check read B(16), the lines
    # of up to 64 vertices B(34)
    ("bounds", {"group": _Z2, "fits": {"dirichlet_n_max": 3}}, 34),
    ("bounds", {"group": _HEISENBERG, "fits": {"dirichlet_n_max": 3}}, 16),
    ("exponents", {**_BASES["exponents"], "fits": {"line_max": 64}}, 34),
    ("exponents", _BASES["exponents"], 8),
])
def test_each_run_enumerates_one_ball(tmp_path, monkeypatch, subcommand, body,
                                      radius):
    radii = count_enumerations(monkeypatch)
    path = write_config(tmp_path, "c.json", base_config(tmp_path / "o", **body))
    assert main([subcommand, "--config", path]) == 0
    assert radii == [radius]


@pytest.mark.parametrize("subcommand", ["lamplighter", "bounds"])
def test_tetrahedra_share_one_ball(tmp_path, monkeypatch, subcommand):
    radii = count_enumerations(monkeypatch)
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2},
                      window={"depths": [4, 2, 3], "return_max": 2})
    path = write_config(tmp_path, "c.json", cfg)
    assert main([subcommand, "--config", path]) == 0
    # the tetrahedra need no ball; lamplighter's walks need B(return_max)
    assert radii == ([2] if subcommand == "lamplighter" else [])
    name = ("lamplighter_report.json" if subcommand == "lamplighter"
            else "bounds_report.json")
    tets = json.loads((out / name).read_text())["tetrahedron"]
    assert sorted(tets) == ["2", "3", "4"]
    assert all(t["vertex_count"] == t["expected_count"] for t in tets.values())


@pytest.mark.parametrize("depths,return_max,radius", [([2], 4, 4), ([2], 6, 6),
                                                      ([], 3, 3), ([3], 2, 2)])
def test_lamplighter_walks_share_the_ball(tmp_path, monkeypatch, depths,
                                          return_max, radius):
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2},
                      window={"depths": depths, "return_max": return_max})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["lamplighter", "--config", path]) == 0
    expected = (out / "return_probability.csv").read_text()
    radii = count_enumerations(monkeypatch)
    assert main(["lamplighter", "--config", path]) == 0
    assert radii == [radius]
    assert (out / "return_probability.csv").read_text() == expected
    rows = [line.split(",") for line in expected.splitlines()[1:]]
    group = cayley.GroupSpec.lamplighter(2)
    assert [float(v) for _, _, v in rows] == [
        spectra.return_probability(cayley.enumerate_ball(group, n), n).value
        for n in range(1, return_max + 1)]


@pytest.mark.parametrize("window", [{"radius": 6}, {"depth": 2}])
def test_ids_enumerates_one_ball(tmp_path, monkeypatch, window):
    radii = count_enumerations(monkeypatch)
    out = tmp_path / "o"
    group = ({"kind": "free_abelian", "rank": 2} if "radius" in window
             else {"kind": "lamplighter", "modulus": 2})
    cfg = base_config(out, group=group, window=window,
                      percolation={"kind": "site", "p": 0.5},
                      spectra={"n_samples": 10,
                               "energy_grid": {"min": 0.0, "max": 4.0,
                                               "points": 3}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["ids", "--config", path]) == 0
    # samples live on B(radius + 1), or on B(2 depth + 1) around the tetrahedron
    assert radii == [7 if "radius" in window else 5]
    assert sorted(json.loads((out / "ids_report.json").read_text())) == \
        ["adjacency", "dirichlet", "neumann"]


def test_ids_draws_each_sample_once(tmp_path, monkeypatch):
    drawn = []
    draw = spectra.sample

    def recording_sample(model, ball, index):
        drawn.append(index)
        return draw(model, ball, index)

    monkeypatch.setattr(spectra, "sample", recording_sample)
    out = tmp_path / "o"
    cfg = base_config(out, group=_Z2, window={"radius": 3},
                      percolation={"kind": "bond", "p": 0.5},
                      spectra={"boundary_conditions": ["dirichlet", "neumann",
                                                       "adjacency"],
                               "n_samples": 10,
                               "energy_grid": {"values": [1.0, 4.0]}})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["ids", "--config", path]) == 0
    assert drawn == list(range(10))


@pytest.mark.parametrize("subcommand", ["lamplighter", "bounds"])
def test_no_tetrahedron_depths(tmp_path, subcommand):
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2},
                      window={"depths": [], "return_max": 2})
    path = write_config(tmp_path, "c.json", cfg)
    assert main([subcommand, "--config", path]) == 0
    name = ("lamplighter_report.json" if subcommand == "lamplighter"
            else "bounds_report.json")
    assert json.loads((out / name).read_text())["tetrahedron"] == {}


@pytest.mark.parametrize("subcommand,m,depth", [
    ("lamplighter", 2, 30), ("lamplighter", 3, 11), ("lamplighter", 2, 1),
    ("bounds", 3, 11), ("bounds", 2, 17), ("bounds", 2, 1),
    ("lamplighter", 3, 10 ** 5), ("lamplighter", 3, 10 ** 9),
    ("bounds", 3, 10 ** 5), ("bounds", 3, 10 ** 9)])
def test_tetrahedron_depths_near_the_vertex_budget(tmp_path, capsys,
                                                   subcommand, m, depth):
    # (3, 11) has 2,125,764 vertices and (2, 17) 2,359,296, just over the
    # default vertex budget of 2,000,000; depth 1 is a user's mistake; the
    # count of depth 10^5 has more digits than Python prints
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": m},
                      window={"depths": [depth], "return_max": 2})
    path = write_config(tmp_path, "c.json", cfg)
    started = time.perf_counter()
    code = main([subcommand, "--config", path])
    # refused from the vertex count, before any tetrahedron is built
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    if depth < bounds.MIN_TETRAHEDRON_DEPTH:
        assert code == 1 and "window.depths" in err
    else:
        assert code == 2 and f"depth-{depth} tetrahedron" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand,extra", [
    ("growth", {"window": {"radius": 10 ** 6}}),
    ("growth", {"window": {"radius": 10 ** 18}}),
    ("ids", {"window": {"depth": 10 ** 6}, "percolation": _SITE,
             "spectra": {"n_samples": 10, "energy_grid": {"values": [1.0]}}})],
    ids=["growth-1e6", "growth-1e18", "ids-depth-1e6"])
def test_huge_lamplighter_radius_is_refused_before_its_layout(
        tmp_path, capsys, monkeypatch, subcommand, extra):
    # B(n) holds the 2n + 1 powers of a walker step, past the budget here,
    # so the layout's O(n) columns are never listed
    def no_layout(*args):
        raise AssertionError("the layout was built")

    monkeypatch.setattr(cayley, "_layout", no_layout)
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2}, **extra)
    started = time.perf_counter()
    assert main([subcommand, "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert time.perf_counter() - started < 1.0
    assert "walker positions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["lamplighter", "bounds"])
def test_tetrahedron_neighbour_keys_over_the_budget(tmp_path, capsys,
                                                    subcommand):
    # Z_816 wr Z at depth 2: 1,997,568 vertices, under the vertex budget,
    # and 1.1e9 edges, over the edge budget
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 816},
                      window={"depths": [2], "return_max": 2})
    path = write_config(tmp_path, "c.json", cfg)
    started = time.perf_counter()
    assert main([subcommand, "--config", path]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert "depth-2 tetrahedron" in err and "edges" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["lamplighter", "bounds"])
def test_every_depth_is_sized_before_the_first_check(tmp_path, capsys,
                                                     monkeypatch, subcommand):
    # depths 2-5 on Z_5 wr Z run, depth 8 (3,515,625 vertices) is above the
    # vertex budget
    def no_check(m, n):
        raise AssertionError("a tetrahedron was checked")

    monkeypatch.setattr(bounds, "tetrahedron_checks", no_check)
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 5},
                      window={"depths": [2, 3, 4, 5, 8]})
    path = write_config(tmp_path, "c.json", cfg)
    started = time.perf_counter()
    assert main([subcommand, "--config", path]) == 2
    assert time.perf_counter() - started < 1.0
    assert "depth-8 tetrahedron" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["lamplighter", "bounds"])
def test_manifest_records_the_tetrahedron_solves(tmp_path, subcommand):
    out = tmp_path / "o"
    # 12 vertices at depth 2, 448 at depth 6
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2},
                      window={"depths": [6, 2], "return_max": 2})
    path = write_config(tmp_path, "c.json", cfg)
    assert main([subcommand, "--config", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tetrahedron_solves"] == {"2": "full", "6": "certificate"}


def test_wide_eigenspace_takes_the_certificate(tmp_path):
    # Z_31 wr Z at depth 2: 2883 vertices, 2761 of them in the eigenspace
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 31},
                      window={"depths": [2]})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["bounds", "--config", path]) == 0
    tet = json.loads((out / "bounds_report.json").read_text())["tetrahedron"]
    assert tet["2"]["eigenspace_dim"] == 2761
    assert tet["2"]["boundary_ratio"] == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tetrahedron_solves"] == {"2": "certificate"}


def test_lamplighter_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the lamplighter-m3 benchmark config, run in fresh interpreters
    src = str(Path(percospec.__file__).resolve().parent.parent)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        path = write_config(tmp_path, f"t{threads}.json", base_config(
            out, group={"kind": "lamplighter", "modulus": 3},
            window={"depths": [2, 3, 4, 5], "return_max": 4}))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "percospec.cli", "lamplighter",
                        "--config", path], env=env, timeout=300, check=True)
        reports.append([(out / name).read_bytes() for name in (
            "lamplighter_report.json", "return_probability.csv")])
    assert reports[0] == reports[1]


# Runs argv and prints its exit code and wait4 peak RSS (KiB on Linux).  A
# child spawned by the test process itself would report this process's
# high-water mark, which the kernel carries across the child's exec.  The
# child's address space is capped at 3 GB, so that a run that would exhaust
# the machine fails fast instead.
_WAIT4_LAUNCHER = """
import os, resource, subprocess, sys
cap = 3 * 1024 ** 3
proc = subprocess.Popen(sys.argv[1:], preexec_fn=lambda: resource.setrlimit(
    resource.RLIMIT_AS, (cap, cap)))
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run_measured(tmp_path, subcommand, cfg):
    """Exit code, peak RSS in KiB and stderr of a CLI run in a fresh interpreter."""
    src = str(Path(percospec.__file__).resolve().parent.parent)
    path = write_config(tmp_path, "c.json", cfg)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _WAIT4_LAUNCHER, sys.executable, "-m",
         "percospec.cli", subcommand, "--config", path],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    code, peak_kib = map(int, done.stdout.split())
    return code, peak_kib, done.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_tetrahedron_near_the_budget_runs_in_little_memory(tmp_path):
    # Z_3 wr Z at depth 9 has 196,830 vertices, one int64 key each on the
    # tetrahedron's own layout
    code, peak_kib, _ = _run_measured(tmp_path, "bounds", base_config(
        tmp_path / "o", group={"kind": "lamplighter", "modulus": 3},
        window={"depths": [9]}))
    assert code == 0
    assert peak_kib < 400 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_largest_accepted_tetrahedron_runs_in_bounded_memory(tmp_path):
    # Z_125 wr Z at depth 2, the largest m under the edge budget: 46,875
    # vertices and 3,906,250 edges.  It peaked at 314 MB (Linux, Python
    # 3.11, numpy 2.4); the bound keeps the headroom of the depth-9 Z_3 test
    # above, whose run peaked at 86 MB under its 400 MB bound
    code, peak_kib, _ = _run_measured(tmp_path, "bounds", base_config(
        tmp_path / "o", group={"kind": "lamplighter", "modulus": 125},
        window={"depths": [2]}))
    assert code == 0
    assert peak_kib < 850 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("rank,peak_mb", [(28, 400), (40, None)])
def test_multi_word_balls_run_in_bounded_memory(tmp_path, rank, peak_mb):
    # B(3) of Z^28 (30,913 vertices) has two-word keys, and that of Z^40
    # (88,641 vertices) three; keys of 8 bytes per column would need 1.5 GB
    # and 2.1 GB for their neighbours
    code, peak_kib, _ = _run_measured(tmp_path, "percolate", base_config(
        tmp_path / "o", group={"kind": "free_abelian", "rank": rank},
        window={"radius": 3}, percolation={**_SITE, "n_samples": 100}))
    assert code == 0
    assert peak_mb is None or peak_kib < peak_mb * 1024


_Z = {"kind": "free_abelian", "rank": 1}
_HUGE_GRID = {"n_samples": 10, "energy_grid": {"min": 0.0, "max": 4.0,
                                               "points": 10 ** 12}}


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the child")
@pytest.mark.parametrize("subcommand,extra", [
    # key digits past int64: V(8) came out 16, or a non-finite growth fit
    ("growth", {"group": {**_Z, "generators": [[2 ** 60], [-2 ** 60]]},
                "window": {"radius": 8}}),
    ("ids", {"group": _Z, "percolation": _SITE, "window": {"radius": 10 ** 19},
             "spectra": {"n_samples": 10, "energy_grid": {"values": [1.0]}}}),
    ("bounds", {"group": _Z, "fits": {"dirichlet_n_max": 10 ** 19}}),
    # allocations past the address space
    ("ids", {"group": _Z, "percolation": _SITE, "window": {"radius": 10},
             "spectra": _HUGE_GRID}),
    ("free-ids", {"group": _Z, "spectra": _HUGE_GRID}),
    ("percolate", {"group": _Z, "percolation": {**_SITE, "tail_max": 10 ** 12},
                   "window": {"radius": 10}}),
], ids=["growth-2^60", "ids-radius", "bounds-n_max", "ids-points",
        "free-ids-points", "percolate-tail_max"])
def test_overflows_and_exhausted_memory_exit_2(tmp_path, subcommand, extra):
    out = tmp_path / "o"
    code, _, _ = _run_measured(tmp_path, subcommand, base_config(out, **extra))
    assert code == 2
    assert not out.exists()


def test_vertex_budget_counts_key_words(tmp_path, capsys):
    # Z^28 B(2) has 1625 vertices on two-word keys, so it counts 3250
    for budget, want in ((3250, 0), (3249, 2)):
        out = tmp_path / str(budget)
        cfg = base_config(out, group={"kind": "free_abelian", "rank": 28},
                          window={"radius": 2}, percolation=_SITE,
                          budget_vertices=budget)
        path = write_config(tmp_path, f"{budget}.json", cfg)
        assert main(["percolate", "--config", path]) == want
        assert out.exists() == (want == 0)
    assert "vertex budget of 3249 vertices" in capsys.readouterr().err


def test_many_word_ball_is_refused_fast(tmp_path, capsys):
    # Z^100 B(3) has 1,353,601 vertices, under the vertex budget, but on
    # six-word keys it counts 8,121,606
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "free_abelian", "rank": 100},
                      window={"radius": 3}, percolation=_SITE)
    start = time.perf_counter()
    assert main(["percolate", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert time.perf_counter() - start < 10
    assert not out.exists()
    assert "6-word keys" in capsys.readouterr().err


def test_vertex_budget_bounds_balls_not_tetrahedra(tmp_path, monkeypatch):
    monkeypatch.setenv("PERCOSPEC_BUDGET_VERTICES", "10")
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2},
                      window={"depths": [2, 3]})
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["bounds", "--config", path]) == 0
    tets = json.loads((out / "bounds_report.json").read_text())["tetrahedron"]
    assert [t["vertex_count"] for t in tets.values()] == [12, 32]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("group", [
    {"kind": "free_abelian", "rank": 10 ** 9},
    {"kind": "free_abelian", "rank": 10 ** 5},
    # B(1) has 10,401 vertices on 193-word keys: 2,007,393, just past the budget
    {"kind": "free_abelian", "rank": 5200},
    {"kind": "lamplighter", "modulus": 10 ** 19},
], ids=["rank-1e9", "rank-1e5", "rank-5200", "modulus-1e19"])
def test_huge_default_generator_sets_are_refused_unbuilt(tmp_path, group):
    out = tmp_path / "o"
    code, peak_kib, err = _run_measured(tmp_path, "growth", base_config(
        out, group=group, window={"radius": 8}))
    assert code == 2
    assert not out.exists()
    assert peak_kib < 200 * 1024
    assert "vertex budget of 2000000 vertices" in err and "out of memory" not in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _run_twice(tmp_path, subcommand, cfg_body, files):
    outs = []
    for tag, workers in (("a", 1), ("b", 8)):
        out = tmp_path / tag
        cfg = base_config(out, **cfg_body)
        cfg["workers"] = workers
        path = write_config(tmp_path, f"{tag}.json", cfg)
        assert main([subcommand, "--config", path]) == 0
        outs.append(out)
    for name in files:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between workers 1 and 8"


def test_ids_byte_determinism_across_workers(tmp_path, monkeypatch):
    _run_twice(tmp_path, "ids",
               dict(group={"kind": "free_abelian", "rank": 1},
                    percolation={"kind": "site", "p": 0.5},
                    window={"radius": 30},
                    spectra={"boundary_conditions": ["neumann", "adjacency"],
                             "n_samples": 16,
                             "energy_grid": {"min": 0.0, "max": 4.0,
                                             "points": 5}}),
               ["ids_neumann.csv", "ids_adjacency.csv",
                "ids_neumann_bracket.csv", "ids_report.json"])
    # Z^2 bond past p_c: giant clusters reduced in band form, each worker
    # ordering them by the band_rank of its own copy of the ball
    banded = []
    band = spectra._band_tridiagonal

    def spy(op, members):
        tridiagonal = band(op, members)
        banded.append(tridiagonal is not None)
        return tridiagonal

    monkeypatch.setattr(spectra, "_band_tridiagonal", spy)
    z2 = tmp_path / "z2"
    z2.mkdir()
    _run_twice(z2, "ids",
               dict(group={"kind": "free_abelian", "rank": 2},
                    percolation={"kind": "bond", "p": 0.6},
                    window={"radius": 14},
                    spectra={"boundary_conditions": ["neumann", "adjacency",
                                                     "dirichlet"],
                             "n_samples": 16,
                             "energy_grid": {"min": 0.0, "max": 8.0,
                                             "points": 33}}),
               ["ids_neumann.csv", "ids_adjacency.csv", "ids_dirichlet.csv",
                "ids_dirichlet_bracket.csv", "ids_report.json"])
    # the workers=1 run solves in this process: a giant in every sample
    assert len(banded) >= 16 and all(banded)


# The ids output bytes are the reproducibility contract: these sums were
# recorded for the criterion-13 ids config and the README ids example.
_IDS_SHA256 = {
    "c13": {
        "ids_dirichlet.csv":
            "f62f7387c50cd0439334dfafe7bce883a4d21edc45c0a64387c4299353873993",
        "ids_dirichlet_bracket.csv":
            "89ab902f093cd5864ac05db8ee3387386852771bd1897ff9fa663ee0bba1a4b2",
        "ids_neumann.csv":
            "baa02f0b25f5190037b64bdc801f1081a1f8563df24f0fc80a460c27c62461d5",
        "ids_neumann_bracket.csv":
            "966b3f1f4545e1fc696a8b67bfbdaed6890a0fa8c1e35323e705c78a4cb50151",
        "ids_report.json":
            "6c2601a267c9e2bfbe099d809661f1d1bf9e1caccce7b15bfac0cdbcb7cbeb89",
    },
    "readme": {
        "ids_adjacency.csv":
            "187b48c68d3b609398506b350132c49e362c7bb955f92a84eef2afd9281d4231",
        "ids_adjacency_bracket.csv":
            "56fd567341ea02e8816a9a307fc934f98907854adb75dd82b6a2bcb8b0f62a64",
        "ids_dirichlet.csv":
            "8c422675fc6aa87bbbcde5945c054415ed6de1acd707b569ac7aabffc61f16d0",
        "ids_dirichlet_bracket.csv":
            "550d74f9c388ec2932bda9010f5503c66bc8789b1d240b944b3c2e74509b6ad5",
        "ids_neumann.csv":
            "97f42249cb5534a2bb9390d79629ceeed98bfdea902ab06401cf507b63e8c912",
        "ids_neumann_bracket.csv":
            "3802167716332e20924ac016d5bcdeb8a9c8409aab39d4f597f051de4339d099",
        "ids_report.json":
            "d6eb6cfb1de21221a4b56f277b567329a89cd659c7ed2144598ddf03275160a2",
    },
}


def test_ids_bytes_match_the_recorded_sums(tmp_path):
    configs = {
        "c13": {"seed": 13013, "group": _Z1, "percolation": _SITE,
                "window": {"radius": 25},
                "spectra": {"boundary_conditions": ["neumann", "dirichlet"],
                            "n_samples": 12,
                            "energy_grid": {"min": 0.0, "max": 4.0,
                                            "points": 5}}},
        "readme": readme_ids_example(),
    }
    for name, cfg in configs.items():
        out = tmp_path / name
        path = write_config(tmp_path, f"{name}.json",
                            {**cfg, "workers": 1, "output_dir": str(out)})
        assert main(["ids", "--config", path]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in json.loads((out / "manifest.json").read_text())["outputs"]}
        assert got == _IDS_SHA256[name], name


# The criterion-13 configs (seed 13013) of the other subcommands and the
# sums recorded for their artifacts.
_C13_BODIES = {
    "growth": {"group": _Z2, "window": {"radius": 12},
               "fits": {"growth_n_min": 4}},
    "percolate": {"group": _Z2, "window": {"radius": 7},
                  "percolation": {"kind": "site", "p": 0.4, "n_samples": 100,
                                  "tail_max": 5}},
    "free-ids": {"group": _Z1, "window": {"radius": 20},
                 "spectra": {"energy_grid": {"values": [0.5, 2.0]}}},
    "bounds": {"group": _Z2, "fits": {"dirichlet_n_max": 4, "line_max": 8}},
    "exponents": {"group": _Z1, "percolation": _SITE, "window": {"radius": 24},
                  "fits": {"growth_n_min": 8, "line_max": 32}},
    "chain": {"group": _Z2, "percolation": _SITE, "window": {"radius": 3},
              "spectra": {"n_samples": 8, "couplings": [1, 10],
                          "energy_grid": {"min": 0.0, "max": 9.0, "points": 8}}},
    "lamplighter": {"group": {"kind": "lamplighter", "modulus": 2},
                    "window": {"depths": [2], "return_max": 3}},
}
_C13_SHA256 = {
    "growth": {
        "growth.csv":
            "8a7e71e127a6619264bdd76fc2baf3cb917df6f47afd160aa06aea03d303c7f8",
        "growth_fit.json":
            "101b1ed77e45b8f758efcdb18e20c08c8a4df3a8552ea153fd75a977721938e6",
    },
    "percolate": {
        "percolate_report.json":
            "98c0039602d6093d78d64100e8c1a11845c9b2b7f7689af52b000c3fb846be0b",
        "tail.csv":
            "c6644d72aeb6a984595f941e8ff18f7f917183e6576268eee7cde93a4f1aea2b",
    },
    "free-ids": {
        "free_ids.csv":
            "20a5744fca3ccc5fa4d0ad45ce4701ea0483c81d04da966988f379920e6ffb1b",
        "free_ids_ball.csv":
            "5b6907db42d4d383352e9bb7a7004f5025684024a942b010fe85b69c60f581d8",
    },
    "bounds": {
        "bounds_report.json":
            "220166c3ae21258ecfddf0f980b93efbfc31a8da8946114b592665334c084010",
    },
    "exponents": {
        "exponents.json":
            "e259cd60ffe1caed89aa29dd672b9b5068c71eb57a90ebf1388561e963754515",
    },
    "chain": {
        "chain.csv":
            "f986fce0f202299523e12ceefcab64881bd3d23aff21086b27147b421978ac2a",
        "chain_report.json":
            "34555326afed207b41787c0cb61974274a300ca7f0dfc553d66c76e588503a3f",
    },
    "lamplighter": {
        "lamplighter_report.json":
            "d07e2c6b9d253628ea5507722ab2a54799587d29e0de657254319a427421d060",
        "return_probability.csv":
            "d9129d3c2f384c005c320a3d7f4746636c9ce3e73e9edb738f2ab77847bf57f6",
    },
}


@pytest.mark.parametrize("subcommand", sorted(_C13_BODIES))
def test_c13_bytes_match_the_recorded_sums(tmp_path, subcommand):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        {**_C13_BODIES[subcommand], "seed": 13013, "workers": 1,
                         "output_dir": str(out)})
    assert main([subcommand, "--config", path]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in json.loads((out / "manifest.json").read_text())["outputs"]}
    assert got == _C13_SHA256[subcommand]


# growth and exponents read word lengths and line subgraphs, never a
# ball's edges; sums recorded when every enumeration still built them
_GROWTH_GROUPS = {
    "Z3": ({"kind": "free_abelian", "rank": 3}, 10),
    "heisenberg": ({"kind": "heisenberg"}, 8),
    "lamplighter3": ({"kind": "lamplighter", "modulus": 3}, 8),
}
_GROWTH_SHA256 = {
    ("growth", "Z3"): {
        "growth.csv": "8194c0ff5bea79e97170e9f5420dbd347bf1e80f05ed8b631950fe3c3a678a51",
        "growth_fit.json": "6cee2da94b883d4a15e2840062eef3bba4d342a8184fce29356d0fa71560fa7d",
    },
    ("growth", "heisenberg"): {
        "growth.csv": "e4bcb5d4d3968a71718d44b3376e940f7562abb25114ac23416122b333462bc8",
        "growth_fit.json": "752cfba8225ee3bc4b627409fb7530db448a1dbbf10d6048fc13c09eda84f485",
    },
    ("growth", "lamplighter3"): {
        "growth.csv": "460edf3e7e0dc6505bbceba54e65ad0a806a38a2fad7199ecbb01c97eb963b14",
        "growth_fit.json": "81a1cae0927ef6ca23049d6287c830aa01ada662178eea166a9ee0efe9219580",
    },
    ("exponents", "Z3"): {
        "exponents.json": "1c80b650f9481619b6061c5224811ec0628cebb430d71e062e17ea9cf68c5632",
    },
    ("exponents", "heisenberg"): {
        "exponents.json": "2cce7b4c73df6a200f0c5682614296682a93d58e952f83ac7993eba1104f2e2b",
    },
    ("exponents", "lamplighter3"): {
        "exponents.json": "c1da5877c07c2004942c0906decb85fab236d89fe1bf0e4ce476a0be7a53be4d",
    },
}


@pytest.mark.parametrize("subcommand,group", sorted(_GROWTH_SHA256))
def test_growth_runs_build_no_edges(tmp_path, monkeypatch, subcommand, group):
    def no_build(*args):
        raise AssertionError("edges were built")

    for name in ("_edges", "_cell_edges"):
        monkeypatch.setattr(cayley, name, no_build)
    body, radius = _GROWTH_GROUPS[group]
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        {"seed": 13013, "workers": 1, "output_dir": str(out),
                         "group": body, "window": {"radius": radius}})
    assert main([subcommand, "--config", path]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in json.loads((out / "manifest.json").read_text())["outputs"]}
    assert got == _GROWTH_SHA256[subcommand, group]


def test_z2_bond_giant_cluster_bytes_match_the_benchmark_digests(tmp_path):
    """The Z^2 bond run past p_c of the benchmark, at seed 0: one giant
    cluster per sample, so the band solve and the adjacency shortcut both
    run; its outputs must equal the digests recorded for the benchmark."""
    entry = json.loads((_ROOT / "perfbench" / "digests.json").read_text())[
        "ids-z2-bond-super"]
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        {**entry["config"], "seed": 0, "workers": 1,
                         "output_dir": str(out)})
    assert main(["ids", "--config", path]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in json.loads((out / "manifest.json").read_text())["outputs"]}
    assert got == entry["outputs"]["0"]


def test_percolate_byte_determinism_across_workers(tmp_path):
    _run_twice(tmp_path, "percolate",
               dict(group={"kind": "free_abelian", "rank": 2},
                    percolation={"kind": "bond", "p": 0.3, "n_samples": 120,
                                 "tail_max": 5},
                    window={"radius": 8}),
               ["tail.csv", "percolate_report.json"])


def test_manifest_digest_excludes_workers(tmp_path):
    digests = []
    for tag, workers in (("a", 1), ("b", 3)):
        out = tmp_path / tag
        cfg = base_config(out, group={"kind": "free_abelian", "rank": 1},
                          window={"radius": 10})
        cfg["workers"] = workers
        path = write_config(tmp_path, f"{tag}.json", cfg)
        assert main(["growth", "--config", path]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())
                       ["config_digest"])
    assert digests[0] == digests[1]


def test_manifest_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        {**_C13_BODIES["growth"], "seed": 13013, "workers": 2,
                         "output_dir": str(out)})
    assert main(["growth", "--config", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert sorted(env) == ["blas", "cpu_count", "numpy", "python", "scipy",
                           "threads", "workers"]
    assert env["numpy"] == np.__version__ and env["workers"] == 2
    assert env["cpu_count"] == os.cpu_count()
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert sorted(env["threads"]) == ["MKL_NUM_THREADS", "OMP_NUM_THREADS",
                                      "OPENBLAS_NUM_THREADS"]
    # the digest of this config as recorded before the manifest had an
    # environment; the environment is no part of it
    assert manifest["config_digest"] == \
        "2dda2ce78cbfbfc731c1cef437100209316f3e8c16f086bc29e9fb8595f2afeb"


@pytest.mark.parametrize("group,dirichlet", [
    (_Z2, "reflected from neumann"), (_Z1_STEPS_1_2, "direct")])
def test_ids_manifest_records_each_solve_path(tmp_path, group, dirichlet):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", base_config(
        out, group=group, window={"radius": 4}, percolation=_SITE,
        spectra={"n_samples": 10, "boundary_conditions":
                 ["dirichlet", "adjacency", "neumann"],
                 "energy_grid": {"values": [1.0]}}))
    assert main(["ids", "--config", path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solves"] == {"dirichlet": dirichlet,
                                  "adjacency": "direct", "neumann": "direct"}
