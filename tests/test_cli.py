"""CLI: validation, exit codes, artifact content, byte-level determinism."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import percospec
from percospec import bounds, cayley, cli, spectra
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
                     "window": {"depths": [], "return_max": 14}},
     "window.return_max"),
    ("lamplighter", {"group": {"kind": "lamplighter", "modulus": 5},
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
])
def test_user_mistake_is_validation_error(tmp_path, capsys, subcommand, body,
                                          key):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json", base_config(out, **body))
    assert main([subcommand, "--config", path]) == 1
    assert key in capsys.readouterr().err
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
    "seed": 1.5, "workers": 0, "output_dir": 5, "budget_vertices": 0,
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


_README = Path(__file__).resolve().parent.parent / "README.md"


def readme_ids_example() -> dict:
    return json.loads(re.search(r"```json\n(.*?)```", _README.read_text(),
                                re.S).group(1))


def test_readme_ids_example_validates():
    text = _README.read_text()
    example = readme_ids_example()
    cfg = validate_config(example, "ids")
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

    def other_run_then_budget(cfg, out):
        other.mkdir()
        (other / "keep.txt").write_text("theirs")
        raise BudgetError("over budget")

    monkeypatch.setitem(cli._SUBCOMMANDS, "growth", other_run_then_budget)
    path = write_config(tmp_path, "c.json",
                        base_config(out, group=_Z1, window={"radius": 8}))
    assert main(["growth", "--config", path]) == 2
    assert not out.exists()
    assert (other / "keep.txt").read_text() == "theirs"


def test_van_hove_fit_drops_the_clamped_top_of_its_range(tmp_path):
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        base_config(out, group=_Z2,
                                    fits={"van_hove_range": [5, 20]}))
    assert main(["exponents", "--config", path]) == 0
    fit = json.loads((out / "exponents.json").read_text())[1]
    assert fit["kind"] == "van-hove"
    assert fit["range"][0] == 5 and fit["range"][1] < 8


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
    assert validate_config(cfg, "exponents")["window"] == {"radius": 8, "depth": 2}
    # the growth fit stops at fits.growth_n_max, as it does for growth
    out = tmp_path / "o"
    path = write_config(tmp_path, "c.json",
                        base_config(out, group=_Z2, window={"radius": 12},
                                    fits={"growth_n_max": 9}))
    assert main(["exponents", "--config", path]) == 0
    growth = json.loads((out / "exponents.json").read_text())[0]
    assert growth["kind"] == "growth" and growth["range"] == [4, 9]


@pytest.mark.parametrize("modulus,largest", [(2, 13), (3, 10), (5, 7)])
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


def test_cli_import_skips_stats_and_integrate():
    src = str(Path(percospec.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import percospec.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
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

    for module in (cayley, bounds, spectra):
        monkeypatch.setattr(module, "enumerate_ball", counting)
    return radii


@pytest.mark.parametrize("subcommand", ["lamplighter", "bounds"])
def test_tetrahedra_share_one_ball(tmp_path, monkeypatch, subcommand):
    radii = count_enumerations(monkeypatch)
    out = tmp_path / "o"
    cfg = base_config(out, group={"kind": "lamplighter", "modulus": 2},
                      window={"depths": [4, 2, 3], "return_max": 2})
    path = write_config(tmp_path, "c.json", cfg)
    assert main([subcommand, "--config", path]) == 0
    assert radii == [8]
    name = ("lamplighter_report.json" if subcommand == "lamplighter"
            else "bounds_report.json")
    tets = json.loads((out / name).read_text())["tetrahedron"]
    assert sorted(tets) == ["2", "3", "4"]
    assert all(t["vertex_count"] == t["expected_count"] for t in tets.values())


@pytest.mark.parametrize("depths,return_max,radius", [([2], 4, 4), ([2], 6, 6),
                                                      ([], 3, 3), ([3], 2, 6)])
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
    assert [float(v) for _, _, v in rows] == [
        spectra.return_probability(cayley.GroupSpec.lamplighter(2), n).value
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


def test_ids_byte_determinism_across_workers(tmp_path):
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
