"""Config validation, canonical hashing, record emission, CLI exit codes."""

import csv
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadvar import runner
from quadvar.cli import main as cli_main
from quadvar.config import ConfigError, canonical_hash, load_config, validate
from quadvar.models import RademacherIID, RademacherProductMDS
from quadvar.runner import ResultRecord, assertions_pass, emit, run


REPO = Path(__file__).resolve().parent.parent
KERNELS = REPO / "configs" / "kernels"


def _config(**overrides) -> str:
    base = {
        "experiment": "quadform_var",
        "seed": 11,
        "model": {"name": "rademacher_iid"},
        "matrix": {"kind": "hollow_ones", "p": 2},
    }
    base.update(overrides)
    return json.dumps(base)


# ------------------------------------------------------------------ validation


def test_defaults_are_filled():
    cfg = validate(_config())
    assert cfg.replicates == 100000
    assert cfg.max_lag == 64
    assert cfg.tolerances["assert_sigmas"] == 4.0
    assert cfg.fmt == "csv"
    assert cfg.out is None


def test_unknown_top_level_key_is_rejected():
    with pytest.raises(ConfigError, match="bandwith"):
        validate(_config(bandwith=3))


def test_unknown_section_key_names_its_path():
    with pytest.raises(ConfigError, match=r"matrix\.shape"):
        validate(
            json.dumps(
                {
                    "experiment": "quadform_var",
                    "seed": 1,
                    "model": {"name": "rademacher_iid"},
                    "matrix": {"kind": "hollow_ones", "p": 2, "shape": "round"},
                }
            )
        )


def test_domain_violation_names_field_path():
    bad = _config(model={"name": "gaussian_ar1", "rho": 1.5})
    with pytest.raises(ConfigError, match=r"model\.rho"):
        validate(bad)


def test_spectral_weights_must_sum_to_one():
    with pytest.raises(ConfigError, match="spectral"):
        validate(
            json.dumps(
                {
                    "experiment": "stieltjes_grid",
                    "seed": 1,
                    "spectral": {"atoms": [[1.0, 0.7], [2.0, 0.7]], "c": 0.5},
                    "grid": {"re_min": 0.0, "re_max": 1.0, "points": 2, "im": 1.0},
                }
            )
        )


def test_parse_error_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line 2, column"):
        validate('{\n  "experiment": ,\n}')


def test_seed_is_mandatory():
    raw = json.loads(_config())
    del raw["seed"]
    with pytest.raises(ConfigError, match="seed"):
        validate(json.dumps(raw))


def test_tolerances_must_be_positive():
    with pytest.raises(ConfigError, match="assert_sigmas"):
        validate(_config(tolerances={"assert_sigmas": 0.0}))


def test_experiment_must_be_known():
    with pytest.raises(ConfigError, match="unknown experiment"):
        validate(_config(experiment="qaudform_var"))


def test_section_for_wrong_experiment_is_rejected():
    with pytest.raises(ConfigError, match="kernel"):
        validate(_config(kernel={"name": "bartlett"}))


# --------------------------------------------------------------------- hashing


def test_hash_is_stable_under_key_reordering():
    a = _config()
    raw = json.loads(a)
    b = json.dumps(dict(reversed(list(raw.items()))), indent=3)
    assert validate(a).config_hash == validate(b).config_hash


def test_hash_ignores_float_formatting_but_not_values():
    a = validate(_config(tolerances={"assert_sigmas": 4.0}))
    b = validate(_config(tolerances={"assert_sigmas": 4}))
    c = validate(_config(tolerances={"assert_sigmas": 4.5}))
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash


def test_hash_covers_seed_but_not_output_routing():
    base = validate(_config())
    reseeded = validate(_config(), overrides={"seed": 99})
    rerouted = validate(_config(), overrides={"out": "x.csv", "format": "json"})
    assert reseeded.config_hash != base.config_hash
    assert rerouted.config_hash == base.config_hash
    assert rerouted.out == "x.csv"
    assert rerouted.fmt == "json"


def test_hash_covers_kernel_table_contents_not_its_path(tmp_path):
    table = (KERNELS / "triangle_1024.csv").read_text()

    def hash_of(text, rel):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
        kernel = {"name": "tabulated", "csv": rel}
        config = json.dumps({"experiment": "kernel_check", "seed": 1, "kernel": kernel})
        return validate(config, config_dir=tmp_path).config_hash

    base = hash_of(table, "k.csv")
    assert hash_of(table, "elsewhere/copy.csv") == base
    edited = table.replace("\n0.5,0.5\n", "\n0.5,0.4999\n")
    assert edited != table
    assert hash_of(edited, "k.csv") != base


def test_canonical_hash_handles_nesting():
    assert canonical_hash({"a": [1, 2.0, "x"], "b": {"c": True}}) == canonical_hash(
        {"b": {"c": True}, "a": [1, 2, "x"]}
    )


# ------------------------------------------------------------------ experiments


def test_quadform_var_example_record():
    records = run(validate(_config()))
    assert len(records) == 1
    m = records[0].metrics
    assert m["mc_variance"] == pytest.approx(4.0, abs=0.01)
    assert m["bound_value"] == pytest.approx(2.0)
    assert m["exact_variance"] == pytest.approx(4.0)
    assert assertions_pass(records)


def test_kernel_check_example_record():
    cfg = validate(json.dumps({"experiment": "kernel_check", "seed": 1, "kernel": {"name": "bartlett"}}))
    m = run(cfg)[0].metrics
    assert m["envelope_sq_integral"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m["q"] == 1.0 and m["k_q"] == -1.0
    assert m["assert_bounded"] == m["assert_square_integrable"] == m["assert_curvature_limit"] == 1


def test_stieltjes_grid_example_matches_closed_form():
    cfg = validate(
        json.dumps(
            {
                "experiment": "stieltjes_grid",
                "seed": 1,
                "spectral": {"atoms": [[1.0, 1.0]], "c": 0.5},
                "grid": {"re_min": -2.0, "re_max": 6.0, "points": 25, "im": 1.0},
            }
        )
    )
    records = run(cfg)
    assert len(records) == 25
    assert all(r.metrics["closed_form_abs_err"] <= 1e-10 for r in records)
    assert assertions_pass(records)


def test_failed_assertion_is_recorded_not_raised():
    cfg = validate(
        json.dumps(
            {
                "experiment": "stieltjes_grid",
                "seed": 1,
                "spectral": {"atoms": [[1.0, 1.0]], "c": 0.5},
                "grid": {"re_min": 1.0, "re_max": 1.0, "points": 1, "im": 1.0},
                "tolerances": {"closed_form_atol": 1e-30},
            }
        )
    )
    records = run(cfg)
    assert records[0].metrics["assert_closed_form"] == 0
    assert not assertions_pass(records)


def _lrv_config(sweep, replicates):
    return validate(
        json.dumps(
            {
                "experiment": "lrv_mse",
                "seed": 4,
                "model": {"name": "gaussian_ar1", "rho": 0.5},
                "kernel": {"name": "bartlett"},
                "sweep": sweep,
                "replicates": replicates,
            }
        )
    )


def test_lrv_mse_sweep_holds_one_path_block():
    cfg = _lrv_config([[20_000, 2.0], [20_000, 8.0]], 20)
    run(cfg)  # numpy's lazy set-up and the kernel's cached values are not counted
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * 20 * 20_000
    assert peak <= block + 2**20


def test_lrv_mse_draws_one_block_per_sweep_point(monkeypatch):
    calls = []
    draw = runner.generate_paths

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return draw(*args, **kwargs)

    monkeypatch.setattr(runner, "generate_paths", recording)
    cfg = _lrv_config([[300, 2.0], [300, 8.0], [600, 4.0]], 5)
    run(cfg)
    assert calls == [((cfg.model, n, cfg.seed, 5), {}) for n, _ in cfg.sweep]


@pytest.mark.parametrize("model", [RademacherIID(), RademacherProductMDS()])
def test_rademacher_exact_fourth_keeps_every_moment_call(model, monkeypatch):
    calls = []
    moment = runner.exact_product_moment

    def recording(model, indices):
        calls.append(indices)
        return moment(model, indices)

    monkeypatch.setattr(runner, "exact_product_moment", recording)
    for a in (np.ones(6), np.random.default_rng(3).standard_normal(5)):
        calls.clear()
        p = a.size
        want = 0.0
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    for l in range(p):
                        coeff = a[i] * a[j] * a[k] * a[l]
                        want += coeff * moment(model, (i + 1, j + 1, k + 1, l + 1))
        assert runner._rademacher_exact_fourth(model, a) == want
        assert calls == list(itertools.product(range(1, p + 1), repeat=4))


# -------------------------------------------------------------------- emission


def _toy_records() -> list[ResultRecord]:
    return [
        ResultRecord("demo", "abc123", {"n": 2, "value": 0.1, "q": math.inf, "name": "a,b"}),
        ResultRecord("demo", "abc123", {"n": 3, "value": -0.2, "q": math.inf, "name": 'say "hi"'}),
    ]


def test_emit_csv_has_header_and_quotes(tmp_path):
    path = tmp_path / "out.csv"
    emit(_toy_records(), "csv", path)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 3  # header + 2 rows, RFC-4180 endings
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["name"] == "a,b"
    assert rows[1]["name"] == 'say "hi"'
    assert rows[0]["q"] == "inf"
    assert float(rows[1]["value"]) == -0.2


def test_emit_single_record_is_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    emit(_toy_records()[:1], "csv", path)
    assert path.read_bytes().count(b"\r\n") == 2


def test_emit_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(_toy_records(), "csv", a)
    emit(_toy_records(), "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_json_round_trips_doubles(tmp_path):
    records = [ResultRecord("demo", "h", {"x": 0.1 + 0.2, "k": 3})]
    path = tmp_path / "out.json"
    emit(records, "json", path)
    parsed = json.loads(path.read_text())
    assert parsed[0]["x"] == 0.1 + 0.2  # 17 significant digits round-trip
    assert parsed[0]["k"] == 3


def test_emit_formats_agree_after_parsing(tmp_path):
    records = _toy_records()
    emit(records, "csv", tmp_path / "r.csv")
    emit(records, "json", tmp_path / "r.json")
    with open(tmp_path / "r.csv", newline="") as handle:
        csv_rows = list(csv.DictReader(handle))
    json_rows = json.loads((tmp_path / "r.json").read_text())
    for crow, jrow in zip(csv_rows, json_rows):
        for key, jval in jrow.items():
            if isinstance(jval, (int, float)):
                assert float(crow[key]) == float(jval)
            else:
                assert crow[key] == jval


def test_emit_rejects_empty_and_ragged(tmp_path):
    with pytest.raises(ValueError):
        emit([], "csv", tmp_path / "x.csv")
    ragged = [
        ResultRecord("demo", "h", {"a": 1}),
        ResultRecord("demo", "h", {"b": 2}),
    ]
    with pytest.raises(ValueError):
        emit(ragged, "csv", tmp_path / "x.csv")


def test_wall_time_is_tracked_but_not_serialized(tmp_path):
    records = run(validate(_config(replicates=1000)))
    path = tmp_path / "out.csv"
    emit(records, "csv", path)
    header = path.read_text().splitlines()[0]
    assert "wall_time" not in header


# ------------------------------------------------------------------------- CLI


def test_cli_pass_is_exit_zero(tmp_path, capsys):
    config = tmp_path / "ok.json"
    config.write_text(_config(replicates=1000))
    out = tmp_path / "records.csv"
    code = cli_main(["quadform_var", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "pass" in capsys.readouterr().out


def test_cli_assertion_failure_is_exit_one(tmp_path, capsys):
    config = tmp_path / "fail.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "stieltjes_grid",
                "seed": 1,
                "spectral": {"atoms": [[1.0, 1.0]], "c": 0.5},
                "grid": {"re_min": 1.0, "re_max": 1.0, "points": 1, "im": 1.0},
                "tolerances": {"closed_form_atol": 1e-30},
            }
        )
    )
    assert cli_main(["stieltjes_grid", "--config", str(config)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_config_error_is_exit_two(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(_config(bandwith=1))
    assert cli_main(["quadform_var", "--config", str(config)]) == 2
    assert "bandwith" in capsys.readouterr().err


_ESD = {
    "experiment": "esd",
    "seed": 1,
    "model": {"name": "gaussian_ar1", "rho": 0.0},
    "spectral": {"atoms": [[1.0, 0.5], [3.0, 0.5]], "c": 0.5},
    "sizes": [[20, 40]],
}

# p_ref below the atom count: no model reads it any more.
_ESD_THREE_ATOMS = {
    **_ESD,
    "spectral": {"atoms": [[1.0, 0.25], [2.0, 0.25], [3.0, 0.5]], "c": 0.5},
    "p_ref": 2,
}


@pytest.mark.parametrize(
    "experiment, config, key",
    [
        ("quadform_var", json.loads(_config(replicates=1)), "replicates"),
        (
            "fourth_moment",
            {
                "experiment": "fourth_moment",
                "seed": 1,
                "model": {"name": "rademacher_iid"},
                "vector": {"kind": "ones", "p": 2},
                "replicates": 1,
            },
            "replicates",
        ),
        (
            "esd",
            {**_ESD, "spectral": {"atoms": [[0.0, 0.5], [3.0, 0.5]], "c": 0.5}},
            "spectral.atoms[0][0]",
        ),
        ("esd", {**_ESD, "sizes": [[20, 40], [1, 2]]}, "sizes[1][0]"),
        # ignored since the limit law has no reference dimension, but still
        # parsed: a malformed value is a config error
        ("esd", {**_ESD, "p_ref": 1}, "p_ref"),
    ],
)
def test_cli_run_preconditions_are_exit_two(tmp_path, capsys, experiment, config, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli_main([experiment, "--config", str(path)]) == 2
    assert f"invalid config: {key}:" in capsys.readouterr().err


def test_cli_white_noise_esd_ignores_p_ref_below_atom_count(tmp_path):
    path = tmp_path / "white.json"
    path.write_text(json.dumps(_ESD_THREE_ATOMS))
    out = tmp_path / "records.csv"
    assert cli_main(["esd", "--config", str(path), "--out", str(out)]) == 0
    assert out.exists()


def test_cli_dependent_esd_ignores_p_ref_below_atom_count(tmp_path):
    path = tmp_path / "ar1.json"
    path.write_text(
        json.dumps({**_ESD_THREE_ATOMS, "model": {"name": "gaussian_ar1", "rho": 0.5}})
    )
    out = tmp_path / "records.csv"
    assert cli_main(["esd", "--config", str(path), "--out", str(out)]) == 0
    assert out.exists()


def test_hash_ignores_p_ref():
    with_ref = validate(json.dumps({**_ESD, "p_ref": 100}))
    assert with_ref.config_hash == validate(json.dumps(_ESD)).config_hash
    assert "p_ref" not in with_ref.canonical


def test_cli_missing_file_is_exit_two(tmp_path):
    assert cli_main(["quadform_var", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_experiment_mismatch_is_exit_two(tmp_path, capsys):
    config = tmp_path / "ok.json"
    config.write_text(_config(replicates=1000))
    assert cli_main(["esd", "--config", str(config)]) == 2
    assert "declares" in capsys.readouterr().err


def test_cli_seed_override_changes_results(tmp_path):
    config = tmp_path / "ok.json"
    config.write_text(_config(model={"name": "gaussian_ar1", "rho": 0.5}, replicates=2000))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli_main(["quadform_var", "--config", str(config), "--out", str(out1)])
    cli_main(["quadform_var", "--config", str(config), "--out", str(out2), "--seed", "77"])
    assert out1.read_bytes() != out2.read_bytes()


# ---------------------------------------------------------- byte-identity check


def _run_all_configs(*args):
    env = dict(os.environ)
    paths = [str(REPO / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_all_configs.py"), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_all_configs_check_compares_emitted_bytes(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for name in ("kernel_check.json", "stieltjes_grid.json"):
        shutil.copy(REPO / "configs" / name, configs)
    reference = tmp_path / "reference"
    assert _run_all_configs("--configs", configs, "--out", reference).returncode == 0

    same = _run_all_configs("--configs", configs, "--check", reference)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.count("same bytes") == 2

    grid = reference / "stieltjes_grid.csv"
    grid.write_bytes(grid.read_bytes().replace(b"stieltjes_grid", b"stieltjes_grix", 1))
    (reference / "kernel_check.csv").unlink()
    changed = _run_all_configs("--configs", configs, "--check", reference)
    assert changed.returncode == 1
    assert "MISSING" in changed.stdout and "BYTES DIFFER" in changed.stdout
    # the one changed cell is named, old value first
    assert "  1, experiment: stieltjes_grix -> stieltjes_grid\n" in changed.stdout
    assert changed.stdout.count(" -> ") == 1
