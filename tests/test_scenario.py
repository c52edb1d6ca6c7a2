import json

import pytest

from ckoord.scenario import (
    ConfigError,
    apply_overrides,
    default_config,
    load_config,
    node_ids,
    parse_override,
    validate_config,
)


def test_default_scenario_validates():
    validate_config(default_config())


def test_default_config_returns_fresh_copies():
    a = default_config()
    a["horizon"] = 1
    assert default_config()["horizon"] != 1


def test_node_ids_are_zero_padded():
    cfg = default_config()
    cfg["topology"]["node_count"] = 3
    assert node_ids(cfg) == ["node-00", "node-01", "node-02"]


def write_cfg(tmp_path, cfg_or_text):
    path = tmp_path / "scenario.json"
    if isinstance(cfg_or_text, str):
        path.write_text(cfg_or_text)
    else:
        path.write_text(json.dumps(cfg_or_text, indent=2))
    return str(path)


def test_load_config_round_trip(tmp_path):
    path = write_cfg(tmp_path, default_config())
    assert load_config(path) == default_config()


def test_load_reports_json_syntax_line(tmp_path):
    path = write_cfg(tmp_path, '{\n  "horizon": 10,\n  oops\n}')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_config(path)


def test_load_rejects_non_object_top_level(tmp_path):
    path = write_cfg(tmp_path, "[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path)


def test_load_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/scenario.json")


def test_missing_key_error_names_path_and_line(tmp_path):
    cfg = default_config()
    del cfg["workload"]["rho_max"]
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(ConfigError, match="workload.rho_max.*missing"):
        load_config(path)


def test_wrong_type_error_names_expectation(tmp_path):
    cfg = default_config()
    cfg["horizon"] = "soon"
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(ConfigError, match="horizon.*expected int/float, got str"):
        load_config(path)


def test_semantic_error_carries_a_line_number(tmp_path):
    cfg = default_config()
    cfg["workload"]["rho_max"] = 1.5
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(ConfigError, match=r"rho_max \(line \d+\)"):
        load_config(path)


def test_bounds_are_enforced():
    for key, value in [
        ("horizon", 0),
        ("sampling_period_s", 0),
        ("workload.rho_max", 0.999),
        ("workload.latency_cpi_exponent", 0.5),
        ("mitigator.mu", 0),
        ("mitigator.mu", 1.5),
        ("mitigator.severity_boundary", 1.0),
        ("detector.k", -1),
        ("detector.hysteresis_intervals", 0),
        ("predictor.window", 0),
        ("predictor.train.learning_rate", 1.5),
    ]:
        cfg = default_config()
        cursor = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            cursor = cursor[part]
        cursor[parts[-1]] = value
        with pytest.raises(ConfigError):
            validate_config(cfg)


def test_detector_weights_rules():
    cfg = default_config()
    del cfg["detector"]["weights"]["default"]
    with pytest.raises(ConfigError, match="default"):
        validate_config(cfg)

    cfg = default_config()
    cfg["detector"]["weights"]["default"] = [0.5, 0.5, 0.5]
    with pytest.raises(ConfigError, match="sum to 1"):
        validate_config(cfg)

    cfg = default_config()
    cfg["detector"]["weights"]["node-99"] = [0.2, 0.5, 0.3]
    with pytest.raises(ConfigError, match="known node id"):
        validate_config(cfg)

    cfg = default_config()
    cfg["detector"]["weights"]["node-02"] = [0.2, 0.5, 0.3]
    validate_config(cfg)


def test_injection_target_must_exist():
    cfg = default_config()
    cfg["interference"][0]["target_node"] = "node-42"
    with pytest.raises(ConfigError, match="node-42"):
        validate_config(cfg)
    cfg["interference"][0]["target_node"] = "rack-01"
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_injection_kind_must_be_known():
    cfg = default_config()
    cfg["interference"][0]["kind"] = "gamma_rays"
    with pytest.raises(ConfigError, match="gamma_rays"):
        validate_config(cfg)


def test_qos_weights_all_required():
    cfg = default_config()
    del cfg["qos_weights"]["LSR"]
    with pytest.raises(ConfigError, match="LSR"):
        validate_config(cfg)


def test_parse_override_json_values():
    assert parse_override("a.b=3") == (["a", "b"], 3)
    assert parse_override("a=0.5") == (["a"], 0.5)
    assert parse_override("a=true") == (["a"], True)
    assert parse_override("a=[1,2]") == (["a"], [1, 2])
    assert parse_override("kind=cpu_hog") == (["kind"], "cpu_hog")


def test_parse_override_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_override("no-equals-sign")
    with pytest.raises(ConfigError):
        parse_override("=5")


def test_apply_overrides_leaves_original_untouched():
    cfg = default_config()
    out = apply_overrides(cfg, ["horizon=5", "detector.k=2.0"])
    assert out["horizon"] == 5
    assert out["detector"]["k"] == 2.0
    assert cfg["horizon"] == default_config()["horizon"]


def test_apply_overrides_descends_lists():
    out = apply_overrides(default_config(), ["apps.1.replicas=2"])
    assert out["apps"][1]["replicas"] == 2


def test_apply_overrides_rejects_bad_list_index():
    with pytest.raises(ConfigError, match="bad list index"):
        apply_overrides(default_config(), ["apps.web.replicas=2"])
    with pytest.raises(ConfigError, match="bad list index"):
        apply_overrides(default_config(), ["apps.99.replicas=2"])


def test_apply_overrides_revalidates():
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), ["horizon=0"])


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_app_id_that_csv_would_quote_is_rejected_with_its_line(tmp_path, char):
    cfg = default_config()
    cfg["apps"][0]["app_id"] = f"web{char}0"
    path = write_cfg(tmp_path, cfg)
    line = next(
        n for n, text in enumerate(open(path).read().splitlines(), start=1) if '"app_id"' in text
    )
    with pytest.raises(ConfigError, match=rf"^apps\[0\]\.app_id \(line {line}\): app_id "):
        load_config(path)
    with pytest.raises(ConfigError, match=r"^apps\[0\]\.app_id: app_id .* contains"):
        validate_config(cfg)
