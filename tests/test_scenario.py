import json

import pytest

from ckoord.cluster import QosClass
from ckoord.predictor import ThresholdParams
from ckoord.scenario import (
    ConfigError,
    InjectionSpec,
    Scenario,
    apply_overrides,
    default_config,
    load_config,
    parse_override,
    validate_config,
)


def test_default_scenario_validates():
    validate_config(default_config())


def test_validate_config_returns_the_typed_scenario():
    scenario = validate_config(default_config())
    assert scenario.horizon == 300 and type(scenario.horizon) is int
    assert scenario.sampling_period_s == 5
    assert scenario.node_ids[:3] == ["node-00", "node-01", "node-02"]
    assert len(scenario.node_ids) == scenario.node_count == 10
    assert list(scenario.apps) == ["web", "cache", "batch"]  # config order places the pods
    assert scenario.apps["batch"].qos is QosClass.BE
    assert scenario.apps["web"].replicas == 10 and type(scenario.apps["web"].replicas) is int
    assert scenario.apps["web"].mem_request == 4294967296.0
    assert scenario.injections == (InjectionSpec("node-02", "cpu_hog", 170, 60, 1.0),)
    assert sorted(scenario.truth.kinds) == ["cache_thrash", "cpu_hog", "mem_pressure"]
    assert scenario.controllers_enabled is True and scenario.reschedule_delay == 70
    assert scenario.qos_weights == {"BE": 1.0, "LS": 3.0, "LSR": 4.0, "SYSTEM": 5.0}
    assert scenario.detector.deviation == "std" and scenario.detector.node_weights == {}
    assert scenario.predictor.params == ThresholdParams(k1=3.0, k2=0.1)
    assert scenario.predictor.train.num_rounds == 60
    assert scenario.mitigator.eviction_ratio == 0.25


def test_default_config_returns_fresh_copies():
    a = default_config()
    a["horizon"] = 1
    assert default_config()["horizon"] != 1


def test_node_ids_are_zero_padded():
    cfg = default_config()
    cfg["topology"]["node_count"] = 3
    assert validate_config(cfg).node_ids == ["node-00", "node-01", "node-02"]


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


def test_counts_take_integral_numbers_only():
    cfg = default_config()
    cfg["horizon"] = 60.0
    cfg["predictor"]["window"] = 20.0
    scenario = validate_config(cfg)
    assert scenario.horizon == 60 and type(scenario.horizon) is int
    assert scenario.predictor.window == 20 and type(scenario.predictor.window) is int
    cfg["horizon"] = 3.5
    with pytest.raises(ConfigError, match=r"^horizon: must be an integer, got 3\.5$"):
        validate_config(cfg)


CONFIG_FAULTS = [
    (['predictor.load_weights=["a","b","c"]'],
     "predictor.load_weights[0]: expected int/float, got str"),
    (["predictor.load_weights=[1.5,-0.3,-0.2]"],
     "predictor.load_weights[1]: must be >= 0, got -0.3"),
    (["predictor.load_weights=[true,false,0]"],
     "predictor.load_weights[0]: expected int/float, got bool"),
    (["predictor.load_weights=[0.5,0.5]"],
     "predictor.load_weights: expected three numbers, got 2"),
    (["detector.weights.default=[1.5,-0.25,-0.25]"],
     "detector.weights.default[1]: must be >= 0, got -0.25"),
    (["predictor.k1=0", "predictor.k2=0"], "predictor.k2: k1 and k2 cannot both be 0"),
    (["horizon=3.5"], "horizon: must be an integer, got 3.5"),
    (["predictor.windw=20"], "predictor.windw: unknown key"),
    (["colour=1"], "colour: unknown key"),
    (["apps.1.colour=1"], "apps[1].colour: unknown key"),
    (["ground_truth.interference.gamma_rays={}"],
     "ground_truth.interference.gamma_rays: unknown key"),
    (["interference.0.target_node=node-2"],
     "interference[0].target_node: 'node-2' is not a node of this topology"),
    (["detector.weights.node-2=[0.2,0.5,0.3]"],
     "detector.weights.node-2: key must be 'default' or a known node id"),
    (["detector.k=NaN"], "detector.k: must be finite, got nan"),
    (["interference.0.start_interval=Infinity"],
     "interference[0].start_interval: must be finite, got inf"),
    # a pod's requests are its app's, so these are the only request checks
    (["apps.0.cpu_request=0"], "apps[0].cpu_request: must be >= 1e-09, got 0"),
    (["apps.2.mem_request=0"], "apps[2].mem_request: must be >= 1.0, got 0"),
    # the config records check nothing themselves, so these are their only checks
    (["detector.deviation=median"],
     "detector.deviation: must be one of ('variance', 'std'), got 'median'"),
    (["predictor.delta_mode=rms"],
     "predictor.delta_mode: must be one of ('signed', 'absolute'), got 'rms'"),
    (["predictor.min_history_windows=0"], "predictor.min_history_windows: must be >= 1, got 0"),
    (["predictor.k1=-1"], "predictor.k1: must be >= 0, got -1"),
    (["predictor.load_weights=[0.5,0.5,0.5]"], "predictor.load_weights: must sum to 1, got 1.5"),
    (["mitigator.cpu_reserve_fraction=1"],
     "mitigator.cpu_reserve_fraction: must be <= 0.999, got 1"),
    (["mitigator.cooldown_intervals=-1"], "mitigator.cooldown_intervals: must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "overrides, message", CONFIG_FAULTS, ids=[",".join(o) for o, _ in CONFIG_FAULTS]
)
def test_config_faults_name_their_key_path(overrides, message):
    cfg = apply_overrides(default_config(), overrides)  # checks the paths, not the values
    with pytest.raises(ConfigError) as caught:
        validate_config(cfg)
    assert str(caught.value) == message


def test_learning_rate_zero_is_degenerate_but_valid():
    cfg = apply_overrides(default_config(), ["predictor.train.learning_rate=0"])
    assert validate_config(cfg).predictor.train.learning_rate == 0.0


def test_node_id_too_long_for_int_is_not_a_node():
    cfg = default_config()
    cfg["interference"][0]["target_node"] = "node-" + "1" * 5000  # int() refuses this many digits
    with pytest.raises(ConfigError, match=r"^interference\[0\]\.target_node: 'node-1+' is not"):
        validate_config(cfg)


_DELETED = object()
# Values that a leaf of the config may be mutated to: each must give a
# Scenario or a ConfigError that names the leaf.
_MUTATIONS = [-1, 0, 0.5, 1e9, True, "x", [], _DELETED]


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _dotted(path):
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}" if out else part
    return out


@pytest.mark.parametrize(
    "mutation", _MUTATIONS, ids=["-1", "0", "0.5", "1e9", "true", "x", "[]", "deleted"]
)
def test_each_leaf_mutation_gives_a_scenario_or_an_error_naming_it(mutation):
    paths = list(_leaves(default_config()))
    assert len(paths) > 100
    outcomes = set()
    for path in paths:
        cfg = default_config()
        parent = cfg
        for part in path[:-1]:
            parent = parent[part]
        if mutation is _DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = mutation
        try:
            result = validate_config(cfg)
        except ConfigError as exc:
            # a weight triple's length and sum belong to the list, not to one element
            named = {_dotted(path)} | ({_dotted(path[:-1])} if isinstance(path[-1], int) else set())
            assert str(exc).split(":", 1)[0] in named, (path, mutation, str(exc))
            outcomes.add("error")
        else:
            assert isinstance(result, Scenario), (path, mutation)
            outcomes.add("scenario")
    assert "error" in outcomes


def test_error_line_of_a_list_element_is_found_by_walking_the_path(tmp_path):
    # the first line holding "cpu_request" belongs to apps[0]
    cfg = default_config()
    cfg["apps"][2]["cpu_request"] = -1
    path = write_cfg(tmp_path, cfg)
    lines = open(path).read().splitlines()
    expected = [n for n, text in enumerate(lines, start=1) if '"cpu_request"' in text][2]
    with pytest.raises(ConfigError, match=rf"^apps\[2\]\.cpu_request \(line {expected}\): "):
        load_config(path)


def test_error_line_of_a_repeated_name_is_found_by_walking_the_path(tmp_path):
    # "miss_gain" is also a key of cpu_hog and mem_pressure, which come first
    cfg = default_config()
    cfg["ground_truth"]["interference"]["cache_thrash"]["miss_gain"] = -1
    path = write_cfg(tmp_path, cfg)
    numbered = list(enumerate(open(path).read().splitlines(), start=1))
    start = next(n for n, text in numbered if '"cache_thrash"' in text)
    expected = next(n for n, text in numbered if n > start and '"miss_gain"' in text)
    with pytest.raises(
        ConfigError,
        match=rf"^ground_truth\.interference\.cache_thrash\.miss_gain \(line {expected}\): ",
    ):
        load_config(path)


def test_error_lines_of_missing_and_unknown_keys(tmp_path):
    cfg = default_config()
    del cfg["workload"]["rho_max"]
    text = json.dumps(cfg, indent=2)
    workload_line = next(
        n for n, line in enumerate(text.splitlines(), start=1) if '"workload"' in line
    )
    with pytest.raises(ConfigError, match=rf"^workload\.rho_max \(line {workload_line}\): "):
        validate_config(cfg, text)
    cfg = default_config()
    cfg["predictor"]["windw"] = 20
    text = json.dumps(cfg, indent=2)
    windw_line = next(n for n, line in enumerate(text.splitlines(), start=1) if '"windw"' in line)
    with pytest.raises(ConfigError, match=rf"^predictor\.windw \(line {windw_line}\): unknown"):
        validate_config(cfg, text)
