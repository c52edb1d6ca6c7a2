"""Shared test helpers: scenario variants derived from the packaged default, a
scenario to drive a ControlLoop by hand, hand-built trace rows, and a trace in
the old format."""

from __future__ import annotations

from dataclasses import replace

from ckoord.scenario import apply_overrides, default_config, validate_config
from ckoord.trace import TraceRow

# The header and a row of a trace written before pod_cpu_cores was recorded
# and floats were written exactly: 16 columns, floats at 9 significant digits.
OLD_TRACE = (
    "interval,node_id,pod_id,app_id,qos,pod_cpu_util,pod_mem_util,node_cpu_total,"
    "node_cpu_offline,node_cpu_online,node_cpu_shared,node_mem_util,sys_cpu_total,"
    "sys_mem_total,l3_miss_rate,cpi\n"
    "0,node-00,batch-0,batch,BE,0.772712914,0.59478386,0.605961537,0.322011434,"
    "0.283950103,0.322011434,0.468070931,0.584426954,0.45838564,5061428.12,1.32470453\n"
)


def cfg_with(*overrides: str) -> dict:
    """Default scenario with dotted-path overrides, CLI-style 'a.b.c=value'."""
    cfg = default_config()
    if overrides:
        cfg = apply_overrides(cfg, list(overrides))
    return cfg


def loop_scenario(detector, predictor, mitigator, node_count: int):
    """A scenario to drive a ControlLoop by hand: apps web (LS) and batch (BE),
    each pod requesting 1 core and 1 GiB, on ``node_count`` nodes of 4 cores."""
    base = validate_config(default_config())
    apps = {
        app_id: replace(base.apps[app_id], cpu_request=1.0, mem_request=2.0**30)
        for app_id in ("web", "batch")
    }
    return replace(
        base,
        apps=apps,
        node_count=node_count,
        cpu_capacity=4.0,
        detector=detector,
        predictor=predictor,
        mitigator=mitigator,
    )


def trace_row(pod_id: str, app_id: str, node_id: str, qos: str, cores: float) -> TraceRow:
    """A pod's interval-0 trace row with its ids, QoS and cores; every other
    float column is 0 but the CPI, which is 1."""
    floats = dict.fromkeys(TraceRow._fields[5:], 0.0)
    floats.update(cpi=1.0, pod_cpu_cores=cores)
    return TraceRow(0, node_id, pod_id, app_id, qos, **floats)
