"""Synthetic co-located cluster with a known interference oracle.

Discrete fixed-length intervals; per interval the engine generates demand,
injects any active interference, allocates node CPU across QoS classes,
derives the ground-truth CPI and latency samples from calibration constants
(all of which live in the scenario config), then hands the interval's trace
rows, one per pod and one per node, to the control loop and enforces
whatever it planned.  The rows it hands over are the rows it records.

Determinism: one root seed; each (stream kind, pod) pair derives its own
generator, consumed in pod-id order once per interval the pod is present.
Latency-critical pods never change cadence under mitigation (only BE pods
are evicted), so mitigated and baseline runs of the same seed stay sample-
aligned where it matters.  Same config + seed reproduces reports and traces
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterState, NodeState, PodEntry, PodSpec, QosClass
from .loop import ControlLoop, DecisionLog, PlannedAction
from .mitigator import Evict, Suppress
from .mitigator import apply as apply_action
from .scenario import AppProfile, TruthParams, validate_config
from .trace import RATIO_MAX, NodeRow, TraceRow

REPORT_SCHEMA_VERSION = 1


def diurnal_demand(
    profile: AppProfile, interval: int, period: int, rng: np.random.Generator | None
) -> float:
    """Requests/s for one pod of the profile at one interval; never negative."""
    angle = 2.0 * math.pi * (interval / period + profile.phase_offset)
    demand = profile.base_rps * (1.0 + profile.diurnal_amplitude * math.sin(angle))
    if rng is not None and profile.demand_noise_std > 0:
        demand *= 1.0 + profile.demand_noise_std * rng.standard_normal()
    return max(0.0, demand)


def ground_truth_cpi(
    cpi_base: float,
    node_cpu_total: float,
    miss_rate: float,
    interference_boost: float,
    truth: TruthParams,
    rng: np.random.Generator | None,
) -> float:
    """The oracle the prediction models are asked to learn.

    Quadratic node contention plus a normalized cache-miss term are fully
    visible through model features; the injected boost rides on top of them.
    """
    value = cpi_base * (
        1.0
        + truth.contention_gain * node_cpu_total**2
        + truth.cache_gain * (miss_rate / truth.miss_scale)
        + interference_boost
    )
    if rng is not None and truth.cpi_noise_std > 0:
        value *= 1.0 + truth.cpi_noise_std * rng.standard_normal()
    return max(truth.cpi_floor_fraction * cpi_base, value)


def utilization_rho(
    demand_rps: float, cpu_per_request: float, allocated_cpu: float, rho_max: float
) -> float:
    want = demand_rps * cpu_per_request
    if want <= 0:
        return 0.0
    if allocated_cpu <= 0:
        return rho_max
    return min(rho_max, want / allocated_cpu)


def latency_model(
    base_ms: float,
    cpi_act: float,
    cpi_base: float,
    rho: float,
    exponent: float,
    jitter_sigma: float = 0.0,
    batches: int = 1,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One latency sample per request batch.

    Central value: base * (CPI/CPI_base)^exponent / (1 - rho); multiplicative
    lognormal jitter gives the batch-to-batch spread (none without an rng).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho {rho} outside [0, 1)")
    central = base_ms * (cpi_act / cpi_base) ** exponent / (1.0 - rho)
    if rng is None or jitter_sigma <= 0:
        return np.full(batches, central)
    return central * np.exp(jitter_sigma * rng.standard_normal(batches))


def allocate_cpu(
    pods: list[tuple[str, QosClass, float, float]],
    avail: float,
    be_cap: float | None,
    qos_weights: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """Weighted fair shares with water-filling.

    pods: (pod_id, qos, want_cores, request_cores).  Returns (usage, potential)
    in cores; sum(usage) <= avail, BE usage in aggregate <= be_cap when set.
    potential >= usage is the headroom used for queueing delay.
    """
    best_effort = QosClass.BE  # one lookup, not a property call per test
    usage: dict[str, float] = {}
    potential: dict[str, float] = {}
    if not pods:
        return usage, potential
    avail = max(0.0, avail)
    weights = {pid: qos_weights[qos.value] * req for pid, qos, _, req in pods}
    total_w = sum(weights.values())
    share = {pid: avail * weights[pid] / total_w for pid in weights}

    be_ids = [pid for pid, qos, _, _ in pods if qos is best_effort]
    if be_cap is not None and be_ids:
        be_share = sum(share[pid] for pid in be_ids)
        if be_share > be_cap:
            scale = be_cap / be_share if be_share > 0 else 0.0
            freed = 0.0
            for pid in be_ids:
                freed += share[pid] * (1.0 - scale)
                share[pid] *= scale
            other = [pid for pid, qos, _, _ in pods if qos is not best_effort]
            other_w = sum(weights[pid] for pid in other)
            if other_w > 0:
                for pid in other:
                    share[pid] += freed * weights[pid] / other_w

    wants = {pid: want for pid, _, want, _ in pods}
    for pid in wants:
        usage[pid] = min(wants[pid], share[pid])

    def be_headroom() -> float:
        if be_cap is None:
            return math.inf
        return be_cap - sum(usage[pid] for pid in be_ids)

    extra = {pid: 0.0 for pid in wants}
    for _ in range(3):
        leftover = avail - sum(usage.values())
        if leftover <= 1e-12:
            break
        hungry = [
            (pid, qos)
            for pid, qos, _, _ in pods
            if wants[pid] - usage[pid] > 1e-12
            and (qos is not best_effort or be_headroom() > 1e-12)
        ]
        if not hungry:
            break
        hungry_w = sum(weights[pid] for pid, _ in hungry)
        headroom = be_headroom()
        for pid, qos in hungry:
            grant = leftover * weights[pid] / hungry_w
            if qos is best_effort:
                grant = min(grant, max(0.0, headroom))
            before = usage[pid]
            usage[pid] = min(wants[pid], usage[pid] + grant)
            granted = usage[pid] - before
            extra[pid] += granted
            if qos is best_effort:
                headroom -= granted

    idle = max(0.0, avail - sum(usage.values()))
    for pid, qos, _, _ in pods:
        base = max(usage[pid], share[pid] + extra[pid])
        bonus = idle * weights[pid] / total_w
        if qos is best_effort and be_cap is not None:
            base = min(max(usage[pid], base), max(usage[pid], be_cap))
            bonus = 0.0
        potential[pid] = base + bonus
    return usage, potential


def nearest_rank(ordered: list[float], k: float) -> float:
    """Nearest-rank percentile of ascending samples: the ceil(k/100 * N)-th smallest."""
    if not ordered:
        raise ValueError("no samples")
    if not 0 < k <= 100:
        raise ValueError(f"percentile {k} outside (0, 100]")
    rank = math.ceil(k / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


@dataclass
class RunResult:
    report: dict
    trace_rows: list[TraceRow]
    node_rows: list[NodeRow]
    action_log: list[str] = field(default_factory=list)


class Simulator:
    def __init__(self, cfg: dict, seed: int) -> None:
        self.scenario = scenario = validate_config(cfg)
        self.cfg = cfg  # echoed into the report
        self.seed = int(seed)
        self.loop = ControlLoop(scenario)

        self.state = self._initial_state()
        self._streams: dict[tuple[str, str], np.random.Generator] = {}
        self._pending: deque = deque()  # (due_interval, PodSpec)
        self._last_rps: dict[str, float] = {}

    # -- construction ----------------------------------------------------

    def _initial_state(self) -> ClusterState:
        scenario = self.scenario
        state = ClusterState(interval=-1)
        names = scenario.node_ids
        for name in names:
            state.nodes[name] = NodeState(name, scenario.cpu_capacity, scenario.mem_capacity)
        for profile in scenario.apps.values():
            for i in range(profile.replicas):
                node_id = names[i % len(names)]
                spec = PodSpec(
                    pod_id=f"{profile.app_id}-{i}",
                    app_id=profile.app_id,
                    node_id=node_id,
                    qos=profile.qos,
                    cpu_request=profile.cpu_request,
                    mem_request=profile.mem_request,
                )
                state.pods[spec.pod_id] = PodEntry(spec)
                state.nodes[node_id].pod_ids.append(spec.pod_id)
        return state

    def _rng(self, kind: str, entity: str) -> np.random.Generator:
        key = (kind, entity)
        rng = self._streams.get(key)
        if rng is None:
            digest = hashlib.sha256(f"{kind}:{entity}".encode()).digest()
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, int.from_bytes(digest[:8], "big")])
            )
            self._streams[key] = rng
        return rng

    # -- per-interval machinery -------------------------------------------

    def _interference_effects(self, interval: int) -> dict[str, dict[str, float]]:
        effects: dict[str, dict[str, float]] = {}
        for inj in self.scenario.injections:
            if not inj.active(interval):
                continue
            kind = self.scenario.truth.kinds[inj.kind]
            node = effects.setdefault(
                inj.target_node,
                {"cpu": 0.0, "mem_fraction": 0.0, "miss_gain": 0.0, "cpi_boost": 0.0},
            )
            capacity = self.state.nodes[inj.target_node].cpu_capacity
            node["cpu"] += inj.intensity * kind.cpu_fraction * capacity
            node["mem_fraction"] += inj.intensity * kind.mem_fraction
            node["miss_gain"] += inj.intensity * kind.miss_gain
            node["cpi_boost"] += inj.intensity * kind.cpi_boost
        return effects

    def _reschedule_due(self, interval: int) -> int:
        count = 0
        while self._pending and self._pending[0][0] <= interval:
            _, spec = self._pending.popleft()
            target = min(
                self.state.nodes.values(),
                key=lambda n: (n.metrics.cpu_total, n.node_id),
            )
            new_spec = PodSpec(
                pod_id=spec.pod_id,
                app_id=spec.app_id,
                node_id=target.node_id,
                qos=spec.qos,
                cpu_request=spec.cpu_request,
                mem_request=spec.mem_request,
            )
            self.state.pods[new_spec.pod_id] = PodEntry(new_spec)
            target.pod_ids.append(new_spec.pod_id)
            count += 1
        return count

    def step(self, interval: int) -> tuple[list[TraceRow], list[NodeRow], dict]:
        """Advance one interval; returns its pod rows, node rows and stats.

        There is one pod row per pod, in node order and then pod-id order,
        and one node row per node, hosting pods or not, in node-id order.
        """
        state = self.state
        state.interval = interval
        rescheduled = self._reschedule_due(interval)
        effects = self._interference_effects(interval)
        pods_by_id = state.pods
        scenario = self.scenario
        profiles, truth = scenario.apps, scenario.truth

        demand: dict[str, float] = {}
        period = scenario.workload.period_intervals
        for pod_id in sorted(pods_by_id):
            profile = profiles[pods_by_id[pod_id].spec.app_id]
            rng = self._rng("demand", pod_id) if profile.demand_noise_std > 0 else None
            demand[pod_id] = diurnal_demand(profile, interval, period, rng)
        self._last_rps = demand

        # One node order, and one pod order per node, serve every pass below.
        nodes = [state.nodes[node_id] for node_id in sorted(state.nodes)]
        members: list[list[tuple[str, PodEntry, AppProfile]]] = []
        usage_all: dict[str, float] = {}
        potential_all: dict[str, float] = {}
        hog_cores: list[float] = []
        for node in nodes:
            effect = effects.get(node.node_id)
            hog = min(effect["cpu"] if effect else 0.0, node.cpu_capacity)
            hog_cores.append(hog)
            placed = []
            for pid in sorted(node.pod_ids):
                entry = pods_by_id[pid]
                placed.append((pid, entry, profiles[entry.spec.app_id]))
            members.append(placed)
            usage, potential = allocate_cpu(
                [
                    (pid, entry.spec.qos, demand[pid] * profile.cpu_per_request,
                     entry.spec.cpu_request)
                    for pid, entry, profile in placed
                ],
                node.cpu_capacity - hog,
                node.be_cpu_cap,
                scenario.qos_weights,
            )
            usage_all.update(usage)
            potential_all.update(potential)

        # metrics pass: pods, nodes, system
        total_capacity = sum(n.cpu_capacity for n in state.nodes.values())
        total_mem_capacity = sum(n.mem_capacity for n in state.nodes.values())
        mem_coupling = scenario.workload.mem_demand_coupling
        used_cores_sys = 0.0
        used_mem_sys = 0.0
        node_rows: list[NodeRow] = []
        for node, placed, hog in zip(nodes, members, hog_cores):
            effect = effects.get(node.node_id)
            be_used = ls_used = sys_used = mem_used = 0.0
            # placement order, not sorted order: it fixes the order of the sums
            for pid in node.pod_ids:
                entry = pods_by_id[pid]
                profile = profiles[entry.spec.app_id]
                metrics = entry.metrics
                cores = usage_all[pid]
                metrics.cpu_util = cores
                rel = demand[pid] / profile.base_rps - 1.0 if profile.base_rps > 0 else 0.0
                mem = profile.mem_footprint * (1.0 + mem_coupling * rel)
                metrics.mem_util = max(0.2 * profile.mem_footprint, mem)
                mem_used += metrics.mem_util
                qos = entry.spec.qos
                if qos is QosClass.BE:
                    be_used += cores
                elif qos is QosClass.SYSTEM:
                    sys_used += cores
                else:
                    ls_used += cores
            hog_mem = (effect["mem_fraction"] if effect else 0.0) * node.mem_capacity
            m = node.metrics
            m.cpu_total = min(1.0, (be_used + ls_used + sys_used + hog) / node.cpu_capacity)
            m.cpu_offline = min(1.0, be_used / node.cpu_capacity)
            m.cpu_online = min(1.0, (ls_used + sys_used) / node.cpu_capacity)
            m.cpu_shared = min(1.0, (be_used + hog) / node.cpu_capacity)
            m.mem_util = min(1.0, (mem_used + hog_mem) / node.mem_capacity)
            node_rows.append(
                NodeRow(interval, node.node_id, m.cpu_total, m.cpu_offline, m.cpu_online,
                        m.cpu_shared, m.mem_util)
            )
            used_cores_sys += be_used + ls_used + sys_used + hog
            used_mem_sys += mem_used + hog_mem

            miss_boost = effect["miss_gain"] if effect else 0.0
            factor = 1.0 + truth.miss_load_gain * m.cpu_total + miss_boost
            for pid, entry, profile in placed:
                miss = profile.base_miss_rate * factor
                if truth.miss_noise_std > 0:
                    rng = self._rng("miss", pid)
                    miss *= 1.0 + truth.miss_noise_std * rng.standard_normal()
                entry.metrics.l3_miss_rate = max(0.0, miss)

        system = state.system
        system.cpu_total_sys = min(1.0, used_cores_sys / total_capacity)
        system.mem_total_sys = min(1.0, used_mem_sys / total_mem_capacity)

        rows: list[TraceRow] = []
        for node, placed in zip(nodes, members):
            node_id = node.node_id
            m = node.metrics
            effect = effects.get(node_id)
            boost = effect["cpi_boost"] if effect else 0.0
            for pid, entry, profile in placed:
                spec = entry.spec
                metrics = entry.metrics
                rng = self._rng("cpi", pid) if truth.cpi_noise_std > 0 else None
                cpi = ground_truth_cpi(
                    profile.cpi_base, m.cpu_total, metrics.l3_miss_rate, boost, truth, rng
                )
                metrics.cpi_actual = cpi
                rows.append(  # in column order
                    TraceRow(
                        interval, node_id, pid, spec.app_id, spec.qos.value,
                        min(RATIO_MAX, metrics.cpu_util / spec.cpu_request),
                        min(RATIO_MAX, metrics.mem_util / spec.mem_request),
                        m.cpu_total, m.cpu_offline, m.cpu_online, m.cpu_shared, m.mem_util,
                        system.cpu_total_sys, system.mem_total_sys,
                        metrics.l3_miss_rate, cpi, metrics.cpu_util,
                    )
                )
        stats = {
            "rescheduled": rescheduled,
            "interference_active": bool(effects),
            "potential": potential_all,
        }
        return rows, node_rows, stats

    def _enforce(self, interval: int, actions: list[PlannedAction]) -> tuple[int, int]:
        evicted = suppressed = 0
        for planned in actions:
            action = planned.action
            if isinstance(action, Suppress):
                apply_action(action, self.state)
                suppressed += 1
            elif isinstance(action, Evict):
                due = interval + self.scenario.reschedule_delay
                self._pending.extend((due, self.state.pods[p].spec) for p in action.pod_ids)
                apply_action(action, self.state)
                evicted += len(action.pod_ids)
        return evicted, suppressed

    def _clear_stale_caps(self) -> None:
        flagged = set(self.loop.flagged.entries)
        for node in self.state.nodes.values():
            if node.be_cpu_cap is None:
                continue
            hosted_apps = {self.state.pods[pid].spec.app_id for pid in node.pod_ids}
            if not hosted_apps & flagged:
                node.be_cpu_cap = None

    # -- full run ----------------------------------------------------------

    def run(self) -> RunResult:
        scenario = self.scenario
        profiles = scenario.apps
        wl = scenario.workload
        latency: dict[str, dict[str, list[float]]] = {
            app: {"normal": [], "interference": []} for app in profiles
        }
        cpi_sum: dict[str, dict[str, list[float]]] = {
            app: {"normal": [], "interference": []} for app in profiles
        }
        trace_rows: list[TraceRow] = []
        node_rows: list[NodeRow] = []
        decisions = DecisionLog()
        interval_records: list[dict] = []
        injection_starts = sorted(inj.start_interval for inj in scenario.injections)
        evictions = 0
        reschedules = 0
        suppressions = 0
        node_cpu_running: dict[str, float] = {n: 0.0 for n in self.state.nodes}
        phase_counts = {"normal": 0, "interference": 0}

        for interval in range(scenario.horizon):
            pod_rows, interval_nodes, stats = self.step(interval)
            reschedules += stats["rescheduled"]
            phase = "interference" if stats["interference_active"] else "normal"
            phase_counts[phase] += 1
            potential = stats["potential"]
            rps = self._last_rps

            for row in pod_rows:
                profile = profiles[row.app_id]
                if profile.latency_base_ms > 0:
                    rho = utilization_rho(
                        rps[row.pod_id], profile.cpu_per_request, potential[row.pod_id], wl.rho_max
                    )
                    samples = latency_model(
                        profile.latency_base_ms,
                        row.cpi,
                        profile.cpi_base,
                        rho,
                        wl.latency_cpi_exponent,
                        wl.latency_jitter_sigma,
                        wl.batches_per_interval,
                        self._rng("latency", row.pod_id),
                    )
                    latency[row.app_id][phase].extend(samples.tolist())
                cpi_sum[row.app_id][phase].append(row.cpi)
            trace_rows.extend(pod_rows)
            node_rows.extend(interval_nodes)

            outcome = self.loop.observe(
                interval, pod_rows, interval_nodes, scenario.controllers_enabled
            )
            decisions.add(outcome)
            if scenario.controllers_enabled:
                step_evicted, step_suppressed = self._enforce(interval, outcome.actions)
                evictions += step_evicted
                suppressions += step_suppressed
                self._clear_stale_caps()
            interval_records.append(
                {
                    "interval": interval,
                    "phase": phase,
                    "sys_cpu_total": self.state.system.cpu_total_sys,
                    "sys_mem_total": self.state.system.mem_total_sys,
                    "flagged_apps": outcome.flagged_apps,
                    "verdicts": len(outcome.verdicts),
                    "detections": sum(1 for v in outcome.verdicts if v.detected),
                    "actions": len(outcome.actions),
                }
            )
            for node_id in self.state.nodes:
                node_cpu_running[node_id] += self.state.nodes[node_id].metrics.cpu_total

        for detection in decisions.detections:
            started = [s for s in injection_starts if s <= detection["interval"]]
            detection["lag_intervals"] = detection["interval"] - started[-1] if started else None

        report = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "seed": self.seed,
            "horizon": scenario.horizon,
            "sampling_period_s": scenario.sampling_period_s,
            "controllers_enabled": scenario.controllers_enabled,
            "config": self.cfg,
            "phases": phase_counts,
            "intervals": interval_records,
            "latency_ms": {
                app: {
                    phase: _percentile_block(samples)
                    for phase, samples in by_phase.items()
                }
                for app, by_phase in latency.items()
            },
            "cpi_mean": {
                app: {
                    phase: (sum(vals) / len(vals) if vals else None)
                    for phase, vals in by_phase.items()
                }
                for app, by_phase in cpi_sum.items()
            },
            "detections": decisions.detections,
            "flag_events": decisions.flag_events,
            "actions": decisions.actions,
            "verdicts_evaluated": decisions.verdicts_evaluated,
            "deferrals": decisions.deferrals,
            "evictions": evictions,
            "reschedules": reschedules,
            "suppressions": suppressions,
            "models": self.loop.models_trained,
            "node_cpu_mean": {
                node_id: total / scenario.horizon for node_id, total in node_cpu_running.items()
            },
            "interference_windows": [
                {
                    "target_node": inj.target_node,
                    "kind": inj.kind,
                    "start_interval": inj.start_interval,
                    "end_interval": inj.start_interval + inj.duration,
                    "intensity": inj.intensity,
                }
                for inj in scenario.injections
            ],
        }
        return RunResult(
            report=report,
            trace_rows=trace_rows,
            node_rows=node_rows,
            action_log=decisions.action_lines(),
        )


def _percentile_block(samples: list[float]) -> dict | None:
    if not samples:
        return None
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50": nearest_rank(ordered, 50),
        "p90": nearest_rank(ordered, 90),
        "p99": nearest_rank(ordered, 99),
    }


def run_scenario(cfg: dict, seed: int) -> RunResult:
    return Simulator(cfg, seed).run()


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
