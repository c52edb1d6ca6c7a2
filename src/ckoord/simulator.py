"""Synthetic co-located cluster with a known interference oracle.

Discrete fixed-length intervals; per interval the engine generates demand,
injects any active interference, allocates node CPU across QoS classes,
derives the ground-truth CPI and latency samples from calibration constants
(all of which live in the scenario config), then hands the interval's trace
rows, one per pod and one per node, to the control loop and enforces
whatever it planned.  The rows it hands over are the rows it records.

The work is array operations over a per-pod layout: pods in node order,
then pod-id order, with (node, slot) index matrices for that order and for
each node's placement order.  The layout is rebuilt only when a pod is
evicted or rescheduled.  A step computes a block of intervals in one pass
of (intervals, pods) arrays, up to BLOCK_INTERVALS of them or to the
horizon; the next steps hand its intervals out in turn, each building its
rows as it is handed out.  The rest of a block is dropped, and the next
step computes a new one from the interval it asks for, after a new layout,
after a node's BE cap changes (compared by identity, since 0.0 == -0.0),
or when a step asks for an interval other than the block's next.  A block
has the bits of one interval at a time: the allocator's rows are
independent, and a row with no hungry slot keeps its bits through the
rounds other rows need; an interval with no injection adds zeros, as it
always did; and a block reads the draws of all its intervals but uses only
those of the intervals it hands out, so a dropped block leaves the rest in
the streams for the next.  The arrays reproduce, bit for bit, what a
per-pod Python loop computes, by three rules:
  * a sum Python adds left to right is the last running sum of
    ``np.add.accumulate`` (what ``np.cumsum`` does), never ``np.sum``, which
    adds pairwise from 8 terms on; each node's pod sums run in its
    placement order, the allocator's in pod-id order;
  * ``**`` and ``math.sin`` stay Python scalars, per node or per app:
    ``np.square`` and ``np.power`` round differently from ``x**2``;
  * Python's ``min``/``max`` keep their first argument on a tie; numpy's
    ``minimum``/``maximum`` need not (on x86 they keep the second), and
    0.0 against -0.0 is a tie, so both go through ``np.where``.

Determinism: one root seed; each (stream kind, pod) pair derives its own
generator, whose draws are consumed in order once per interval the pod is
present.  A block reads its intervals' draws ahead; a stream keeps the
draws a dropped block read but did not use, so an evicted pod resumes its
sequence where it stopped.  Latency-critical pods never change cadence
under mitigation (only BE pods are evicted), so mitigated and baseline runs
of the same seed stay sample-aligned where it matters.  Same config + seed
reproduces reports and traces byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterState, NodeState, QosClass
from .loop import ControlLoop, DecisionLog, IntervalOutcome, PlannedAction
from .mitigator import Evict, Suppress
from .mitigator import apply as apply_action
from .scenario import TruthParams, validate_config
from .trace import RATIO_MAX, NodeRow, TraceRow

REPORT_SCHEMA_VERSION = 1
BLOCK_INTERVALS = 32  # most intervals a block computes, and reads draws for
PHASES = ("normal", "interference")


def _lsum(values: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right as a Python loop adds them.

    Every term here is +0.0 or more, so starting from the first term rather
    than from 0.0 changes nothing."""
    return np.add.accumulate(values, axis=-1)[..., -1]


def _min(a, b):
    """Python's ``min(a, b)`` elementwise: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Python's ``max(a, b)`` elementwise: ``b`` only where ``b > a``."""
    return np.where(b > a, b, a)


def _nonzero(values: np.ndarray) -> np.ndarray:
    """``values`` with each 0 replaced by 1, to divide by where the quotient is unused."""
    return np.where(values == 0.0, 1.0, values)


def diurnal_demand(apps, interval: int, period: int) -> np.ndarray:
    """Requests/s for one pod of each app at one interval, before noise."""
    return np.array([
        p.base_rps * (1.0 + p.diurnal_amplitude * math.sin(
            2.0 * math.pi * (interval / period + p.phase_offset)
        ))
        for p in apps
    ])


def ground_truth_cpi(
    cpi_base: np.ndarray,
    contention: np.ndarray,
    miss_rate: np.ndarray,
    interference_boost: np.ndarray,
    truth: TruthParams,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """The oracle the prediction models are asked to learn, per pod.

    ``contention`` is the pod's node_cpu_total**2, squared by Python per
    node.  Quadratic node contention plus a normalized cache-miss term are
    fully visible through model features; the injected boost rides on top of
    them.  ``noise`` holds one standard normal draw per pod.
    """
    value = cpi_base * (
        1.0
        + truth.contention_gain * contention
        + truth.cache_gain * (miss_rate / truth.miss_scale)
        + interference_boost
    )
    if noise is not None:
        value = value * (1.0 + truth.cpi_noise_std * noise)
    return _max(truth.cpi_floor_fraction * cpi_base, value)


def utilization_rho(want: np.ndarray, allocated: np.ndarray, rho_max: float) -> np.ndarray:
    """Per pod: want / allocated cores, capped at rho_max; rho_max when
    nothing is allocated and 0 when nothing is wanted."""
    ratio = np.divide(want, allocated, out=np.full(want.shape, rho_max), where=allocated > 0)
    return np.where(want > 0, _min(rho_max, ratio), 0.0)


def latency_model(
    base_ms: np.ndarray,
    cpi_act: np.ndarray,
    cpi_base: np.ndarray,
    rho: np.ndarray,
    exponent: float,
    jitter: np.ndarray | None,
    batches: int,
) -> np.ndarray:
    """One latency sample per pod and request batch: shape (..., pods,
    batches) for (..., pods) inputs.

    Central value: base * (CPI/CPI_base)^exponent / (1 - rho), with ``**``
    taken per pod in Python; ``jitter`` holds the multiplicative lognormal
    factors that give the batch-to-batch spread (None: no spread).
    """
    if rho.size and not (rho.min() >= 0.0 and rho.max() < 1.0):
        raise ValueError(f"rho {rho.min()}..{rho.max()} outside [0, 1)")
    ratio = cpi_act / cpi_base
    scaled = np.array([r**exponent for r in ratio.ravel().tolist()]).reshape(ratio.shape)
    central = base_ms * scaled / (1.0 - rho)
    if jitter is None:
        return np.repeat(central[..., None], batches, axis=-1)
    return central[..., None] * jitter


def allocate_cpu(
    want: np.ndarray,
    weight: np.ndarray,
    best_effort: np.ndarray,
    avail: np.ndarray,
    be_cap: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted fair shares with water-filling, every node at once.

    Rows are nodes, each independent of the others (a block stacks its
    intervals' nodes), and columns pod slots in pod-id order: ``want`` cores,
    ``weight`` (QoS weight times request) and ``best_effort`` per slot, an
    empty slot having want and weight 0; ``avail`` cores and ``be_cap`` per
    node, NaN where the node has no BE cap.  Returns (usage, potential) in
    cores per slot: a row's usage sums to at most its avail, its BE usage
    to at most its cap.  potential >= usage is the headroom used for
    queueing delay.
    """
    avail = _max(0.0, avail)
    total_w = _nonzero(_lsum(weight))[:, None]
    share = avail[:, None] * weight / total_w
    capped = be_cap == be_cap  # not NaN
    capped_be = best_effort & capped[:, None]
    any_capped = capped_be.any()
    if any_capped:
        be_share = _lsum(np.where(best_effort, share, 0.0))
        over = capped & best_effort.any(axis=1) & (be_share > be_cap)
        if over.any():
            scale = np.where(be_share > 0, be_cap / _nonzero(be_share), 0.0)[:, None]
            scaled = best_effort & over[:, None]
            freed = _lsum(np.where(scaled, share * (1.0 - scale), 0.0))[:, None]
            share = np.where(scaled, share * scale, share)
            other_w = _lsum(np.where(best_effort, 0.0, weight))
            gains = ~best_effort & (over & (other_w > 0))[:, None]
            share = np.where(gains, share + freed * weight / _nonzero(other_w)[:, None], share)

    usage = _min(want, share)
    extra = np.zeros_like(share)
    for _ in range(3):
        # a node whose round finds no leftover or no hungry slot changes no
        # more: its later rounds find the same
        leftover = avail - _lsum(usage)
        hungry = (want - usage > 1e-12) & (leftover > 1e-12)[:, None]
        if any_capped:
            headroom = np.where(capped, be_cap - _lsum(np.where(best_effort, usage, 0.0)), np.inf)
            hungry &= ~capped_be | (headroom > 1e-12)[:, None]
        if not hungry.any():
            break
        hungry_w = _nonzero(_lsum(np.where(hungry, weight, 0.0)))
        grant = leftover[:, None] * weight / hungry_w[:, None]
        # a capped node's BE slots draw one at a time on the headroom the
        # slots before them left; every other slot's grant is its own
        serial = hungry & capped_be if any_capped else None
        parallel = hungry if serial is None else hungry & ~serial
        grown = np.where(parallel, _min(want, usage + grant), usage)
        for slot in () if serial is None else np.flatnonzero(serial.any(axis=0)):
            rows = np.flatnonzero(serial[:, slot])
            room = headroom[rows]
            before = usage[rows, slot]
            after = _min(want[rows, slot], before + _min(grant[rows, slot], _max(0.0, room)))
            grown[rows, slot] = after
            headroom[rows] = room - (after - before)
        # usage never falls, so each slot adds +0.0 or more: a slot that got
        # nothing keeps its bits
        extra += grown - usage
        usage = grown

    idle = _max(0.0, avail - _lsum(usage))[:, None]
    base = _max(usage, share + extra)
    bonus = idle * weight / total_w
    if any_capped:
        base = np.where(capped_be, _min(_max(usage, base), _max(usage, be_cap[:, None])), base)
        bonus = np.where(capped_be, 0.0, bonus)
    return usage, base + bonus


def nearest_rank(ordered, k: float) -> float:
    """Nearest-rank percentile of ascending samples: the ceil(k/100 * N)-th smallest."""
    if len(ordered) == 0:
        raise ValueError("no samples")
    if not 0 < k <= 100:
        raise ValueError(f"percentile {k} outside (0, 100]")
    rank = math.ceil(k / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


class _Stream:
    """One (kind, pod) generator, read ahead: ``peek`` shows the next draws
    without using them, ``advance`` uses them.  At most 2n - 1 draws are held
    for reads of n."""

    __slots__ = ("rng", "held", "pos")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.held = np.empty(0)
        self.pos = 0

    def peek(self, n: int) -> np.ndarray:
        if self.held.size - self.pos < n:
            self.held = np.concatenate((self.held[self.pos :], self.rng.standard_normal(n)))
            self.pos = 0
        return self.held[self.pos : self.pos + n]

    def advance(self, n: int) -> None:
        self.pos += n


class _Layout:
    """The present pods as arrays, in row order: node order, then pod-id order.

    ``valid`` marks the (node, slot) cells in that order, so ``m[valid]`` is
    a row-order vector and ``m[valid] = v`` its matrix; ``place`` indexes
    each node's pods in placement order, empty slots pointing one past the
    last pod.  ``draws`` holds, per kind of draw, its streams (one per pod
    that draws it), its standard normals per interval and its transform.
    """

    def __init__(self, sim: Simulator) -> None:
        state, scenario = sim.state, sim.scenario
        self.nodes = nodes = [state.nodes[node_id] for node_id in sorted(state.nodes)]
        placed = [sorted(node.pod_ids) for node in nodes]
        pods = [pid for pids in placed for pid in pids]
        profiles = [state.pods[pid] for pid in pods]
        count = len(pods)
        sizes = [len(pids) for pids in placed]
        width = max(1, *sizes)
        self.valid = np.arange(width) < np.array(sizes)[:, None]
        self.node_of = np.repeat(np.arange(len(nodes)), sizes)
        self.node_index = self.node_of.tolist()
        self.node_pos = {node.node_id: k for k, node in enumerate(nodes)}
        # one term per node, added left to right
        self.total_capacity = float(_lsum(np.full(len(nodes), state.cpu_capacity)))
        self.total_mem_capacity = float(_lsum(np.full(len(nodes), state.mem_capacity)))
        # what each node metric is a fraction of: cpu_total .. cpu_shared, mem_util
        self.capacity = np.array([state.cpu_capacity] * 4 + [state.mem_capacity])[:, None, None]

        row_of = {pid: row for row, pid in enumerate(pods)}
        self.place = np.full(self.valid.shape, count)
        for k, node in enumerate(nodes):
            self.place[k, : len(node.pod_ids)] = [row_of[pid] for pid in node.pod_ids]
        qos = [profile.qos for profile in profiles]
        # per pod, 1.0 in its class's row: BE, SYSTEM, then LS or LSR
        self.classes = np.array(
            [[q is QosClass.BE for q in qos], [q is QosClass.SYSTEM for q in qos],
             [q.latency_critical for q in qos]], dtype=float,
        ).reshape(3, count)
        self.best_effort = np.zeros(self.valid.shape, dtype=bool)
        self.best_effort[self.valid] = self.classes[0] == 1.0
        self.weight = np.zeros(self.valid.shape)
        self.weight[self.valid] = [
            scenario.qos_weights[profile.qos.value] * profile.cpu_request for profile in profiles
        ]
        self.requests = np.array(
            [[profile.cpu_request for profile in profiles],
             [profile.mem_request for profile in profiles]]
        )

        self.apps = apps = list(scenario.apps.values())
        app_pos = {app.app_id: a for a, app in enumerate(apps)}
        self.app_of = np.array([app_pos[profile.app_id] for profile in profiles], dtype=np.intp)
        for name in ("cpu_per_request", "base_rps", "mem_footprint", "base_miss_rate",
                     "cpi_base", "latency_base_ms", "demand_noise_std"):
            setattr(self, name, np.array([getattr(app, name) for app in apps])[self.app_of])
        self.columns = (  # the trace row's id columns
            [nodes[k].node_id for k in self.node_index],
            pods,
            [profile.app_id for profile in profiles],
            [q.value for q in qos],
        )

        truth, wl = scenario.truth, scenario.workload
        self.noisy = np.flatnonzero(self.demand_noise_std > 0)
        self.has_rps = self.base_rps > 0
        self.rps_divisor = _nonzero(self.base_rps)
        self.mem_floor = 0.2 * self.mem_footprint
        sigma = wl.latency_jitter_sigma
        wanted = {
            "demand": ([pods[row] for row in self.noisy], 1, None),
            "miss": (pods if truth.miss_noise_std > 0 else [], 1, None),
            "cpi": (pods if truth.cpi_noise_std > 0 else [], 1, None),
            "latency": (pods if sigma > 0 else [], wl.batches_per_interval,
                        lambda block: np.exp(sigma * block)),
        }
        self.draws = {
            kind: ([sim._stream(kind, pid) for pid in ids], width, transform)
            for kind, (ids, width, transform) in wanted.items()
            if ids
        }


class _Block:
    """The intervals ``first`` .. ``stop - 1`` on one layout, computed in one
    pass while the node BE caps are ``caps``: arrays (intervals, ...) and,
    for the rows, per-interval lists of Python floats.  ``next`` is the
    interval the next step hands out.  It reads its intervals' draws from
    the layout's streams; ``release`` uses those of the intervals handed out."""

    def __init__(self, sim: Simulator, first: int) -> None:
        lay, state, scenario = sim._layout, sim.state, sim.scenario
        truth, wl = scenario.truth, scenario.workload
        count = max(1, min(BLOCK_INTERVALS, scenario.horizon - first))
        self.first = self.next = first
        self.stop = first + count
        nodes, valid = lay.nodes, lay.valid
        self.caps = [node.be_cpu_cap for node in nodes]
        self.draws = lay.draws
        drawn = {}  # per kind, shape (intervals, pods, width)
        for kind, (streams, width, transform) in lay.draws.items():
            block = np.stack([stream.peek(count * width) for stream in streams])
            block = block if transform is None else transform(block)
            drawn[kind] = block.reshape(-1, count, width).swapaxes(0, 1)

        effects, self.active = sim._interference_effects(first, count, lay.node_pos)
        hog_cpu, hog_mem, miss_gain, cpi_boost = effects.swapaxes(0, 1)
        hog = _min(hog_cpu, state.cpu_capacity)
        hog_mem = hog_mem * state.mem_capacity

        period = wl.period_intervals
        demand = np.array([diurnal_demand(lay.apps, t, period) for t in range(first, self.stop)])
        demand = demand[:, lay.app_of]
        noise = drawn.get("demand")
        if noise is not None:
            noisy = lay.noisy
            demand[:, noisy] = demand[:, noisy] * (1.0 + lay.demand_noise_std[noisy] * noise[..., 0])
        demand = _max(0.0, demand)
        want = demand * lay.cpu_per_request

        # the allocator's rows are (interval, node) pairs, interval-major
        wants = np.zeros((count, *valid.shape))
        wants[:, valid] = want
        caps = np.array([np.nan if cap is None else cap for cap in self.caps])
        usage, potential = allocate_cpu(
            wants.reshape(-1, valid.shape[1]), np.tile(lay.weight, (count, 1)),
            np.tile(lay.best_effort, (count, 1)), (state.cpu_capacity - hog).ravel(),
            np.tile(caps, count),
        )
        cores = usage.reshape(wants.shape)[:, valid]
        potential = potential.reshape(wants.shape)[:, valid]

        rel = np.where(lay.has_rps, demand / lay.rps_divisor - 1.0, 0.0)
        mem = _max(lay.mem_floor, lay.mem_footprint * (1.0 + wl.mem_demand_coupling * rel))
        ratios = _min(RATIO_MAX, np.array((cores, mem)) / lay.requests[:, None])

        # per pod its cores in its class's row and its memory, then a 0 that
        # empty slots point to; node sums run in placement order
        per_pod = np.zeros((4, count, cores.shape[1] + 1))
        per_pod[:3, :, :-1] = lay.classes[:, None] * cores
        per_pod[3, :, :-1] = mem
        be_used, sys_used, ls_used, mem_used = _lsum(per_pod[:, :, lay.place])
        mem_used = mem_used + hog_mem
        cpu_used = be_used + ls_used + sys_used + hog
        used = np.array((cpu_used, be_used, ls_used + sys_used, be_used + hog, mem_used))
        node_metrics = _min(1.0, used / lay.capacity)
        self.system = [
            (min(1.0, cpu / lay.total_capacity), min(1.0, mem / lay.total_mem_capacity))
            for cpu, mem in zip(_lsum(cpu_used).tolist(), _lsum(mem_used).tolist())
        ]

        cpu_total = node_metrics[0]
        factor = 1.0 + truth.miss_load_gain * cpu_total + miss_gain
        miss = lay.base_miss_rate * factor[:, lay.node_of]
        noise = drawn.get("miss")
        if noise is not None:
            miss = miss * (1.0 + truth.miss_noise_std * noise[..., 0])
        miss = _max(0.0, miss)
        contention = np.array([t**2 for t in cpu_total.ravel().tolist()]).reshape(cpu_total.shape)
        noise = drawn.get("cpi")
        self.cpi = ground_truth_cpi(
            lay.cpi_base, contention[:, lay.node_of], miss, cpi_boost[:, lay.node_of], truth,
            None if noise is None else noise[..., 0],
        )
        self.latency = latency_model(
            lay.latency_base_ms, self.cpi, lay.cpi_base,
            utilization_rho(want, potential, wl.rho_max), wl.latency_cpi_exponent,
            drawn.get("latency"), wl.batches_per_interval,
        )
        self.node_cpu = cpu_total
        # what the rows hold, per interval; the rows are built as it is handed out
        self.shared = node_metrics.transpose(1, 2, 0).tolist()
        self.cpu_util, self.mem_util = ratios.tolist()
        self.miss, self.cpi_values, self.cores = miss.tolist(), self.cpi.tolist(), cores.tolist()

    def serves(self, interval: int, nodes: list[NodeState]) -> bool:
        """Whether ``interval`` is this block's next, with every cap unchanged."""
        return interval == self.next < self.stop and all(
            node.be_cpu_cap is cap for node, cap in zip(nodes, self.caps)
        )

    def release(self) -> None:
        """Use the draws of the intervals handed out; the rest stay in the streams."""
        for streams, width, _ in self.draws.values():
            for stream in streams:
                stream.advance((self.next - self.first) * width)


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
        self._streams: dict[tuple[str, str], _Stream] = {}
        self._pending: deque = deque()  # (due_interval, pod_id, AppProfile)
        self._layout: _Layout | None = None  # built by the first step
        self._block: _Block | None = None  # computed by a step, on the layout

    # -- construction ----------------------------------------------------

    def _initial_state(self) -> ClusterState:
        scenario = self.scenario
        state = ClusterState(scenario.cpu_capacity, scenario.mem_capacity)
        names = scenario.node_ids
        for name in names:
            state.nodes[name] = NodeState(name)
        for profile in scenario.apps.values():
            for i in range(profile.replicas):
                pod_id = f"{profile.app_id}-{i}"
                state.pods[pod_id] = profile
                state.nodes[names[i % len(names)]].pod_ids.append(pod_id)
        return state

    def _stream(self, kind: str, entity: str) -> _Stream:
        key = (kind, entity)
        stream = self._streams.get(key)
        if stream is None:
            digest = hashlib.sha256(f"{kind}:{entity}".encode()).digest()
            stream = _Stream(np.random.default_rng(
                np.random.SeedSequence([self.seed, int.from_bytes(digest[:8], "big")])
            ))
            self._streams[key] = stream
        return stream

    def _relayout(self) -> None:
        """Pods left or arrived: the next step lays them out again."""
        if self._block is not None:
            self._block.release()
        self._layout = self._block = None

    # -- per-interval machinery -------------------------------------------

    def _interference_effects(
        self, first: int, count: int, node_pos: dict[str, int]
    ) -> tuple[np.ndarray, list[bool]]:
        """Per interval from ``first`` and per node, the active injections'
        summed cpu cores, memory fraction, miss gain and CPI boost, shape
        (intervals, 4, nodes) with zeros where none is active; and per
        interval whether any is."""
        effects = np.zeros((count, 4, len(node_pos)))
        active = [False] * count
        for inj in self.scenario.injections:
            kind = self.scenario.truth.kinds[inj.kind]
            added = (
                inj.intensity * kind.cpu_fraction * self.state.cpu_capacity,
                inj.intensity * kind.mem_fraction,
                inj.intensity * kind.miss_gain,
                inj.intensity * kind.cpi_boost,
            )
            for k in range(count):
                if inj.active(first + k):
                    effects[k, :, node_pos[inj.target_node]] += added
                    active[k] = True
        return effects, active

    def _reschedule_due(self, interval: int) -> int:
        count = 0
        state = self.state
        while self._pending and self._pending[0][0] <= interval:
            _, pod_id, profile = self._pending.popleft()
            # the least busy node of the last interval; every node has a row
            target = min(state.node_rows, key=lambda r: (r.node_cpu_total, r.node_id))
            state.pods[pod_id] = profile
            state.nodes[target.node_id].pod_ids.append(pod_id)
            count += 1
        if count:
            self._relayout()
        return count

    def step(self, interval: int) -> tuple[list[TraceRow], list[NodeRow], dict]:
        """Advance one interval; returns its pod rows, node rows and stats.

        There is one pod row per pod, in node order and then pod-id order,
        and one node row per node, hosting pods or not, in node-id order.
        The stats hold, per pod in row order, its app's index in the
        scenario, its CPI and its latency samples (pods x batches), and the
        cluster's two system fractions.  The state keeps the two row lists
        as the last interval's rows.  The interval comes from the current
        block, or from a new one computed from ``interval`` on.
        """
        state = self.state
        rescheduled = self._reschedule_due(interval)
        if self._layout is None:
            self._layout = _Layout(self)
        lay = self._layout
        block = self._block
        if block is None or not block.serves(interval, lay.nodes):
            if block is not None:
                block.release()
            block = self._block = _Block(self, interval)
        k = interval - block.first
        block.next += 1

        # each node's five values and the system's two: one list, whose
        # float objects every row on the node holds
        shared, system = block.shared[k], block.system[k]
        new = tuple.__new__  # a row type's own __new__ is a Python call
        node_rows = []
        for node, values in zip(lay.nodes, shared):
            node_rows.append(new(NodeRow, (interval, node.node_id, *values)))
            values += system

        node_ids, pod_ids, app_ids, qos = lay.columns
        rows = [  # in column order
            new(TraceRow, (interval, node_id, pid, app, q, cu, mu, *shared[n], l3, value, c))
            for node_id, pid, app, q, cu, mu, n, l3, value, c in zip(
                node_ids, pod_ids, app_ids, qos, block.cpu_util[k], block.mem_util[k],
                lay.node_index, block.miss[k], block.cpi_values[k], block.cores[k],
            )
        ]
        stats = {
            "rescheduled": rescheduled,
            "interference_active": block.active[k],
            "app": lay.app_of,
            "cpi": block.cpi[k],
            "latency": block.latency[k],
            "node_cpu": block.node_cpu[k],
            "system": system,
        }
        state.pod_rows, state.node_rows = rows, node_rows
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
                self._pending.extend((due, p, self.state.pods[p]) for p in action.pod_ids)
                apply_action(action, self.state)
                self._relayout()
                evicted += len(action.pod_ids)
        return evicted, suppressed

    def _clear_stale_caps(self) -> None:
        flagged = set(self.loop.flagged.entries)
        for node in self.state.nodes.values():
            if node.be_cpu_cap is None:
                continue
            hosted_apps = {self.state.pods[pid].app_id for pid in node.pod_ids}
            if not hosted_apps & flagged:
                node.be_cpu_cap = None

    # -- full run ----------------------------------------------------------

    def run(self) -> RunResult:
        scenario = self.scenario
        tally = _Tally()
        decisions = DecisionLog()
        trace_rows: list[TraceRow] = []
        node_rows: list[NodeRow] = []
        for interval in range(scenario.horizon):
            pod_rows, interval_nodes, stats = self.step(interval)
            trace_rows.extend(pod_rows)
            node_rows.extend(interval_nodes)
            outcome = self.loop.observe(
                interval, pod_rows, interval_nodes, scenario.controllers_enabled
            )
            decisions.add(outcome)
            enforced = (0, 0)
            if scenario.controllers_enabled:
                enforced = self._enforce(interval, outcome.actions)
                self._clear_stale_caps()
            tally.add(interval, stats, outcome, enforced)
        return RunResult(
            report=self._report(tally, decisions),
            trace_rows=trace_rows,
            node_rows=node_rows,
            action_log=decisions.action_lines(),
        )

    def _report(self, tally: _Tally, decisions: DecisionLog) -> dict:
        scenario = self.scenario
        injection_starts = sorted(inj.start_interval for inj in scenario.injections)
        for detection in decisions.detections:
            started = [s for s in injection_starts if s <= detection["interval"]]
            detection["lag_intervals"] = detection["interval"] - started[-1] if started else None
        latency, cpi_mean = tally.per_app(list(scenario.apps))
        node_cpu_mean = tally.node_cpu / scenario.horizon
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "seed": self.seed,
            "horizon": scenario.horizon,
            "sampling_period_s": scenario.sampling_period_s,
            "controllers_enabled": scenario.controllers_enabled,
            "config": self.cfg,
            "phases": {phase: len(chunks) for phase, chunks in tally.pods.items()},
            "intervals": tally.records,
            "latency_ms": latency,
            "cpi_mean": cpi_mean,
            "detections": decisions.detections,
            "flag_events": decisions.flag_events,
            "actions": decisions.actions,
            "verdicts_evaluated": decisions.verdicts_evaluated,
            "deferrals": decisions.deferrals,
            "evictions": tally.evictions,
            "reschedules": tally.reschedules,
            "suppressions": tally.suppressions,
            "models": self.loop.models_trained,
            "node_cpu_mean": dict(zip(sorted(self.state.nodes), node_cpu_mean.tolist())),
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


class _Tally:
    """What a run keeps of each interval for its report."""

    def __init__(self) -> None:
        # per phase, each interval's (app index, CPI, latency samples) per pod
        self.pods: dict[str, list[tuple]] = {phase: [] for phase in PHASES}
        self.records: list[dict] = []
        self.node_cpu = 0.0  # per node in node-id order, summed over intervals
        self.reschedules = self.evictions = self.suppressions = 0

    def add(
        self, interval: int, stats: dict, outcome: IntervalOutcome, enforced: tuple[int, int]
    ) -> None:
        phase = "interference" if stats["interference_active"] else "normal"
        self.pods[phase].append((stats["app"], stats["cpi"], stats["latency"]))
        self.node_cpu = self.node_cpu + stats["node_cpu"]
        self.reschedules += stats["rescheduled"]
        self.evictions += enforced[0]
        self.suppressions += enforced[1]
        self.records.append(
            {
                "interval": interval,
                "phase": phase,
                "sys_cpu_total": stats["system"][0],
                "sys_mem_total": stats["system"][1],
                "flagged_apps": outcome.flagged_apps,
                "verdicts": len(outcome.verdicts),
                "detections": sum(1 for v in outcome.verdicts if v.detected),
                "actions": len(outcome.actions),
            }
        )

    def per_app(self, apps: list[str]) -> tuple[dict, dict]:
        """Latency percentiles and mean CPI by app and phase; the CPI sum
        runs in row order, interval by interval."""
        latency = {app: {} for app in apps}
        cpi_mean = {app: {} for app in apps}
        for phase, chunks in self.pods.items():
            if not chunks:
                for app in apps:
                    latency[app][phase] = cpi_mean[app][phase] = None
                continue
            app_of, cpi, samples = (np.concatenate(part) for part in zip(*chunks))
            for a, app in enumerate(apps):
                mine = app_of == a
                values = cpi[mine]
                latency[app][phase] = _percentile_block(samples[mine].ravel())
                cpi_mean[app][phase] = float(_lsum(values) / len(values)) if len(values) else None
        return latency, cpi_mean


def _percentile_block(samples) -> dict | None:
    """Count and nearest-rank p50/p90/p99 of the samples, in any order; None if none."""
    if len(samples) == 0:
        return None
    ordered = np.sort(samples)
    return {
        "count": len(ordered),
        "p50": float(nearest_rank(ordered, 50)),
        "p90": float(nearest_rank(ordered, 90)),
        "p99": float(nearest_rank(ordered, 99)),
    }


def run_scenario(cfg: dict, seed: int) -> RunResult:
    return Simulator(cfg, seed).run()


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
