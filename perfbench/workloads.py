"""The benchmark's three workloads: build inputs, run them, check outputs.

Each workload is split into ``build`` (everything before the first
simulated event: config, testbed, fault timelines, request streams) and
``run`` (drive the simulator to completion, then verify the simulated
outputs). Only ``run`` is timed as ``wall_s``; ``build`` is part of
``setup_s``.

The repro package is imported inside the functions, never at module
level, so run.py can re-import it between set-up samples and each
run binds to whichever module objects are current.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

#: Workload sizes. ``instances`` independent inputs make one pass; each
#: instance draws its own seed from the run's ``--seed``.
SIZES = {
    "repair-ycsb": {"instances": 3, "scale": 0.05},
    "repair-chaos": {"instances": 3, "scale": 0.08, "scenario_seed": 0},
    "flow-mix": {"instances": 3, "nodes": 30, "flows": 2250, "window_s": 45.0},
}

#: Sizes small enough for the benchmark's own tests (a few seconds).
TINY_SIZES = {
    "repair-ycsb": {"instances": 1, "scale": 0.03},
    "repair-chaos": {"instances": 1, "scale": 0.03, "scenario_seed": 0},
    "flow-mix": {"instances": 1, "nodes": 12, "flows": 200, "window_s": 10.0},
}

#: Relative slack for byte-conservation checks: resource counters add
#: many settled deltas while the expectation adds whole flow sizes.
BYTES_RTOL = 1e-9


def instance_seeds(seed: int, count: int) -> list[int]:
    """Independent per-instance seeds derived from the run's seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class Stopwatch:
    """Times the region it wraps (the untraced run)."""

    start = stop = seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stop = time.perf_counter()
        self.seconds = self.stop - self.start


class CompletionLog:
    """Records every flow completion: the run's timeline and byte count.

    Installed on ``FlowScheduler.start_flow`` for every run, traced or
    not, so both produce the same digest. The hook only reads the flow.
    ``host`` holds the host clock at each completion: the completion
    sequence is deterministic, so it cuts every repetition of an
    instance into the same segments of work.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.host: list[float] = []
        self.bytes = 0.0

    def on_complete(self, flow) -> None:
        self.host.append(time.perf_counter())
        self.times.append(flow.completed_at)
        self.bytes += flow.size

    def install(self, flow_scheduler_cls):
        """Patch ``start_flow``; returns a function that undoes it."""
        original = flow_scheduler_cls.__dict__["start_flow"]
        hook = self.on_complete

        def start_flow(sched, flow):
            flow.on_complete.append(hook)
            return original(sched, flow)

        flow_scheduler_cls.start_flow = start_flow
        return lambda: setattr(flow_scheduler_cls, "start_flow", original)


@dataclass
class Outcome:
    """What one instance run produced, plus its output-check failures."""

    wall_s: float
    events: int
    flow_bytes: float
    makespan_s: float
    fg_p99_s: float
    ops: int
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    #: Work counts for the traced run (chunks, retries, requests).
    counts: dict = field(default_factory=dict)
    #: Host clock at each flow completion (``CompletionLog.host``).
    host_marks: list[float] = field(default_factory=list)


def digest_of(events: int, times: list[float], sim_values: list[float]) -> str:
    """sha256 over the event count, completion timeline and sim values."""
    doc = {
        "events": events,
        "timeline": [t.hex() for t in times],
        "sim": [float(v).hex() for v in sim_values],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# -- repair-ycsb ---------------------------------------------------------------


def build_repair_ycsb(seed: int, size: dict):
    """One ChameleonEC instance: the scaled 20-node RS(10,4) testbed."""
    from repro.api import Testbed
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig.scaled(size["scale"], seed=seed)
    return config, Testbed.build(config)


def run_repair_ycsb(inputs, region) -> Outcome:
    """ChameleonEC repairs one failed node under four YCSB-A clients."""
    from repro.experiments.harness import run_repair_experiment

    config, testbed = inputs
    log = CompletionLog()
    undo = log.install(type(testbed.cluster.flows))
    try:
        with region:
            result = run_repair_experiment(config, "ChameleonEC", scenario=testbed)
    finally:
        undo()
    repairer = result.extras["repairer"]
    failures: list[str] = []
    completed = repairer.completed
    if len(set(completed)) != len(completed):
        failures.append("repaired-exactly-once")
    failures.extend(f"chunk-lost:{chunk}" for chunk in repairer.lost)
    if len(completed) + len(repairer.lost) != result.chunks:
        failures.append("repaired-or-lost")
    meter = repairer.meter
    if meter.chunks_repaired != len(completed) or (
        meter.repaired_bytes != len(completed) * config.chunk_size
    ):
        failures.append("repaired-bytes")
    events = testbed.cluster.sim.events_dispatched
    sim_values = [result.repair_time, result.p99_latency]
    return Outcome(
        wall_s=region.seconds,
        events=events,
        flow_bytes=log.bytes,
        makespan_s=result.repair_time,
        fg_p99_s=result.p99_latency,
        ops=result.chunks,
        failures=failures,
        host_marks=log.host,
        digest=digest_of(events, log.times, sim_values),
        counts={
            "repair.chunks": len(repairer.completed),
            "repair.failed_attempts": repairer.retries,
            "traffic.requests": result.foreground_requests,
        },
    )


# -- repair-chaos --------------------------------------------------------------


@dataclass
class ChaosInputs:
    config: object
    testbed: object
    churn: object
    rot: object
    traffic_seed: int


def build_repair_chaos(seed: int, size: dict) -> ChaosInputs:
    """exp17's fault composition, built before the first event."""
    from repro.api import Testbed
    from repro.experiments import exp17_chaos as exp17
    from repro.experiments.config import ExperimentConfig
    from repro.faults.timeline import FaultTimeline, NodeCrash

    config = ExperimentConfig.scaled(
        size["scale"],
        seed=size["scenario_seed"],
        chunk_mb=exp17.CHUNK_MB,
        trace="YCSB-A",
    )
    testbed = Testbed.build(config)
    testbed.enable_journal()
    testbed.enable_integrity()
    testbed.enable_timeseries(window=config.t_phase / exp17.WINDOWS_PER_PHASE)
    # fail_nodes(1) fails the first storage node once the warm-up ends.
    failed = testbed.cluster.storage_ids[0]
    alive = [n for n in testbed.cluster.storage_ids if n != failed]
    horizon = 2.0 * config.t_phase
    churn = FaultTimeline(seed=config.seed + 41).churn(
        nodes=alive,
        horizon=horizon,
        crashes=exp17.CRASHES,
        stragglers=exp17.STRAGGLERS,
        degradations=exp17.DEGRADATIONS,
        interruptions=exp17.INTERRUPTIONS,
        straggler_duration=0.5 * config.t_phase,
    ).fluctuate(
        nodes=alive,
        horizon=horizon,
        period=horizon / 4.0,
        amplitude=(0.5, 0.9),
        fraction=0.4,
    )
    doomed = {e.node_id for e in churn.events if isinstance(e, NodeCrash)}
    doomed.add(failed)
    safe = [
        chunk
        for chunk in testbed.chunk_store.chunks()
        if testbed.store.node_of(chunk) not in doomed
    ]
    rot = FaultTimeline(seed=config.seed + 23).rot(
        chunks=safe,
        horizon=0.5 * config.t_phase,
        corruptions=exp17.CORRUPTIONS,
        sector_errors=exp17.SECTOR_ERRORS,
        max_per_stripe=1,
    )
    return ChaosInputs(config, testbed, churn, rot, traffic_seed=seed)


def run_repair_chaos(inputs: ChaosInputs, region) -> Outcome:
    """ECPipe repairs through churn, bit-rot and a coordinator crash."""
    from repro.experiments import exp17_chaos as exp17
    from repro.journal.records import COMMITTED, ENQUEUED

    config, testbed = inputs.config, inputs.testbed
    sim = testbed.cluster.sim
    window = config.t_phase / exp17.WINDOWS_PER_PHASE
    scrub_rate_mbs = exp17.SCRUB_INTENSITY * config.disk_read_bw / 1e6

    def settled() -> bool:
        repairs_done = all(not r.crashed and r.done for r in testbed.repairers)
        ledger = testbed.ledger
        restored = all(r.restored_at is not None for r in ledger.injected)
        return repairs_done and not ledger.undetected and restored

    log = CompletionLog()
    undo = log.install(type(testbed.cluster.flows))
    try:
        with region:
            # The scenario is fixed; the run's seed draws only the
            # foreground traffic, which start_foreground seeds from the
            # config. The repairers keep the scenario's seed.
            testbed.config = config.with_(seed=inputs.traffic_seed)
            testbed.start_foreground()
            testbed.config = config
            sim.run(until=sim.now + exp17.WARMUP_WINDOWS * window)
            baseline_p99 = testbed.latency.p99
            report = testbed.fail_nodes(1)
            testbed.install_faults(inputs.rot)
            testbed.start_scrubber(rate_mbs=scrub_rate_mbs)
            first = testbed.make_repairer("ECPipe")
            first.repair(report.failed_chunks)
            testbed.install_faults(inputs.churn)
            testbed.inject_coordinator_crash(
                0.15 * config.t_phase, recover_after=0.1 * config.t_phase
            )
            testbed.run_until(settled, step=window)
            testbed.scrubber.stop()
            testbed.stop_foreground()
            testbed.run_until(testbed.foreground_done, step=window)
            testbed.timeseries.stop()
    finally:
        undo()

    store_bytes = len(testbed.store) * testbed.code.n * config.chunk_size
    pass_time = store_bytes / (scrub_rate_mbs * 1e6)
    detect_bound = 0.5 * config.t_phase + exp17.DETECT_PASS_MARGIN * pass_time
    testbed.set_slos(*exp17.gate_specs(config, detect_bound=detect_bound))
    gate = testbed.evaluate_slos(baseline_p99=baseline_p99)

    failures = [f"gate:{breach.slo}" for breach in gate.breaches]
    for record in testbed.ledger.injected:
        if record.restored_at is None:
            failures.append(f"corruption-restored:{record.chunk}")
    # Exactly once across coordinators: the journal may re-enqueue a
    # chunk (a crash or a scrub detection), but never commits it twice
    # within one enqueue.
    enqueued: dict = {}
    commits: list = []
    open_commit: set = set()
    for record in testbed.journal.records:
        if record.kind == ENQUEUED:
            enqueued[record.chunk] = None
            open_commit.discard(record.chunk)
        elif record.kind == COMMITTED:
            if record.chunk in open_commit:
                failures.append(f"repaired-exactly-once:{record.chunk}")
            open_commit.add(record.chunk)
            commits.append(record.chunk)
    state = testbed.journal.replay()
    for chunk in enqueued:
        if chunk not in state.committed and chunk not in state.lost:
            failures.append(f"repaired-or-lost:{chunk}")
    for chunk in state.lost:
        failures.append(f"chunk-lost:{chunk}")
    repairers = list(dict.fromkeys([first, *testbed.repairers]))
    meters = [r.meter for r in repairers]
    repaired = sum(m.chunks_repaired for m in meters)
    if repaired != len(commits):
        failures.append("repaired-count")
    if sum(m.repaired_bytes for m in meters) != len(commits) * config.chunk_size:
        failures.append("repaired-bytes")

    finished = [r.meter.finished_at for r in repairers if not r.crashed]
    makespan = max(finished) - first.meter.started_at
    p99 = testbed.latency.p99
    events = sim.events_dispatched
    return Outcome(
        wall_s=region.seconds,
        events=events,
        flow_bytes=log.bytes,
        makespan_s=makespan,
        fg_p99_s=p99,
        ops=len(enqueued),
        failures=failures,
        host_marks=log.host,
        digest=digest_of(events, log.times, [makespan, p99]),
        counts={
            "repair.chunks": len(state.committed),
            "repair.failed_attempts": sum(r.retries for r in repairers),
            "traffic.requests": testbed.latency.count,
        },
    )


# -- flow-mix ------------------------------------------------------------------

#: The kernel-scaling mix in bytes: 100 MB/s links, flows of 4-64 MB.
LINK_CAPACITY = 100e6
HOT_NODE_FRACTION = 0.05
HOT_TRAFFIC_FRACTION = 0.2
READ_FRACTION = 0.95


@dataclass
class FlowMixInputs:
    sim: object
    scheduler: object
    resources: list
    flows: list


def build_flow_mix(seed: int, size: dict) -> FlowMixInputs:
    """An open-loop YCSB-style read/update mix on the bare scheduler."""
    from repro.sim import Flow, FlowScheduler, Resource, Simulator

    nodes, count = size["nodes"], size["flows"]
    rng = np.random.default_rng(seed)
    hot = max(1, int(nodes * HOT_NODE_FRACTION))
    starts = rng.uniform(0, size["window_s"], count)
    is_hot = rng.random(count) < HOT_TRAFFIC_FRACTION
    servers = np.where(
        is_hot, rng.integers(0, hot, count), rng.integers(0, nodes, count)
    )
    clients = rng.integers(0, nodes, count)
    is_read = rng.random(count) < READ_FRACTION
    sizes = rng.integers(4, 64, count).astype(float) * 1e6

    sim = Simulator()
    scheduler = FlowScheduler(sim)
    uplinks = [Resource(f"n{i}-up", LINK_CAPACITY) for i in range(nodes)]
    downlinks = [Resource(f"n{i}-down", LINK_CAPACITY) for i in range(nodes)]
    flows = []
    for i in range(count):
        # Reads move server -> client; updates move client -> server.
        server, client = int(servers[i]), int(clients[i])
        src, dst = (server, client) if is_read[i] else (client, server)
        op = "read" if is_read[i] else "update"
        flow = Flow(f"q{i}", float(sizes[i]), (uplinks[src], downlinks[dst]), tag=op)
        flows.append(flow)
        # Look the method up at dispatch time, so wrappers installed
        # after the build (completion log, tracer) see every start.
        sim.schedule(float(starts[i]), lambda f=flow: scheduler.start_flow(f))
    return FlowMixInputs(sim, scheduler, uplinks + downlinks, flows)


def run_flow_mix(inputs: FlowMixInputs, region) -> Outcome:
    """Drain the mix; every flow completes and every byte is accounted."""
    log = CompletionLog()
    undo = log.install(type(inputs.scheduler))
    try:
        with region:
            inputs.sim.run()
    finally:
        undo()
    failures: list[str] = []
    expected: dict = {}
    durations = []
    for flow in inputs.flows:
        if not flow.done:
            failures.append(f"flow-completes:{flow.name}")
            continue
        durations.append(flow.completed_at - flow.started_at)
        for res in flow.resources:
            expected[res] = expected.get(res, 0.0) + flow.size
    for res in inputs.resources:
        want = expected.get(res, 0.0)
        if not math.isclose(res.total_bytes, want, rel_tol=BYTES_RTOL, abs_tol=1e-3):
            failures.append(f"byte-conservation:{res.name}")
    makespan = max(f.completed_at for f in inputs.flows if f.done)
    p99 = float(np.percentile(durations, 99))
    events = inputs.sim.events_dispatched
    return Outcome(
        wall_s=region.seconds,
        events=events,
        flow_bytes=log.bytes,
        makespan_s=makespan,
        fg_p99_s=p99,
        ops=len(inputs.flows),
        failures=failures,
        host_marks=log.host,
        digest=digest_of(events, log.times, [makespan, p99]),
    )


WORKLOADS = {
    "repair-ycsb": (build_repair_ycsb, run_repair_ycsb),
    "repair-chaos": (build_repair_chaos, run_repair_chaos),
    "flow-mix": (build_flow_mix, run_flow_mix),
}
