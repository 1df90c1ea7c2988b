"""Hedged repair reads, suspicion re-plans and seeded retry-backoff
jitter, on both repairers (the baseline runner and ChameleonEC)."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.core import ChameleonRepair
from repro.errors import SimulationError, SchedulingError
from repro.monitor import BandwidthMonitor
from repro.repair import ConventionalRepair, HedgePolicy, RepairRunner

CHUNK = 16 * MB
SLICE = 4 * MB


def make_env(num_nodes=12, num_stripes=20, seed=0):
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=0, link_bw=mbs(100),
        disk_read_bw=mbs(1000), disk_write_bw=mbs(1000),
    )
    store = place_stripes(RSCode(4, 2), num_stripes, cluster.storage_ids,
                          chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


def make_repairer(kind, cluster, store, injector, **overrides):
    overrides.setdefault("chunk_size", CHUNK)
    overrides.setdefault("slice_size", SLICE)
    if kind == "runner":
        overrides.setdefault("concurrency", 4)
        return RepairRunner(
            cluster, store, injector, ConventionalRepair(seed=1), **overrides
        )
    overrides.setdefault("max_inflight", 4)
    # The monitor samples forever, so ChameleonEC runs need a time bound.
    monitor = BandwidthMonitor(cluster)
    monitor.start()
    return ChameleonRepair(cluster, store, injector, monitor, **overrides)


class _StubRecorder:
    def __init__(self, value):
        self.value = value

    def latest(self, series, default=0.0):
        return self.value


class TestHedgePolicy:
    def test_fixed_delay_wins(self):
        policy = HedgePolicy(fixed_delay=1.5, min_delay=9.0)
        assert policy.delay() == 1.5

    def test_min_delay_floor_without_telemetry(self):
        assert HedgePolicy(min_delay=2.0).delay() == 2.0

    def test_delay_tracks_live_p99(self):
        policy = HedgePolicy(
            recorder=_StubRecorder(1.0), multiplier=4.0, min_delay=2.0
        )
        assert policy.delay() == 4.0
        policy.recorder = _StubRecorder(0.1)
        assert policy.delay() == 2.0  # floor dominates a calm cluster

    def test_validation(self):
        with pytest.raises(SimulationError):
            HedgePolicy(multiplier=0.0)
        with pytest.raises(SimulationError):
            HedgePolicy(min_delay=0.0)
        with pytest.raises(SimulationError):
            HedgePolicy(fixed_delay=0.0)


class TestHedgedRepair:
    # Which repairer make_repairer builds; each *Chameleon subclass
    # reruns the inherited tests on ChameleonRepair.
    kind = "runner"

    def test_no_hedge_without_policy(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_repairer(self.kind, cluster, store, injector)
        repairer.repair(report.failed_chunks)
        cluster.sim.run(until=200.0)
        assert repairer.done
        assert repairer.hedges_launched == 0

    def test_straggling_helper_triggers_hedge(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_repairer(
            self.kind, cluster, store, injector, hedge=HedgePolicy(fixed_delay=0.5)
        )
        # Throttle one helper's uplink mid-repair: its chunks run past
        # the hedge delay and a backup plan races them around it.
        def throttle():
            node = cluster.node(1)
            node.uplink.set_capacity(node.uplink.capacity * 0.01)

        cluster.sim.call_at(0.1, throttle)
        repairer.repair(report.failed_chunks)
        cluster.sim.run(until=200.0)
        assert repairer.done
        assert len(repairer.completed) == len(report.failed_chunks)
        assert len(set(repairer.completed)) == len(repairer.completed)
        assert repairer.hedges_launched > 0
        if self.kind == "runner":
            # ChameleonEC's primaries outrun every backup here (its
            # dispatcher already steers load off the slow node).
            assert repairer.hedges_won > 0

    def test_hedge_repairs_stay_exactly_once(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_repairer(
            self.kind, cluster, store, injector, hedge=HedgePolicy(fixed_delay=0.5)
        )

        def throttle():
            node = cluster.node(2)
            node.uplink.set_capacity(node.uplink.capacity * 0.01)

        cluster.sim.call_at(0.1, throttle)
        repairer.repair(report.failed_chunks)
        cluster.sim.run(until=200.0)
        assert repairer.done
        assert repairer.hedges_won > 0
        # A raced chunk completes exactly once, whichever plan won.
        assert len(repairer.completed) == len(report.failed_chunks)
        assert len(set(repairer.completed)) == len(repairer.completed)


class TestHedgedRepairChameleon(TestHedgedRepair):
    kind = "chameleon"


class TestSuspicionReplan:
    kind = "runner"

    def test_helper_suspected_replans_in_flight_work(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_repairer(self.kind, cluster, store, injector)
        repairer.repair(report.failed_chunks)
        cluster.sim.run(until=0.05)
        touched = {
            helper
            for instance in repairer.in_flight.values()
            for helper in instance.plan.source_nodes
        }
        victim = sorted(touched)[0]
        repairer.helper_suspected(victim)
        assert repairer.suspect_replans > 0
        cluster.sim.run(until=200.0)
        assert repairer.done
        assert len(repairer.completed) == len(report.failed_chunks)


class TestSuspicionReplanChameleon(TestSuspicionReplan):
    kind = "chameleon"


class TestCrashedRepairer:
    @pytest.mark.parametrize("kind", ["runner", "chameleon"])
    def test_crashed_repairer_is_never_done(self, kind):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_repairer(kind, cluster, store, injector)
        repairer.repair(report.failed_chunks)
        cluster.sim.run(until=0.05)
        repairer.crash()
        assert repairer.crashed
        assert repairer.completed == []
        # Its open work now belongs to a recovered replacement.
        assert not repairer.done
        cluster.sim.run(until=200.0)
        assert not repairer.done


class TestRetryJitter:
    kind = "runner"

    def test_validation(self):
        cluster, store, injector = make_env()
        with pytest.raises(SchedulingError):
            make_repairer(self.kind, cluster, store, injector, retry_jitter=1.0)
        with pytest.raises(SchedulingError):
            make_repairer(self.kind, cluster, store, injector, retry_jitter=-0.1)

    def test_disabled_jitter_draws_nothing(self):
        cluster, store, injector = make_env()
        repairer = make_repairer(
            self.kind, cluster, store, injector, retry_jitter=0.0, jitter_seed=123
        )
        # The zero setting must be byte-identical to no jitter at all:
        # no RNG even exists to perturb the event sequence.
        assert repairer._jitter_rng is None

    def _finish_time(self, retry_jitter, jitter_seed=0):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_repairer(
            self.kind, cluster, store, injector,
            retry_jitter=retry_jitter, jitter_seed=jitter_seed,
            chunk_timeout=1.0, retry_backoff=0.5,
        )
        # A mid-repair partition stalls cross-cut flows until heal;
        # chunk_timeout expires first, so retries (and their backoff
        # delays) actually happen.
        pid = []
        cluster.sim.call_at(0.05, lambda: pid.append(
            cluster.apply_partition([[1, 2]])
        ))
        cluster.sim.call_at(4.0, lambda: cluster.heal_partition(pid[0]))
        repairer.repair(report.failed_chunks)
        cluster.sim.run(until=500.0)
        assert repairer.done
        assert repairer.retries > 0
        assert len(repairer.completed) == len(report.failed_chunks)
        return repairer.meter.finished_at

    def test_zero_jitter_matches_default_exactly(self):
        assert self._finish_time(0.0, jitter_seed=77) == self._finish_time(0.0)

    def test_jittered_runs_are_seed_deterministic(self):
        first = self._finish_time(0.5, jitter_seed=5)
        second = self._finish_time(0.5, jitter_seed=5)
        assert first == second


class TestRetryJitterChameleon(TestRetryJitter):
    kind = "chameleon"
