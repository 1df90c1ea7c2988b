"""Host-time benchmark for the repro simulator.

    python3 perfbench/run.py --workload repair-ycsb --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in this
process on one thread, from the ``src/`` tree of the checkout it sits
in. A run runs every instance of the workload once, then repeats the
timed instance for ``--seconds``, sets up its inputs afresh before each
repetition, and checks every simulated output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
instance untraced and then traced (``layertrace.py``), requires the two
to produce the same digest and the outside-in counts to match the
program's own ``MetricsRegistry``, and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One thread: keep numpy's BLAS pools from starting workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Segments each run of the timed instance is cut into for ``wall_s``
#: (see ``segment_seconds``).
SEGMENTS = 512

END_TO_END = {
    "wall_s": "s",
    "flow_mb_per_s": "MB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "s",
    "sim_fg_p99_ms": "ms",
}

PER_LAYER = {
    "alloc.calls": "count",
    "alloc.self_s": "s",
    "alloc.us_per_call": "us",
    "alloc.noop_ratio": "ratio",
    "alloc.rates_changed": "rates/call",
    "alloc.active_flows_mean": "flows",
    "flows.started": "count",
    "flows.cancelled": "count",
    "flows.py_flow_ops": "count",
    "flows.self_s": "s",
    "engine.events": "count",
    "engine.self_s": "s",
    "transfers.started": "count",
    "transfers.control_calls": "count",
    "transfers.self_s": "s",
    "traffic.requests": "count",
    "traffic.self_s": "s",
    "repair.chunks": "count",
    "repair.failed_attempts": "count",
    "repair.self_s": "s",
    "core.self_s": "s",
    "faults.calls": "count",
    "faults.self_s": "s",
    "journal.calls": "count",
    "journal.self_s": "s",
    "integrity.calls": "count",
    "integrity.self_s": "s",
    "monitor.calls": "count",
    "monitor.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

#: (outside-in count, program registry counter) pairs that must agree.
CROSS_CHECKS = (
    ("alloc.calls", "alloc.passes"),
    ("flows.started", "flows.started"),
    ("engine.events", "sim.events_dispatched"),
)


def fresh_import() -> None:
    """Forget every repro module, then import the package again."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    importlib.import_module("repro")


def segment_seconds(start: float, marks: list[float], stop: float) -> list[float]:
    """Host seconds of each of ``SEGMENTS`` segments of one instance run.

    The cuts fall on fixed flow completions (equal counts apart), so
    every repetition of an instance cuts the same simulated work.
    """
    stamps = [start, *marks, stop]
    last = len(stamps) - 1
    cuts = sorted({round(j * last / SEGMENTS) for j in range(SEGMENTS + 1)})
    return [stamps[b] - stamps[a] for a, b in zip(cuts, cuts[1:])]


def least_interfered(repetitions: list[list[float]]) -> float:
    """Sum over segments of the fastest repetition of each segment.

    Other tenants of the host only ever add time, in bursts of a few
    seconds; a segment's minimum over repetitions of identical work is
    its cost with the least interference.
    """
    return sum(min(column) for column in zip(*repetitions))


class Bench:
    """One benchmark run: set-up, the measured loop, and the checks."""

    def __init__(self, workload: str, seed: int, size: dict) -> None:
        from workloads import WORKLOADS, instance_seeds

        self.size = size
        self.build, self.run = WORKLOADS[workload]
        self.seeds = instance_seeds(seed, size["instances"])
        self.failures: list[str] = []
        self.attempted = 0
        #: Host seconds of each set-up (``set_up``).
        self.setup_times: list[float] = []
        #: ``REFERENCE_S`` over this run's least-interfered reference sample.
        self.host_scale = 1.0
        #: Host seconds of each run of each instance (``--trace 0``).
        self.instance_walls: dict[int, list[float]] = {}

    def set_up(self, indices: list[int]) -> dict:
        """Import repro afresh, then build the inputs of ``indices``.

        Appends the host time of the import and the first build to
        ``setup_times``, so every sample is the same work.
        """
        start = time.perf_counter()
        fresh_import()
        inputs = {}
        for index in indices:
            inputs[index] = self.build(self.seeds[index], self.size)
            if len(inputs) == 1:
                self.setup_times.append(time.perf_counter() - start)
        return inputs

    def execute(self, inputs, region):
        """Run one instance inside ``region``; record its checks."""
        gc.collect()
        outcome = self.run(inputs, region)
        self.attempted += outcome.ops
        self.failures.extend(outcome.failures)
        return outcome

    def repeat(self, seconds: float, step, timed_only: bool, between=None) -> None:
        """Call ``step(index, inputs)`` in rounds over the instances.

        The first round runs every instance; later rounds run only the
        timed instance (index 0) if ``timed_only``, else every instance.
        Each round starts with ``between()``, if given, and a fresh
        set-up; neither counts against ``seconds``. After the first
        round, an instance runs again only if its last run, repeated,
        would end before ``seconds``.
        """
        deadline = time.perf_counter() + seconds
        indices = list(range(len(self.seeds)))
        last: dict[int, float] = {}
        while not last or time.perf_counter() + last[0] <= deadline:
            start = time.perf_counter()
            if between:
                between()
            inputs = self.set_up(indices)
            deadline += time.perf_counter() - start
            for index in indices:
                start = time.perf_counter()
                if index in last and start + last[index] > deadline:
                    return
                step(index, inputs.pop(index))
                last[index] = time.perf_counter() - start
            if timed_only:
                indices = [0]

    def same(self, name: str, values: list) -> None:
        """Record a failed check unless every repetition agrees."""
        if any(v != values[0] for v in values):
            self.failures.append(name)

    # -- trace 0 ------------------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        from calibrate import REFERENCE_S, SAMPLES, sample_block
        from workloads import Stopwatch

        runs: dict[int, list] = {i: [] for i in range(len(self.seeds))}
        segments: list = []
        reference: list[list[float]] = []

        def step(index, inputs):
            watch = Stopwatch()
            outcome = self.execute(inputs, watch)
            runs[index].append(outcome)
            if index == 0:
                segments.append(
                    segment_seconds(watch.start, outcome.host_marks, watch.stop)
                )

        def gauge():
            reference.append(sample_block())

        self.repeat(seconds, step, timed_only=True, between=gauge)
        gauge()
        for index, outs in runs.items():
            self.same(f"determinism:instance{index}", [o.digest for o in outs])
        self.instance_walls = {i: [o.wall_s for o in outs] for i, outs in runs.items()}
        firsts = [outs[0] for outs in runs.values()]
        # Host seconds rescaled to the reference host's speed. Each
        # reference sample gets as many chances to run undisturbed as
        # each segment of the timed instance: one per repetition.
        self.host_scale = REFERENCE_S * SAMPLES / least_interfered(reference)
        wall_s = least_interfered(segments) * self.host_scale
        return {
            "wall_s": wall_s,
            "flow_mb_per_s": firsts[0].flow_bytes / 1e6 / wall_s,
            "setup_s": statistics.median(self.setup_times) * self.host_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_makespan_s": statistics.median(o.makespan_s for o in firsts),
            "sim_fg_p99_ms": statistics.fmean(o.fg_p99_s for o in firsts) * 1e3,
        }

    # -- trace 1 ------------------------------------------------------------------

    def per_layer(self, seconds: float) -> dict:
        from layertrace import LAYERS, UNATTRIBUTED, LayerTracer
        from workloads import Stopwatch

        untraced: dict[int, list] = {i: [] for i in range(len(self.seeds))}
        traced: dict[int, list] = {i: [] for i in range(len(self.seeds))}

        def step(index, inputs):
            from repro.obs.metrics import MetricsRegistry, set_registry

            plain = self.execute(inputs, Stopwatch())
            twin = self.build(self.seeds[index], self.size)
            registry, tracer = MetricsRegistry(), LayerTracer()
            previous = set_registry(registry)
            try:
                outcome = self.execute(twin, tracer)
            finally:
                set_registry(previous)
            if outcome.digest != plain.digest:
                self.failures.append(f"trace-digest:instance{index}")
            counters = registry.snapshot()
            counts = {**tracer.counts, **outcome.counts}
            for ours, theirs in CROSS_CHECKS:
                program = counters.get(theirs, {}).get("value", 0)
                if counts[ours] != program:
                    self.failures.append(f"cross-check:{ours}!={theirs}")
            counts["flows.py_flow_ops"] = tracer.py_flow_ops
            for layer, calls in tracer.clock.calls.items():
                counts[f"{layer}.calls"] = calls
            untraced[index].append(plain.wall_s)
            traced[index].append((tracer.clock.wall_s, tracer.clock.self_s, counts))

        self.repeat(seconds, step, timed_only=False)
        plain_wall = traced_wall = 0.0
        self_s = dict.fromkeys((*LAYERS, UNATTRIBUTED), 0.0)
        counts: dict = {}
        for index, reps in traced.items():
            self.same(f"trace-counts-repeat:instance{index}", [r[2] for r in reps])
            # The repetition with the median traced wall, whole, so its
            # self times still partition its wall time.
            wall, layer_s, rep_counts = sorted(reps, key=lambda r: r[0])[len(reps) // 2]
            traced_wall += wall
            plain_wall += statistics.median(untraced[index])
            for layer, value in layer_s.items():
                self_s[layer] += value
            for name, value in rep_counts.items():
                counts[name] = counts.get(name, 0) + value
        calls = counts["alloc.calls"]
        metrics = {
            "alloc.calls": calls,
            "alloc.self_s": self_s["alloc"],
            "alloc.us_per_call": self_s["alloc"] / calls * 1e6 if calls else 0.0,
            "alloc.noop_ratio": counts["alloc.noop_calls"] / calls if calls else 0.0,
            "alloc.rates_changed": counts["alloc.rates_changed"] / calls if calls else 0.0,
            "alloc.active_flows_mean": counts["alloc.active_flows"] / calls if calls else 0.0,
            "trace.wall_s": traced_wall,
            "trace.overhead_ratio": traced_wall / plain_wall,
            "trace.unattributed_s": self_s[UNATTRIBUTED],
        }
        for name in PER_LAYER:
            layer, _, what = name.partition(".")
            if name in metrics:
                continue
            metrics[name] = self_s[layer] if what == "self_s" else counts.get(name, 0)
        return {name: metrics[name] for name in PER_LAYER}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SIZES

    if args.workload not in SIZES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(SIZES)}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, SIZES[args.workload])
    if args.trace:
        metrics, units = bench.per_layer(args.seconds), PER_LAYER
    else:
        metrics, units = bench.end_to_end(args.seconds), END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"host_scale {bench.host_scale}")
    for index, walls in bench.instance_walls.items():
        print(f"instance {index} runs_s", *(f"{w:.4f}" for w in walls))
    print(f"ops {bench.attempted}")
    print(f"ops_failed {len(bench.failures)}")
    for failure in bench.failures:
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
