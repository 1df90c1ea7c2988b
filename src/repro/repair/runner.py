"""Multi-chunk repair driver for the baseline algorithms.

Repairs a batch of failed chunks with bounded parallelism (the paper's
full-node repair recovers 200 chunks). Chunks of the same stripe are
never repaired concurrently (their survivor sets interact); metadata is
relocated when a chunk's repair is *launched* so that two in-flight
repairs can never pick conflicting destinations. Retries, watchdogs,
hedging, journaling and the exactly-once commit come from the shared
lifecycle in :mod:`repro.repair.lifecycle`.
"""

from __future__ import annotations

from repro.cluster.failures import FailureInjector
from repro.cluster.stripes import ChunkId, StripeStore
from repro.cluster.topology import Cluster
from repro.errors import ReproError
from repro.repair.base import RepairAlgorithm
from repro.repair.lifecycle import ChunkRepairer
from repro.repair.plan import RepairPlan


class RepairRunner(ChunkRepairer):
    """Drives a repair algorithm over a set of failed chunks.

    Each attempt's plan comes from ``algorithm.make_plan``; freed slots
    are filled in queue order from the chunks whose stripe is idle.
    """

    def __init__(
        self,
        cluster: Cluster,
        store: StripeStore,
        injector: FailureInjector,
        algorithm: RepairAlgorithm,
        *,
        chunk_size: float,
        slice_size: float,
        concurrency: int = 8,
        final_write: bool = True,
        max_retries: int = 3,
        retry_backoff: float = 0.5,
        max_backoff: float | None = None,
        retry_jitter: float = 0.0,
        jitter_seed: int = 0,
        chunk_timeout: float | None = None,
        hedge=None,
        journal=None,
    ) -> None:
        super().__init__(
            cluster,
            store,
            injector,
            chunk_size=chunk_size,
            slice_size=slice_size,
            cap=concurrency,
            final_write=final_write,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            max_backoff=max_backoff,
            retry_jitter=retry_jitter,
            jitter_seed=jitter_seed,
            chunk_timeout=chunk_timeout,
            hedge=hedge,
            journal=journal,
        )
        self.algorithm = algorithm

    @property
    def concurrency(self) -> int:
        """Cap on concurrently repaired chunks (see :meth:`set_concurrency`)."""
        return self._cap

    def _refill(self) -> None:
        if self._crashed:
            return
        launched = True
        while launched and len(self.in_flight) < self._cap:
            launched = False
            for i, chunk in enumerate(self.pending):
                if chunk.stripe in self._stripes_busy:
                    continue
                self.pending.pop(i)
                if not self.injector.is_repairable(chunk):
                    # Accumulated crashes pushed the stripe beyond the
                    # code's tolerance: write the chunk off instead of
                    # letting plan construction blow up mid-run.
                    self._mark_lost(chunk)
                    self._maybe_finish()
                else:
                    self._launch(chunk)
                launched = True
                break
        self._maybe_finish()

    def _launch(self, chunk: ChunkId) -> None:
        try:
            plan = self.algorithm.make_plan(chunk, self.store.code, self.injector)
        except ReproError:
            # No usable survivors or destinations left (a crash raced us).
            self._mark_lost(chunk)
            self._maybe_finish()
            return
        self._start_attempt(
            chunk,
            plan,
            algorithm=getattr(self.algorithm, "name", "?"),
            sources=len(plan.sources),
        )

    def _backup_plan(
        self, chunk: ChunkId, current: RepairPlan
    ) -> RepairPlan | None:
        try:
            plan = self.algorithm.make_plan(chunk, self.store.code, self.injector)
        except ReproError:
            return None
        # The planner may find nothing better; hedging the identical plan
        # would only double the load it is meant to avoid.
        return None if self._same_plan(plan, current) else plan

    def _reenter(self, chunk: ChunkId) -> None:
        if (
            chunk.stripe in self._stripes_busy
            or len(self.in_flight) >= self._cap
        ):
            self.pending.insert(0, chunk)
        else:
            self._launch(chunk)
        self._maybe_finish()
