"""Deterministic, seed-driven fault injection (the ``repro.faults`` core).

Real deployments of the PLD flow fail in ways the fault-free models
never exercise: a Slurm page-compile job crashes or hangs, a DFX
partial-bitstream load comes back with a CRC mismatch, the deflection
NoC corrupts or drops a flit, a DMA burst errors out, a softcore takes a
spurious trap.  :class:`FaultPlan` describes *which* of those faults a
run should experience, and hands each subsystem a small injector object
it consults at its natural decision points.

Determinism is the whole point: every injection decision is a pure
function of ``(seed, domain, decision key)`` via a keyed BLAKE2b hash,
so the same plan replays the identical fault sequence on every run —
independent of dict ordering, ``PYTHONHASHSEED`` or call interleaving.
A retry naturally re-draws (the attempt number is part of the key), so
transient faults clear on retry while ``kill_jobs`` entries fail every
attempt, which is how tests pin down the paper's Fig. 10 scenario of
one operator's -O1 compile failing permanently.

Every injected fault is appended to :attr:`FaultPlan.log`, which
:func:`repro.core.reports.format_failure_report` renders.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union


class InjectedCrash(BaseException):
    """A :class:`CrashPlan` killed the process at a planned point.

    Deliberately a ``BaseException``: a crash is not an error the
    toolflow may handle — recovery code that catches ``Exception`` must
    not accidentally survive it, exactly like a real SIGKILL.  Only the
    crash-injection harness itself catches this.
    """


class CrashPlan:
    """Kills the process at build step *k* (the crash-safety harness).

    The build engine calls :meth:`maybe_crash` at three journaled
    points of every cache-miss step — ``begin`` (journal begin written,
    builder not yet run), ``mid`` (builder done, artefact not yet in
    the store) and ``end`` (artefact stored, journal end not yet
    written).  The plan counts miss-steps as they begin and fires at
    the configured ``(at_step, point)``, either by raising
    :class:`InjectedCrash` (in-process tests) or with a real
    ``SIGKILL`` (subprocess e2e tests) — so every window a real crash
    could land in is reachable deterministically.
    """

    POINTS = ("begin", "mid", "end")

    def __init__(self, at_step: int, point: str = "begin",
                 mode: str = "raise"):
        if at_step < 1:
            raise ValueError("at_step is 1-based and must be >= 1")
        if point not in self.POINTS:
            raise ValueError(f"point must be one of {self.POINTS}")
        if mode not in ("raise", "sigkill"):
            raise ValueError("mode must be 'raise' or 'sigkill'")
        self.at_step = at_step
        self.point = point
        self.mode = mode
        self.steps_started = 0
        self.fired = False

    def maybe_crash(self, point: str, step: str) -> None:
        """Called by the engine at each crash window of a miss step."""
        if self.fired:
            return
        if point == "begin":
            self.steps_started += 1
        if self.steps_started == self.at_step and point == self.point:
            self.fired = True
            if self.mode == "sigkill":
                import os
                import signal
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedCrash(
                f"injected crash at step #{self.at_step} "
                f"({step!r}, point={point})")

    def __repr__(self) -> str:
        return (f"CrashPlan(at_step={self.at_step}, "
                f"point={self.point!r}, mode={self.mode!r})")


def _draw(seed: int, *key) -> float:
    """Uniform [0, 1) draw, a pure function of (seed, key)."""
    text = repr((seed,) + key).encode()
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the plan's log."""

    domain: str          # "compile" | "noc" | "bitstream" | "dma" | "softcore"
    kind: str            # e.g. "job-fail", "corrupt", "crc-mismatch"
    target: str          # job name, image name, "leaf3:port1", ...
    detail: str = ""

    def __str__(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{self.domain}] {self.kind} @ {self.target}{tail}"


class FaultPlan:
    """A reproducible description of the faults one run experiences.

    Args:
        seed: the replay seed; two plans with equal seeds and rates
            inject identical fault sequences.
        kill_jobs: compile jobs (operator names) that fail on *every*
            attempt — the deterministic "this page compile is broken"
            scenario that exercises -O0 degradation.
        compile_fail_rate: probability a page-compile attempt crashes.
        compile_timeout_rate: probability a page-compile attempt hangs
            until the cluster's per-job timeout.
        node_fail_rate: probability the node running an attempt dies
            (the job retries elsewhere; the node is retired).
        bitstream_fail_rate: probability a configuration-port load
            fails outright.
        bitstream_crc_rate: probability a load completes but the
            readback CRC mismatches.
        noc_corrupt_rate: probability an injected flit's payload is
            corrupted in flight.
        noc_drop_rate: probability an injected flit is dropped.
        dma_fail_rate: probability a DMA transfer attempt errors.
        softcore_trap_rate: probability a softcore run takes one
            spurious (transient) trap.
        transport_drop_rate: probability a remote-store request is
            dropped on the floor (the client sees a deadline expiry).
        transport_corrupt_rate: probability a response frame arrives
            bit-flipped (the client sees a framing/integrity error).
        transport_half_close_rate: probability the peer half-closes
            mid-frame (the client sees a short read).
        kill_shards: shards that are *dead* — either an iterable of
            shard addresses (dead from the first request) or a mapping
            ``{shard: from_request_index}`` (the shard serves requests
            ``0..n-1`` then dies, modelling a SIGKILL mid-build).  A
            killed shard fails every request from its kill point on:
            unlike the rate faults it never heals on retry, which is
            what forces the client through breaker quarantine into
            degraded mode.
        overload_bursts: number of submit-flood bursts the overload
            injector generates (0 = overload domain off).
        overload_burst_size: requests per burst.
        overload_tenants: tenant names the flood draws from (defaults
            to ``("flood",)``).
        overload_deadline_fraction: probability a flood request is
            deadline-class; the rest split batch/interactive by a
            further draw.  Everything — tenant, class, cost — is a pure
            function of ``(seed, burst, index)``, so a chaos test's
            flood replays identically.
    """

    def __init__(self, seed: int, *,
                 kill_jobs: Iterable[str] = (),
                 compile_fail_rate: float = 0.0,
                 compile_timeout_rate: float = 0.0,
                 node_fail_rate: float = 0.0,
                 bitstream_fail_rate: float = 0.0,
                 bitstream_crc_rate: float = 0.0,
                 noc_corrupt_rate: float = 0.0,
                 noc_drop_rate: float = 0.0,
                 dma_fail_rate: float = 0.0,
                 softcore_trap_rate: float = 0.0,
                 transport_drop_rate: float = 0.0,
                 transport_corrupt_rate: float = 0.0,
                 transport_half_close_rate: float = 0.0,
                 kill_shards: Union[Iterable[str],
                                    Mapping[str, int]] = (),
                 overload_bursts: int = 0,
                 overload_burst_size: int = 8,
                 overload_tenants: Iterable[str] = ("flood",),
                 overload_deadline_fraction: float = 0.0):
        rates = {
            "compile_fail_rate": compile_fail_rate,
            "compile_timeout_rate": compile_timeout_rate,
            "node_fail_rate": node_fail_rate,
            "bitstream_fail_rate": bitstream_fail_rate,
            "bitstream_crc_rate": bitstream_crc_rate,
            "noc_corrupt_rate": noc_corrupt_rate,
            "noc_drop_rate": noc_drop_rate,
            "dma_fail_rate": dma_fail_rate,
            "softcore_trap_rate": softcore_trap_rate,
            "transport_drop_rate": transport_drop_rate,
            "transport_corrupt_rate": transport_corrupt_rate,
            "transport_half_close_rate": transport_half_close_rate,
        }
        for name, rate in rates.items():
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not (0.0 <= overload_deadline_fraction <= 1.0):
            raise ValueError(
                f"overload_deadline_fraction must be in [0, 1], got "
                f"{overload_deadline_fraction}")
        if overload_bursts < 0 or overload_burst_size < 1:
            raise ValueError("overload_bursts must be >= 0 and "
                             "overload_burst_size >= 1")
        self.seed = int(seed)
        self.kill_jobs = frozenset(kill_jobs)
        self.compile_fail_rate = compile_fail_rate
        self.compile_timeout_rate = compile_timeout_rate
        self.node_fail_rate = node_fail_rate
        self.bitstream_fail_rate = bitstream_fail_rate
        self.bitstream_crc_rate = bitstream_crc_rate
        self.noc_corrupt_rate = noc_corrupt_rate
        self.noc_drop_rate = noc_drop_rate
        self.dma_fail_rate = dma_fail_rate
        self.softcore_trap_rate = softcore_trap_rate
        self.transport_drop_rate = transport_drop_rate
        self.transport_corrupt_rate = transport_corrupt_rate
        self.transport_half_close_rate = transport_half_close_rate
        if isinstance(kill_shards, Mapping):
            self.kill_shards: Dict[str, int] = {
                str(shard): int(index)
                for shard, index in kill_shards.items()}
        else:
            self.kill_shards = {str(shard): 0 for shard in kill_shards}
        self.overload_bursts = int(overload_bursts)
        self.overload_burst_size = int(overload_burst_size)
        self.overload_tenants = tuple(overload_tenants) or ("flood",)
        self.overload_deadline_fraction = overload_deadline_fraction
        self.log: List[FaultEvent] = []

    def record(self, domain: str, kind: str, target: str,
               detail: str = "") -> FaultEvent:
        event = FaultEvent(domain, kind, target, detail)
        self.log.append(event)
        return event

    def events(self, domain: Optional[str] = None) -> List[FaultEvent]:
        if domain is None:
            return list(self.log)
        return [e for e in self.log if e.domain == domain]

    # -- per-domain injectors ---------------------------------------------

    def compile_faults(self) -> "CompileFaultInjector":
        return CompileFaultInjector(self)

    def noc_faults(self) -> "NoCFaultInjector":
        return NoCFaultInjector(self)

    def bitstream_faults(self) -> "BitstreamFaultInjector":
        return BitstreamFaultInjector(self)

    def dma_faults(self) -> "DMAFaultInjector":
        return DMAFaultInjector(self)

    def softcore_faults(self) -> "SoftcoreFaultInjector":
        return SoftcoreFaultInjector(self)

    def transport_faults(self) -> "TransportFaultInjector":
        return TransportFaultInjector(self)

    def overload_faults(self) -> "OverloadFaultInjector":
        return OverloadFaultInjector(self)

    @property
    def any_overload_faults(self) -> bool:
        return self.overload_bursts > 0

    @property
    def any_compile_faults(self) -> bool:
        return bool(self.kill_jobs) or self.compile_fail_rate > 0 \
            or self.compile_timeout_rate > 0 or self.node_fail_rate > 0

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, "
                f"{len(self.log)} injected so far)")


class CompileFaultInjector:
    """Decides the outcome of each compile-job attempt."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def attempt_outcome(self, job: str, attempt: int
                        ) -> Tuple[str, float]:
        """Outcome of attempt ``attempt`` (1-based) of job ``job``.

        Returns ``(kind, work_fraction)`` where kind is one of ``"ok"``,
        ``"fail"`` (crash after ``work_fraction`` of the runtime),
        ``"timeout"`` (hung until the per-job timeout) or ``"node"``
        (the node died under the job).
        """
        plan = self.plan
        if job in plan.kill_jobs:
            plan.record("compile", "job-fail", job,
                        f"attempt {attempt} (killed by plan)")
            return "fail", _draw(plan.seed, "compile", "frac", job, attempt)
        roll = _draw(plan.seed, "compile", "outcome", job, attempt)
        edge = plan.compile_fail_rate
        if roll < edge:
            plan.record("compile", "job-fail", job, f"attempt {attempt}")
            return "fail", _draw(plan.seed, "compile", "frac", job, attempt)
        edge += plan.compile_timeout_rate
        if roll < edge:
            plan.record("compile", "job-timeout", job,
                        f"attempt {attempt}")
            return "timeout", 1.0
        edge += plan.node_fail_rate
        if roll < edge:
            plan.record("compile", "node-fail", job, f"attempt {attempt}")
            return "node", _draw(plan.seed, "compile", "frac", job, attempt)
        return "ok", 1.0


class NoCFaultInjector:
    """Decides the fate of each flit injected into the network.

    Decisions are keyed by a monotone injection index the simulator
    supplies, so a retransmitted flit (a new injection) re-draws and can
    get through where the original was lost.  Control (linking) packets
    are exempt: the pre-linker verifies its configuration by register
    readback before any data flows, so data/ack flits are where loss
    matters.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.corrupted = 0
        self.dropped = 0

    def on_injection(self, injection_index: int, target: str) -> str:
        """``"ok"`` | ``"corrupt"`` | ``"drop"`` for one injected flit."""
        plan = self.plan
        roll = _draw(plan.seed, "noc", injection_index)
        if roll < plan.noc_drop_rate:
            self.dropped += 1
            plan.record("noc", "drop", target, f"flit #{injection_index}")
            return "drop"
        if roll < plan.noc_drop_rate + plan.noc_corrupt_rate:
            self.corrupted += 1
            plan.record("noc", "corrupt", target,
                        f"flit #{injection_index}")
            return "corrupt"
        return "ok"

    def corruption_mask(self, injection_index: int) -> int:
        """Which payload bit the fault flips (never zero)."""
        bit = int(_draw(self.plan.seed, "noc", "bit", injection_index)
                  * 32) % 32
        return 1 << bit


class BitstreamFaultInjector:
    """Decides the outcome of each configuration-port load attempt."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def load_outcome(self, image_name: str, attempt: int) -> str:
        """``"ok"`` | ``"fail"`` | ``"crc"`` for one load attempt."""
        plan = self.plan
        roll = _draw(plan.seed, "bitstream", image_name, attempt)
        if roll < plan.bitstream_fail_rate:
            plan.record("bitstream", "load-fail", image_name,
                        f"attempt {attempt}")
            return "fail"
        if roll < plan.bitstream_fail_rate + plan.bitstream_crc_rate:
            plan.record("bitstream", "crc-mismatch", image_name,
                        f"attempt {attempt}")
            return "crc"
        return "ok"


class DMAFaultInjector:
    """Decides the outcome of each DMA transfer attempt."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._transfers = 0

    def next_transfer(self) -> int:
        self._transfers += 1
        return self._transfers

    def transfer_fails(self, transfer_index: int, attempt: int,
                       target: str) -> bool:
        plan = self.plan
        if _draw(plan.seed, "dma", transfer_index,
                 attempt) < plan.dma_fail_rate:
            plan.record("dma", "transfer-error", target,
                        f"transfer #{transfer_index} attempt {attempt}")
            return True
        return False


class SoftcoreFaultInjector:
    """Decides whether (and where) a softcore run takes a spurious trap."""

    #: Injected traps land within this many retired instructions of the
    #: start of the run — early enough that short programs still hit
    #: them, late enough to interrupt real work.
    TRAP_HORIZON = 4_096

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def trap_point(self, core_id: str, attempt: int) -> Optional[int]:
        """Instruction index at which attempt ``attempt`` traps, or None.

        Pure draw — the core calls :meth:`record_fired` if (and only
        if) the program actually reaches the trap point, so the plan
        log never claims an upset that landed after ``ebreak``.
        """
        plan = self.plan
        if _draw(plan.seed, "softcore", core_id,
                 attempt) < plan.softcore_trap_rate:
            return 1 + int(_draw(plan.seed, "softcore", "point", core_id,
                                 attempt) * self.TRAP_HORIZON)
        return None

    def record_fired(self, core_id: str, attempt: int,
                     point: int) -> None:
        self.plan.record("softcore", "trap", core_id,
                         f"attempt {attempt} @ instruction {point}")


class TransportFaultInjector:
    """Decides the fate of each remote-store request.

    The sharded store client (:mod:`repro.store.remote.client`) calls
    :meth:`on_request` once per attempt with the shard address and a
    per-shard monotone request index.  Draws are keyed by
    ``(shard, index, attempt)``, so a retry re-draws — transient drops
    clear on retry — while a shard in :attr:`FaultPlan.kill_shards`
    fails *every* request past its kill index, forcing the client all
    the way through its retry budget into breaker quarantine and
    degraded mode.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._request_index: Dict[str, int] = {}

    def next_request(self, shard: str) -> int:
        """The per-shard monotone request index (0-based)."""
        index = self._request_index.get(shard, 0)
        self._request_index[shard] = index + 1
        return index

    def shard_dead(self, shard: str, index: int) -> bool:
        """True when ``shard`` is killed at or before request ``index``."""
        kill_at = self.plan.kill_shards.get(shard)
        return kill_at is not None and index >= kill_at

    def on_request(self, shard: str, index: int, attempt: int = 1) -> str:
        """``"ok" | "drop" | "corrupt" | "half-close" | "kill"``
        for one request attempt."""
        plan = self.plan
        if self.shard_dead(shard, index):
            plan.record("transport", "shard-kill", shard,
                        f"request #{index} attempt {attempt}")
            return "kill"
        roll = _draw(plan.seed, "transport", shard, index, attempt)
        edge = plan.transport_drop_rate
        if roll < edge:
            plan.record("transport", "drop", shard,
                        f"request #{index} attempt {attempt}")
            return "drop"
        edge += plan.transport_corrupt_rate
        if roll < edge:
            plan.record("transport", "corrupt-frame", shard,
                        f"request #{index} attempt {attempt}")
            return "corrupt"
        edge += plan.transport_half_close_rate
        if roll < edge:
            plan.record("transport", "half-close", shard,
                        f"request #{index} attempt {attempt}")
            return "half-close"
        return "ok"


class OverloadFaultInjector:
    """Generates a deterministic submit flood (the overload domain).

    Chaos tests point this at a daemon (or an in-process
    :class:`~repro.service.CompileService`) to drive it past its
    admission watermarks: :meth:`burst` yields ``(tenant, priority,
    cost)`` tuples that are a pure function of ``(seed, burst,
    index)``, so the exact shed/admit split replays on every run.
    The injector only *describes* the flood — the caller owns the
    submission (sync, async, threaded) and records what came back via
    :meth:`record_shed` / :meth:`record_admitted`.
    """

    #: A flood request's scheduler cost is 1..MAX_COST.
    MAX_COST = 2

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.shed = 0
        self.admitted = 0

    def request(self, burst: int, index: int
                ) -> Tuple[str, str, int]:
        """The ``(tenant, priority, cost)`` of one flood request."""
        plan = self.plan
        tenants = plan.overload_tenants
        tenant = tenants[int(_draw(plan.seed, "overload", "tenant",
                                   burst, index) * len(tenants))
                         % len(tenants)]
        roll = _draw(plan.seed, "overload", "class", burst, index)
        if roll < plan.overload_deadline_fraction:
            priority = "deadline"
        elif _draw(plan.seed, "overload", "batch", burst, index) < 0.5:
            priority = "batch"
        else:
            priority = "interactive"
        cost = 1 + int(_draw(plan.seed, "overload", "cost", burst,
                             index) * self.MAX_COST) % self.MAX_COST
        return tenant, priority, cost

    def burst(self, burst: int) -> List[Tuple[str, str, int]]:
        """All requests of burst ``burst`` (0-based), in order."""
        if not (0 <= burst < self.plan.overload_bursts):
            raise ValueError(
                f"burst must be in [0, {self.plan.overload_bursts}), "
                f"got {burst}")
        return [self.request(burst, i)
                for i in range(self.plan.overload_burst_size)]

    def bursts(self) -> List[List[Tuple[str, str, int]]]:
        """The whole flood, burst by burst."""
        return [self.burst(b)
                for b in range(self.plan.overload_bursts)]

    def record_shed(self, tenant: str, reason: str,
                    burst: int, index: int) -> None:
        self.shed += 1
        self.plan.record("overload", f"shed:{reason}", tenant,
                         f"burst {burst} request {index}")

    def record_admitted(self, tenant: str, burst: int,
                        index: int) -> None:
        self.admitted += 1
