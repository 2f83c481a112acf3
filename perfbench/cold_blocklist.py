"""``cold_blocklist``: the sharded plane with the offload tier, every flow new.

A :class:`ShardedDataPlane` with 2 workers holds the 3,000 HYBRID-mix
rules plus a 20,000-entry ``/32``-source blocklist, with the untrusted
fast-drop tier sampling 10% of its drop decisions back into the enclave
replica.  ``process()`` is called once per 1,024-packet burst; 90% of the
packets come from blocklisted sources, 10% are clean, and every packet is
a new five-tuple, so the decision memo never hits: rule lookup (trie and
membership), the HYBRID coin, count-min logging over unique keys, the
offload classify and audit path, and shard IPC do the work.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import List, Tuple

from perfbench.common import Result, check_verdicts, dotted, hybrid_rules, pack, peak_rss_kb
from perfbench.harness import Steady, Workload, corrupt_once

SECRET = "perfbench/cold-blocklist"
WORKERS = 2
BURST = 1024
BLOCKLIST = 20_000
BLOCK_BASE = 0x64400000  # 100.64.0.0/10: every blocklisted source
CLEAN_BASE = 0xC6120000  # 198.18.0.0/15: never blocklisted
BLOCKED_SHARE = 0.9
SAMPLE_RATE = 0.1
#: Destination hosts drawn from (inside the rules' 10.0.0.0/8).
DESTINATIONS = 65536
WARM_CALLS = 8
COUNT_CALLS = 16
#: Blocklist churn timed after the steady phase: DELTAS installs of
#: DELTA_BATCH new sources each.  A batch this
#: large takes ~25 ms, so the worker wake-up jitter of an acked broadcast
#: (a few ms) does not decide the figure.
DELTA_WARM = 5
DELTAS = 100
DELTA_BATCH = 512


class ColdBlocklist(Workload):
    name = "cold_blocklist"
    setups = 5
    group = 4
    traffic_after_setup = True
    count_warms = False
    memory_calls = 64
    #: A set-up forks two more workers: deltas timed next to one are slower.
    setup_between_deltas = False
    #: Fraction of tier drop decisions re-verdicted by the enclave; 0 runs
    #: the plane without the offload tier.
    sample_rate = SAMPLE_RATE
    #: Distinct packets pre-generated.  A steady phase that runs out stops
    #: early (its packet rate stays exact) rather than replaying flows.
    pool_packets = 360 * BURST

    def make_inputs(self, seed: int) -> None:
        from repro.dataplane.packet import FiveTuple, Packet, Protocol

        self.seed = seed
        self.rules = hybrid_rules(3000)
        self.blocklist = [(1_000_000 + i, BLOCK_BASE + i) for i in range(BLOCKLIST)]
        self.probe = Packet(
            five_tuple=FiveTuple(src_ip="198.51.100.7", dst_ip="10.1.1.1",
                                 src_port=1, dst_port=80, protocol=Protocol.TCP),
            size=64,
        )
        self.pool: List[list] = []
        self.reference: List[list] = []
        self.reference_probe = None

    def make_traffic(self) -> None:
        from repro.dataplane.packet import FiveTuple, Packet, Protocol

        if self.pool:
            return
        rng = random.Random(self.seed)
        blocked = [dotted(src) for _, src in self.blocklist]
        destinations = [
            dotted((10 << 24) | (rng.randrange(200) << 16) | (rng.randrange(250) << 8) | rng.randrange(256))
            for _ in range(DESTINATIONS)
        ]
        # A per-source port counter makes every five-tuple new.
        next_port = {}
        packets = []
        for _ in range(self.pool_packets):
            if rng.random() < BLOCKED_SHARE:
                src = BLOCK_BASE + rng.randrange(BLOCKLIST)
                src_ip = blocked[src - BLOCK_BASE]
            else:
                src = CLEAN_BASE + rng.randrange(1 << 17)
                src_ip = dotted(src)
            port = next_port.get(src, 1024)
            next_port[src] = port + 1
            packets.append(Packet(
                five_tuple=FiveTuple(
                    src_ip=src_ip, dst_ip=destinations[rng.randrange(DESTINATIONS)],
                    src_port=port, dst_port=rng.choice((80, 80, 443, 53)),
                    protocol=Protocol.TCP,
                ),
                size=64,
            ))
        self.pool = [packets[i : i + BURST] for i in range(0, len(packets), BURST)]

    def setup(self):
        from repro import obs
        from repro.dataplane.shard import ShardedDataPlane

        plane = ShardedDataPlane(
            self.rules,
            num_workers=WORKERS,
            decision_secret=SECRET,
            blocklist=self.blocklist,
            offload_sample_rate=self.sample_rate,
            offload_seed=f"{SECRET}/offload",
        )
        plane.start()
        # One worker per CPU, as a poll-mode data plane pins its cores:
        # left to the scheduler, both workers share a CPU in some runs and
        # not in others, and the run-to-run spread doubles.
        cpus = sorted(os.sched_getaffinity(0))
        for i, worker in enumerate(plane._workers):
            os.sched_setaffinity(worker.pid, {cpus[i % len(cpus)]})
        # Serving means the first verdict is back: workers have installed
        # the rules, loaded the blocklist and compiled their tiers.
        probe = plane.process([self.probe])
        return {
            "plane": plane, "probe": pack(probe), "calls": [], "cursor": 0, "packets": 1,
            "totals_before": obs.get_registry().snapshot()["totals"],
        }

    def teardown(self, state) -> None:
        state["plane"].close()

    def _calls(self, state, n: int) -> int:
        process = state["plane"].process
        record = state["calls"].append
        start = state["cursor"]
        for b in range(start, start + n):
            record((b, pack(process(self.pool[b]))))
        state["cursor"] = start + n
        state["packets"] += n * BURST
        return n

    def warm(self, state) -> None:
        self._calls(state, WARM_CALLS)

    def count(self, state):
        # No warm-up: every flow is new anyway, and the workers book their
        # counts per plane, which has then seen the set-up probe packet
        # plus the counted calls.
        self._calls(state, COUNT_CALLS)
        return COUNT_CALLS * BURST + 1, COUNT_CALLS

    def steady(self, state, seconds: float, inject: bool, phase) -> Steady:
        process = state["plane"].process
        if inject:
            process = corrupt_once(process)
        pool = self.pool
        record = state["calls"].append
        ends: List[float] = []
        cpus: List[float] = []
        latencies: List[float] = []
        clock, cpu_clock = phase.wall, phase.cpu
        b = state["cursor"]
        first = b
        phase.open()
        cpu_started = cpu_clock()
        started = clock()
        deadline = started + seconds
        now = started
        while now < deadline and b < len(pool):
            verdicts = process(pool[b])
            done = clock()
            cpus.append(cpu_clock())
            latencies.append(done - now)
            ends.append(done)
            record((b, pack(verdicts)))
            b += 1
            phase.tick()
            now = clock()
        phase.close()
        calls = b - first
        state["cursor"] = b
        state["packets"] += calls * BURST
        return Steady(
            start=started, cpu_start=cpu_started, ends=ends, cpus=cpus,
            packets=[BURST] * calls, latencies=latencies, probes=phase.probes,
            extra={"pool_exhausted": float(b >= len(pool))},
        )

    def control(self, state, steady: Steady, between) -> List[Tuple[float, float]]:
        """Blocklist churn: each delta installs a batch of new ``/32``
        sources (outside the traffic) in one acked broadcast; they are
        removed together, untimed, afterwards.  Installs and removes cost
        different amounts, and a mix of two modes has no steady median.
        The first deltas flush the memos the traffic filled and are not
        timed."""
        from repro.core.rules import Action, FilterRule, FlowPattern

        plane = state["plane"]
        timings, installed = [], []
        for k in range(DELTA_WARM + DELTAS):
            first = BLOCK_BASE + BLOCKLIST + k * DELTA_BATCH
            rules = [
                FilterRule(rule_id=2_000_000 + first + j - BLOCK_BASE,
                           pattern=FlowPattern.from_src_host(first + j), action=Action.DROP)
                for j in range(DELTA_BATCH)
            ]
            started = time.perf_counter()
            plane.install_rules(rules)
            if k >= DELTA_WARM:
                ended = time.perf_counter()
                timings.append((ended - started, ended))
            installed.extend(rule.rule_id for rule in rules)
            if k % 10 == 9:
                between()
        plane.remove_rules(installed)
        return timings

    def cpu_s_per_packet(self, state, steady: Steady) -> float:
        """The coordinator's CPU per packet (windowed, as for every
        workload) plus the workers' busy CPU, which they book per plane
        (set-up probe and warm-up included), scaled by the phase's median
        host slowness."""
        run = state["run"]
        factor = statistics.median(f for _, f in steady.probes.values())
        return (super().cpu_s_per_packet(state, steady)
                + sum(run.worker_busy_seconds) / run.packets / factor)

    def peak_rss_kb(self, state, memory) -> float:
        """The coordinator's program peak plus each worker's peak resident
        set; the workers fork before the packet pool is built."""
        workers = sum(peak_rss_kb(p.pid) for p in state["plane"]._workers)
        return memory.peak_kb() + workers

    def untraced_ns(self, state, steady: Steady) -> float:
        """Worker busy CPU per packet: the workers are where the layers
        run, and the coordinator mostly waits for them."""
        run = state["run"]
        return sum(run.worker_busy_seconds) * 1e9 / run.packets

    def ledger_ns(self, view) -> float:
        """The workers' calibrated span self times plus their busy time
        outside any batch span, per packet (both per plane, on the
        workers' CPU clock)."""
        workers = view.workers
        own = sum(own for _, _, own in workers.totals("traffic").values())
        unspanned = view.worker_busy_ns - sum(workers.top_ns.values())
        return (own + unspanned) / view.worker_packets

    def finish(self, state, result: Result) -> None:
        from repro import obs
        from perfbench.spans import WorkerTotals

        plane = state["plane"]
        run = plane.finish()
        plane.close()
        state["run"] = run
        registry = obs.get_registry()
        before = state["totals_before"]
        totals = registry.snapshot()["totals"]

        def delta(name: str) -> int:
            return int(totals.get(name, 0) - before.get(name, 0))

        if not self.sample_rate:
            result.check("plane_books", run.packets == state["packets"]
                         == run.packets_allowed + run.packets_dropped,
                         f"plane={run.packets}, offered={state['packets']}, "
                         f"allowed+dropped={run.packets_allowed + run.packets_dropped}")
        else:
            self._offload_checks(state, result, delta)
        workers = WorkerTotals(registry.export_state())
        state["worker_totals"] = workers if workers.top_ns else None

    def _offload_checks(self, state, result: Result, delta) -> None:
        run = state["run"]
        ingress = delta("vif_offload_ingress_total")
        parts = (delta("vif_offload_drops_total"), delta("vif_offload_sampled_total"),
                 delta("vif_offload_passed_total"))
        result.check(
            "offload_conservation",
            ingress == sum(parts) == state["packets"] == run.packets,
            f"ingress={ingress}, drops+sampled+passed={sum(parts)}, "
            f"offered={state['packets']}, plane={run.packets}",
        )
        disagreed = delta("vif_offload_disagreements_total")
        rounds = delta("vif_offload_audit_rounds_total")
        result.check("offload_audit", disagreed == 0 and rounds > 0,
                     f"{rounds} audit rounds, {disagreed} disagreements, "
                     f"{delta('vif_offload_sample_shortfall_rounds_total')} shortfall rounds")

    def _reference(self, upto: int) -> None:
        """Extend the single-process reference verdicts to ``upto`` bursts."""
        from repro import obs
        from repro.dataplane.shard import run_single_process_reference

        have = len(self.reference)
        if self.reference_probe is None:
            packets = [self.probe]
        else:
            packets = []
        for bursts in self.pool[have:upto]:
            packets.extend(bursts)
        if not packets:
            return
        # A scratch registry: the reference's own counters must not mix
        # with the plane's.
        registry = obs.get_registry()
        obs.set_registry(obs.MetricsRegistry())
        try:
            verdicts = run_single_process_reference(
                self.rules, packets, decision_secret=SECRET, blocklist=self.blocklist,
            ).verdicts
        finally:
            obs.set_registry(registry)
        if self.reference_probe is None:
            self.reference_probe = pack(verdicts[:1])
            verdicts = verdicts[1:]
        for i in range(have, upto):
            offset = (i - have) * BURST
            self.reference.append(pack(verdicts[offset : offset + BURST]))

    def verify(self, state, result: Result) -> None:
        self._reference(state["cursor"])
        if state["probe"] != self.reference_probe:
            result.failed += 1
        result.attempted += 1
        check_verdicts(result, state["calls"], self.reference)
        state["calls"] = []

    def extra_counts(self, state):
        packets = state["run"].worker_packets
        return {"workers": len(packets), "worker_packets_max": max(packets),
                "worker_packets_total": sum(packets)}

    def layer_extras(self, steadies, view):
        busy_ns = view.worker_busy_ns
        top_ns = sum(view.workers.top_ns.values())
        packets = view.worker_packets
        return {
            "shard.worker_busy_ns_per_pkt": busy_ns / packets,
            "shard.worker_unspanned_ns_per_pkt": (busy_ns - top_ns) / packets,
            "trace.worker_span_coverage": top_ns / busy_ns,
        }


class ColdSharded(ColdBlocklist):
    """``cold_blocklist`` without the offload tier: every packet reaches an
    enclave replica, whose rule store resolves overlapping rules by
    specificity.

    ``cold_blocklist`` itself fails its oracle while the tier ignores rule
    precedence: the tier drops blocklisted-source packets that a more
    specific rule (a ``/24`` plus port rule, specificity 40 against the
    blocklist's 32) allows, and the tier's own audit reports the
    disagreements.  Until that is fixed the benchmark measures this plane.
    """

    name = "cold_sharded"
    sample_rate = 0.0
    pool_packets = 300 * BURST
