"""``hot_flows``: one enclave behind the burst ECall, flows that repeat.

One :class:`EnclaveFilter` launched with ``Platform.launch`` holds 3,000
HYBRID-mix rules and is driven with ``ecall("process_burst", burst)`` on
256-packet bursts drawn from 4,096 flows with cubic (heavy-tailed)
popularity.  The decision memo answers almost every flow and bursts
coalesce, so the ECall boundary, per-packet accounting, count-min logging
and metric increments do the work; lookup is nearly idle.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from perfbench.common import Result, check_verdicts, churn_rule, dotted, hybrid_rules, pack
from perfbench.harness import Steady, Workload, corrupt_once

SECRET = "perfbench/hot-flows"
BURST = 256
FLOWS = 4096
#: Distinct bursts pre-generated and replayed in order (flows repeat anyway).
POOL_BURSTS = 256
COUNT_BURSTS = 128
#: Rule installs after the steady phase: untimed, then timed (enough for
#: a supported p95).
DELTA_WARM = 10
DELTAS = 200
BURSTS_PER_DELTA = 8


class HotFlows(Workload):
    name = "hot_flows"
    setups = 20
    group = 32
    memory_calls = 1024

    def make_inputs(self, seed: int) -> None:
        from repro.core.filter import ConnectionPreservingMode, StatelessFilter
        from repro.dataplane.packet import FiveTuple, Packet, Protocol

        rng = random.Random(seed)
        self.rules = hybrid_rules(3000)
        flows = [
            FiveTuple(
                src_ip=dotted(0xAC100000 | rng.randrange(1 << 16)),  # 172.16/16
                dst_ip=f"10.{rng.randrange(200)}.{rng.randrange(250)}.{rng.randrange(256)}",
                src_port=rng.randrange(1024, 65536),
                dst_port=rng.choice((80, 80, 443, 53)),
                protocol=Protocol.TCP,
            )
            for _ in range(FLOWS)
        ]
        self.pool = [
            [
                Packet(five_tuple=flows[int(FLOWS * rng.random() ** 3)], size=64)
                for _ in range(BURST)
            ]
            for _ in range(POOL_BURSTS)
        ]
        # The oracle: an independent filter with the same secret and no
        # memo decides every flow once; f(p) is stateless, so that verdict
        # holds for every packet of the flow.
        oracle = StatelessFilter(secret=SECRET, mode=ConnectionPreservingMode.HYBRID)
        oracle.install_rules(self.rules)
        verdict = {flow: oracle.decide_flow(flow).allowed for flow in flows}
        self.expected = [pack([verdict[p.five_tuple] for p in burst]) for burst in self.pool]

    def setup(self):
        from repro.core.enclave_filter import EnclaveFilter
        from repro.tee.enclave import Platform

        program = EnclaveFilter(secret=SECRET)
        enclave = Platform("perfbench-hot").launch(program)
        enclave.ecall("install_rules", self.rules)
        return {"enclave": enclave, "program": program, "verdicts": [], "packets": 0}

    def _bursts(self, state, indexes) -> None:
        ecall = state["enclave"].ecall
        record = state["verdicts"].append
        pool = self.pool
        for i in indexes:
            record((i, pack(ecall("process_burst", pool[i]))))
        state["packets"] += BURST * len(indexes)

    def warm(self, state) -> None:
        self._bursts(state, range(POOL_BURSTS))

    def count(self, state):
        self._bursts(state, range(COUNT_BURSTS))
        return COUNT_BURSTS * BURST, COUNT_BURSTS

    def steady(self, state, seconds: float, inject: bool, phase) -> Steady:
        ecall = state["enclave"].ecall
        if inject:
            ecall = corrupt_once(ecall)
        pool = self.pool
        record = state["verdicts"].append
        ends: List[float] = []
        cpus: List[float] = []
        latencies: List[float] = []
        clock, cpu_clock = phase.wall, phase.cpu
        i = 0
        phase.open()
        cpu_started = cpu_clock()
        started = clock()
        deadline = started + seconds
        now = started
        while now < deadline:
            index = i % POOL_BURSTS
            verdicts = ecall("process_burst", pool[index])
            done = clock()
            cpus.append(cpu_clock())
            latencies.append(done - now)
            ends.append(done)
            record((index, pack(verdicts)))
            i += 1
            phase.tick()
            now = clock()
        phase.close()
        state["packets"] += BURST * i
        state["next"] = i
        return Steady(start=started, cpu_start=cpu_started, ends=ends, cpus=cpus,
                      packets=[BURST] * i, latencies=latencies, probes=phase.probes)

    def control(self, state, steady: Steady, between) -> List[Tuple[float, float]]:
        """Each delta installs one rule on an unused prefix through the
        ECall, with a few traffic bursts after it, so the deltas are
        sampled over seconds (the host's speed changes on that scale) under
        load; the rules are removed together, untimed, afterwards (install
        and remove times form two modes with no steady median).  The first
        deltas are not timed."""
        ecall = state["enclave"].ecall
        timings = []
        rules = [churn_rule(k) for k in range(DELTA_WARM + DELTAS)]
        burst = state.get("next", 0)
        for k, rule in enumerate(rules):
            started = time.perf_counter()
            ecall("install_rules", [rule])
            if k >= DELTA_WARM:
                ended = time.perf_counter()
                timings.append((ended - started, ended))
            self._bursts(state, [(burst + j) % POOL_BURSTS for j in range(BURSTS_PER_DELTA)])
            burst += BURSTS_PER_DELTA
            if k % 10 == 9:
                between()
        ecall("remove_rules", [rule.rule_id for rule in rules])
        return timings

    def finish(self, state, result: Result) -> None:
        program = state["program"]
        allowed = sum(sum(v) for _, v in state["verdicts"])
        logs = program._logs
        result.check(
            "sketch_totals",
            logs.incoming.total == state["packets"] and logs.outgoing.total == allowed,
            f"incoming={logs.incoming.total}/{state['packets']} packets, "
            f"outgoing={logs.outgoing.total}/{allowed} allowed",
        )
        report = program.report()
        result.check(
            "filter_report",
            report.packets_processed == state["packets"]
            and report.packets_allowed == allowed,
            f"processed={report.packets_processed}, allowed={report.packets_allowed}",
        )
        state["enclave"].destroy()

    def verify(self, state, result: Result) -> None:
        check_verdicts(result, state["verdicts"], self.expected)
        state["verdicts"] = []
