"""``serve_churn``: ``repro serve`` over an attested fleet, with rule churn.

:class:`ServeService` runs over :class:`FleetBackend`: a 4-enclave fleet
deployed and attested through :class:`VIFSession`, holding 64 ``/24`` rules
in the ``repro serve`` CLI layout.  The source replays pre-generated
256-packet bursts over 8,192 reused flows (80% into rule prefixes, 20% on
the default path) as fast as the service takes them, and one hot install
plus remove pair on an unused ``203.0.x.0/24`` prefix runs every 16
bursts.  It is the only workload with writes beside reads and the only one
through the serve stages and the fleet's load balancer.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from collections import deque
from typing import Dict

from perfbench.common import Result, check_verdicts, churn_rule, dotted, pack
from perfbench.harness import Steady, Workload, corrupt_once

FLEET = 4
RULES = 64
BURST = 256
FLOWS = 8192
RULED_SHARE = 0.8
POOL_BURSTS = 256
WARM_BURSTS = 32
COUNT_BURSTS = 64
CHURN_EVERY = 16
VICTIM = "victim.example"


class _Source:
    """Replays pool bursts: :data:`WARM_BURSTS` untimed ones, then timed
    ones until the deadline, asking for one churn pair every
    :data:`CHURN_EVERY` timed bursts."""

    def __init__(self, pool, seconds: float, churn: asyncio.Queue, clock):
        self.pool = pool
        self.clock = clock
        self.seconds = seconds
        self.churn = churn
        self.pulled = deque()
        self.count = 0
        self.done = False

    def bursts(self):
        pool, clock = self.pool, self.clock
        deadline = None
        while True:
            timed = self.count - WARM_BURSTS
            if timed == 0:
                deadline = clock() + self.seconds
            if deadline is not None and clock() >= deadline:
                break
            if timed > 0 and timed % CHURN_EVERY == 0:
                self.churn.put_nowait(timed // CHURN_EVERY)
            self.pulled.append(clock())
            yield pool[self.count % len(pool)]
            self.count += 1
        self.done = True


class ServeChurn(Workload):
    name = "serve_churn"
    setups = 10
    #: One churn pair per window.
    group = CHURN_EVERY
    memory_calls = 128

    def make_inputs(self, seed: int) -> None:
        from repro.core.rules import Action, FilterRule, FlowPattern, RuleSet
        from repro.dataplane.packet import FiveTuple, Packet, Protocol
        from repro.dataplane.pipeline import UNROUTED
        from repro.util.units import GBPS

        rng = random.Random(seed)
        self.rate = 0.6 * FLEET * 10 * GBPS / RULES
        self.rules = [
            FilterRule(
                rule_id=i + 1,
                pattern=FlowPattern(dst_prefix=f"10.{(i // 256) % 256}.{i % 256}.0/24"),
                action=Action.DROP if i % 2 else Action.ALLOW,
                requested_by=VICTIM,
                rate_bps=self.rate,
            )
            for i in range(RULES)
        ]
        flows = []
        for _ in range(FLOWS):
            if rng.random() < RULED_SHARE:
                dst = f"10.0.{rng.randrange(RULES)}.{rng.randrange(256)}"
            else:  # 198.51.100.0/24: no rule, the default path
                dst = f"198.51.100.{rng.randrange(256)}"
            flows.append(FiveTuple(
                src_ip=dotted(0xAC100000 | rng.randrange(1 << 16)), dst_ip=dst,
                src_port=rng.randrange(1024, 65536), dst_port=rng.choice((80, 443, 53)),
                protocol=Protocol.UDP,
            ))
        self.pool = [
            [Packet(five_tuple=flows[rng.randrange(FLOWS)], size=64) for _ in range(BURST)]
            for _ in range(POOL_BURSTS)
        ]
        self.index = {id(burst): i for i, burst in enumerate(self.pool)}
        # The static-rule reference: the most specific rule's action, and
        # the default path for packets no rule matches.
        reference = RuleSet(self.rules)
        verdict = {}
        for flow in flows:
            rule = reference.match(flow)
            verdict[flow] = UNROUTED if rule is None else rule.action is Action.ALLOW
        self.expected = [pack([verdict[p.five_tuple] for p in burst]) for burst in self.pool]

    def setup(self):
        from repro.core.controller import IXPController
        from repro.core.fleet import FleetConfig, FleetManager
        from repro.core.rules import RPKIRegistry, RuleSet
        from repro.core.session import VIFSession
        from repro.serve import FleetBackend
        from repro.tee.attestation import IASService

        ias = IASService()
        controller = IXPController(ias)
        fleet = FleetManager(controller, config=FleetConfig(seed="perfbench/serve"))
        fleet.deploy(RuleSet(self.rules), enclaves_override=FLEET)
        rpki = RPKIRegistry()
        rpki.authorize(VICTIM, "10.0.0.0/8")
        rpki.authorize(VICTIM, "203.0.0.0/16")
        session = VIFSession(VICTIM, rpki, ias, controller)
        session.attest_filters()
        fleet.session = session
        return {"fleet": fleet, "backend": FleetBackend(fleet), "calls": [], "reports": []}

    def warm(self, state) -> None:
        """Warm-up bursts run inside each service session (see :meth:`steady`)."""

    def steady(self, state, seconds: float, inject: bool, phase) -> Steady:
        from repro.serve import ServeConfig, ServeService

        backend = state["backend"]
        index = self.index
        calls = []       # (pool index, verdicts, started, ended, CPU clock at end)
        deltas = []      # seconds per awaited install/remove, as the victim sees it
        delta_ends = []
        burst_fn = backend.process_burst
        if inject:
            burst_fn = corrupt_once(burst_fn)
        clock, cpu_clock = phase.wall, phase.cpu

        def process_burst(burst):
            started = clock()
            verdicts = burst_fn(burst)
            calls.append((index[id(burst)], pack(verdicts), started, clock(), cpu_clock()))
            if len(calls) == WARM_BURSTS:
                phase.open()  # the measured phase starts as the warm-up ends
            elif len(calls) > WARM_BURSTS:
                phase.tick()
            return verdicts

        backend.process_burst = process_burst

        async def session() -> object:
            churn: asyncio.Queue = asyncio.Queue()
            source = _Source(self.pool, seconds, churn, clock)
            # A closed loop never sheds: ingest waits for the filter stage
            # instead of giving up on a full queue.
            config = ServeConfig(shed_timeout_s=30.0, heartbeat_deadline_s=60.0)
            service = ServeService(source, backend, config=config)

            async def churner() -> None:
                while True:
                    k = await churn.get()
                    rule = churn_rule(k, requested_by=VICTIM, rate_bps=self.rate)
                    started = clock()
                    await service.install_rule(rule)
                    middle = clock()
                    await service.remove_rule(rule.rule_id)
                    ended = clock()
                    deltas.extend((middle - started, ended - middle))
                    delta_ends.extend((middle, ended))
                    churn.task_done()

            await service.start()
            task = asyncio.create_task(churner())
            while not (source.done and len(calls) == source.count):
                await asyncio.sleep(0.002)
            phase.close()
            await churn.join()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            state["pulled"] = list(source.pulled)
            return await service.drain()

        try:
            report = asyncio.run(session())
        finally:
            del backend.process_burst
        state["reports"].append(report)
        state["calls"].extend(call[:2] for call in calls)
        timed = calls[WARM_BURSTS:]
        before = calls[WARM_BURSTS - 1]
        waits = [c[2] - pulled for c, pulled in zip(calls, state["pulled"])][WARM_BURSTS:]
        return Steady(
            start=before[3],
            cpu_start=before[4],
            ends=[c[3] for c in timed],
            cpus=[c[4] for c in timed],
            packets=[len(c[1]) for c in timed],
            latencies=[c[3] - c[2] for c in timed],
            deltas=deltas,
            delta_ends=delta_ends,
            probes=phase.probes,
            extra={
                "filter_s": sum(c[3] - c[2] for c in timed),
                "rx_waits": waits,
            },
        )

    def count(self, state):
        """The same bursts and churn cadence driven straight into the
        backend: the serve loop's watchdog probes on a timer, so counts
        taken through it would not repeat exactly."""
        from repro.serve.backends import RuleDelta

        backend, record = state["backend"], state["calls"].append
        for i in range(COUNT_BURSTS):
            if i and i % CHURN_EVERY == 0:
                rule = churn_rule(i // CHURN_EVERY, requested_by=VICTIM, rate_bps=self.rate)
                backend.apply_delta(RuleDelta(action="install", rule=rule))
                backend.apply_delta(RuleDelta(action="remove", rule_id=rule.rule_id))
            record((i, pack(backend.process_burst(self.pool[i]))))
        return COUNT_BURSTS * BURST, COUNT_BURSTS

    def finish(self, state, result: Result) -> None:
        from repro import obs

        for report in state["reports"]:
            books = report.allowed + report.dropped + report.unrouted + report.shed
            result.failed += report.shed + report.unaccounted
            result.check(
                "drain",
                report.state == "drained" and report.unaccounted == 0
                and report.shed == 0 and books == report.ingested,
                f"state={report.state}, ingested={report.ingested}, "
                f"shed={report.shed}, unaccounted={report.unaccounted}",
            )
        violations = obs.get_registry().check_invariants()
        result.check("invariants", not violations, "; ".join(violations) or "all hold")
        state["reports"] = []

    def verify(self, state, result: Result) -> None:
        check_verdicts(result, state["calls"], self.expected)
        state["calls"] = []

    def layer_extras(self, steadies, view) -> Dict[str, float]:
        wall = sum(steady.wall_s for steady in steadies)
        packets = view.packets
        filter_s = sum(steady.extra["filter_s"] for steady in steadies)
        control_s = view.steady.get("serve.apply_delta", (0, 0.0, 0.0))[1] / 1e9
        waits = [wait for steady in steadies for wait in steady.extra["rx_waits"]]
        return {
            "serve.filter_busy_share": filter_s / wall,
            "serve.control_busy_share": control_s / wall,
            "serve.loop_ns_per_pkt": (wall - filter_s - control_s) / packets * 1e9,
            "serve.rx_wait_ms_p50": statistics.median(waits) * 1e3,
        }
