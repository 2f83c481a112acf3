"""The phases every workload runs through, and the metrics derived from them.

An untraced run sets the system up, warms it, measures a closed-loop
steady phase for ``--seconds``, times hot rule deltas (sampling further
set-ups between them), then checks every verdict against the workload's
oracle.

A traced run installs the span wrappers and runs a fixed-length count
phase twice on fresh set-ups -- its operation counts must repeat exactly.
Then it alternates untraced and traced steady phases, each on a fresh
set-up (the wrappers are taken out for the untraced ones): the traced
phases' spans give the per-layer figures, and the untraced phases on
either side of each give the tracing overhead and the cost per packet the
ledger reconciles the per-layer self times with.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.common import (
    ProgramMemory, Result, low_percentile, percentile, slowness, tail_metrics, windows,
)
from perfbench.spans import SpanTracer, Totals, WorkerTotals, install

#: Registry counter families the deterministic counts are read from.
COUNTED_FAMILIES = (
    "vif_fastpath_sha256_digests_total",
    "vif_fastpath_decision_cache_hits_total",
    "vif_fastpath_decision_cache_misses_total",
    "vif_fastpath_burst_packets_total",
    "vif_fastpath_burst_unique_flows_total",
    "vif_offload_ingress_total",
    "vif_offload_drops_total",
    "vif_offload_sampled_total",
    "vif_offload_passed_total",
)

#: Span names whose call counts are deterministic counts.
COUNTED_SPANS = {
    "ecalls": "tee.ecall:process_burst",
    "hash_coins": "filter.hash_coin",
    "lookups": "lookup.store",
    "counter_incs": "obs.counter_inc",
}

#: Windows are ranked by packet rate (and by CPU per packet) and the
#: figure at this share from the slow end is reported: a window the host
#: stalled, which no probe saw, then counts only when a quarter of them
#: are stalled.
RATE_QUANTILE = 0.25

#: Probes whose median scales a rule delta timed after the steady phase.
CONTROL_PROBES = 5

#: Set-up times are reported at this quantile (the median).
SETUP_QUANTILE = 0.50

#: The ledger gate: per-layer self times, with the tracer's calibrated
#: cost taken out, plus the benchmark's own loop time, over the cost per
#: packet of the untraced phases on either side, each scaled to the
#: reference host speed (see :meth:`Workload.ledger_ns`); the median over
#: the traced phases must be this close to 1.  On a 2-vCPU x86-64 VM, 12
#: traced runs (4 seeds per workload) gave medians of 0.91 to 1.29 and
#: single phases of 0.69 to 1.47: the fixed per-span cost that
#: calibration measures undercounts the tracer when the wrapped code runs
#: with colder caches, and probes around a phase miss the host's speed
#: changes inside it.
LEDGER_TOLERANCE = 0.40
#: Traced steady phases in a traced run, each between two untraced ones.
PAIRS = 3
#: Worker spans are timed on the worker CPU clock and nest inside the
#: worker's busy time; they may exceed it by no more than this share.
WORKER_SPAN_TOLERANCE = 0.02


@dataclass
class Steady:
    """What a steady phase measured, on the phase's clock (which stops
    while a speed probe runs)."""

    start: float
    cpu_start: float
    #: Per call: wall and process CPU clock at its return, packets, latency.
    ends: List[float]
    cpus: List[float]
    packets: List[int]
    latencies: List[float]
    #: Hot rule delta latencies measured inside the phase (serve only),
    #: and the phase clock when each ended.
    deltas: List[float] = field(default_factory=list)
    delta_ends: List[float] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)
    #: Host slowness probed every ``group`` calls: calls made so far ->
    #: (phase clock, slowness).  Empty in traced runs.
    probes: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    @property
    def total_packets(self) -> int:
        return sum(self.packets)

    @property
    def wall_s(self) -> float:
        return (self.ends[-1] - self.start) if self.ends else 0.0

    def slowness(self, call: int, group: int) -> float:
        """Host slowness during call ``call``: the mean of the probes
        taken at the start and end of its window (1.0 without probes)."""
        if not self.probes:
            return 1.0
        first = call - call % group
        last = min(first + group, len(self.ends))
        return (self.probes[first][1] + self.probes[last][1]) / 2

    def slowness_at(self, when: float) -> float:
        """Host slowness probed nearest to phase clock ``when``."""
        if not self.probes:
            return 1.0
        return min(self.probes.values(), key=lambda probe: abs(probe[0] - when))[1]

    def windows(self, group: int):
        """Packet rate and CPU per packet per window of ``group`` calls,
        scaled to the reference host speed (see :func:`common.slowness`)."""
        rates, cpu_per_packet = windows(self.ends, self.cpus, self.packets,
                                        self.start, self.cpu_start, group)
        scale = [self.slowness(k * group, group) for k in range(len(rates))]
        return ([r * f for r, f in zip(rates, scale)],
                [c / f for c, f in zip(cpu_per_packet, scale)])

    def reference_latencies(self, group: int) -> List[float]:
        """Call latencies scaled to the reference host speed."""
        return [t / self.slowness(i, group) for i, t in enumerate(self.latencies)]

    def rate(self, group: int) -> Tuple[float, float, int]:
        """The packet rate sustained in 3 of 4 windows of ``group`` calls."""
        return low_percentile(self.windows(group)[0], RATE_QUANTILE)


class PhaseMark:
    """Marks a workload's measured phase: :meth:`open` where its clock
    starts, :meth:`tick` after each call, :meth:`close` after its last call.
    Workloads time the phase with :meth:`wall` and :meth:`cpu`.

    In a traced run it is the ``bench.steady`` span (for ``serve_churn``
    opened after the last warm-up burst), so spans ``lo:hi`` are that span
    and everything it covers.

    In an untraced run it probes the host's speed (:func:`common.slowness`)
    at the open and every ``probe_every`` calls, and its clocks stop while
    a probe runs; and it reads the program's peak memory once the phase
    has made ``memory_calls`` calls (or at its close, if it makes fewer),
    so the reading covers a fixed amount of work whatever the packet rate.
    """

    def __init__(self, tracer: Optional[SpanTracer] = None,
                 memory: Optional[Callable[[], float]] = None, memory_calls: int = 0,
                 probe_every: int = 0) -> None:
        self.tracer = tracer
        self.lo: Optional[int] = None
        self.hi: Optional[int] = None
        self._index: Optional[int] = None
        self._memory = memory
        self._memory_calls = memory_calls
        self._probe_every = probe_every
        self.calls = 0
        self.memory_kb: Optional[float] = None
        self.probes: Dict[int, Tuple[float, float]] = {}
        self._paused = 0.0
        self._paused_cpu = 0.0

    def wall(self) -> float:
        return time.perf_counter() - self._paused

    def cpu(self) -> float:
        return time.process_time() - self._paused_cpu

    def _probe(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        factor = slowness()
        self._paused += time.perf_counter() - wall
        self._paused_cpu += time.process_time() - cpu
        self.probes[self.calls] = (self.wall(), factor)

    def open(self) -> None:
        tracer = self.tracer
        if tracer is not None and self.lo is None:
            self.lo = self._index = tracer._open(tracer.name_id("bench.steady"))
        if self._probe_every and not self.probes:
            self._probe()

    def tick(self) -> None:
        self.calls += 1
        if self.calls == self._memory_calls and self._memory is not None:
            self.memory_kb = self._memory()
        if self._probe_every and self.calls % self._probe_every == 0:
            self._probe()

    def close(self) -> None:
        if self._index is not None:
            self.tracer._close(self._index)
            self._index = None
            self.hi = len(self.tracer)
        if self.memory_kb is None and self._memory is not None:
            self.memory_kb = self._memory()
        if self._probe_every and self.calls not in self.probes:
            self._probe()


class Workload:
    """One seeded workload; subclasses fill in the phases."""

    name = ""
    #: Set-ups per untraced run (see :data:`SETUP_QUANTILE`).
    setups = 5
    #: Calls per window of the windowed packet rate and CPU per packet.
    group = 32
    #: Untraced set-ups build the traffic after the last set-up (so worker
    #: processes forked during set-up do not share the input pool).
    traffic_after_setup = False
    #: Warm up before the count phase (workloads whose caches matter).
    count_warms = True
    #: Steady-phase calls after which peak memory is read (see
    #: :class:`PhaseMark`).
    memory_calls = 0
    #: Sample further set-up times between hot rule deltas (otherwise
    #: after them).
    setup_between_deltas = True

    def make_inputs(self, seed: int) -> None:
        raise NotImplementedError

    def make_traffic(self) -> None:
        """Build the packet pool when it is separate from :meth:`make_inputs`."""

    def setup(self):
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Discard a set-up that will not serve traffic."""

    def warm(self, state) -> None:
        raise NotImplementedError

    def count(self, state) -> Tuple[int, int]:
        """Fixed work for the deterministic counts; returns (packets, calls)."""
        raise NotImplementedError

    def steady(self, state, seconds: float, inject: bool, phase: PhaseMark) -> Steady:
        """The closed-loop measured phase; ``phase`` is opened where its
        wall clock starts, ticked after each call and closed after its
        last call."""
        raise NotImplementedError

    def control(self, state, steady: Steady,
                between: Callable[[], None]) -> List[Tuple[float, float]]:
        """Hot rule deltas timed after the steady phase: (seconds,
        ``time.perf_counter()`` at its end) each.  Workloads call
        ``between`` every few deltas; the harness probes the host's speed
        there (and may sample set-up time, see
        :attr:`setup_between_deltas`)."""
        return []

    def finish(self, state, result: Result) -> None:
        """Tear down and run the end-of-run consistency checks."""

    def verify(self, state, result: Result) -> None:
        """Compare every recorded verdict with the oracle."""
        raise NotImplementedError

    def peak_rss_kb(self, state, memory: ProgramMemory) -> float:
        """The program's peak resident memory so far, in KiB."""
        return memory.peak_kb()

    def untraced_ns(self, state, steady: Steady) -> float:
        """Cost per packet of an untraced steady phase, on the clock the
        ledger reconciles: wall time of the measured loop."""
        return steady.wall_s * 1e9 / steady.total_packets

    def ledger_ns(self, view: "TracedView") -> float:
        """The same cost rebuilt from the traced steady phase: the
        calibrated self times of every span it covers (the benchmark's own
        loop is the self time of ``bench.steady``) per packet."""
        return sum(own for _, _, own in view.steady.values()) / view.packets

    def cpu_s_per_packet(self, state, steady: Steady) -> float:
        """Process CPU per packet of the steady phase at the reference host
        speed, in the window ranked like :meth:`Steady.rate` (3 of 4
        windows cost less)."""
        return percentile(steady.windows(self.group)[1], 1.0 - RATE_QUANTILE)[0]

    def extra_counts(self, state) -> Dict[str, int]:
        return {}

    def layer_extras(self, steadies: List[Steady], view: "TracedView") -> Dict[str, float]:
        """Workload-specific per-layer figures (shard, serve) from the
        traced steady phases."""
        return {}


def corrupt_once(fn: Callable) -> Callable:
    """``fn`` wrapped to flip the first verdict of its first call: the
    self-test that the oracle catches one wrong verdict."""
    armed = [True]

    def wrapper(*args, **kwargs):
        verdicts = fn(*args, **kwargs)
        if armed[0] and verdicts:
            armed[0] = False
            verdicts = list(verdicts)
            verdicts[0] = not verdicts[0]
        return verdicts

    return wrapper


def put_end_to_end(result: Result, wl: Workload, state, steady: Steady,
                   deltas: List[float]) -> None:
    rate, quantile, n = steady.rate(wl.group)
    result.put("pps", rate, "pkt/s")
    packets = steady.total_packets
    result.notes["pps"] = (
        f"p{quantile * 100:.0f} of {n} windows of {wl.group} calls; "
        f"{packets} packets in {steady.wall_s:.2f} s "
        f"= {packets / steady.wall_s:.0f} pkt/s overall"
        + ("; the input pool ran out before --seconds" if steady.extra.get("pool_exhausted") else "")
    )
    result.put("cpu_us_per_pkt", wl.cpu_s_per_packet(state, steady) * 1e6, "us")
    tail_metrics(result, "burst", steady.reference_latencies(wl.group), 1e6, "us",
                 (("p75", 0.75), ("p90", 0.90)))
    # The median only: cold_sharded's deltas above it mix worker wake-up
    # jitter and membership-tier rebuilds in shares that shift from run to
    # run (p75 spread 19-26% over 10 seeds), so the tail is a note.
    tail_metrics(result, "rule_update", deltas, 1e3, "ms", (("p50", 0.50),))
    value, effective, n = percentile(deltas, 0.90)
    result.notes["rule_update_p50_ms"] += f"; p{effective * 100:.1f} {value * 1e3:.4f} ms"


def _inputs(wl: Workload, seed: int, memory: ProgramMemory) -> None:
    memory.build(lambda: wl.make_inputs(seed))
    if not wl.traffic_after_setup:
        memory.build(wl.make_traffic)


def run_untraced(wl: Workload, seed: int, seconds: float, inject: bool, result: Result) -> None:
    memory = ProgramMemory()
    _inputs(wl, seed, memory)
    setup_times = []  # seconds at the reference host speed
    control_slowness = []  # (time.perf_counter(), slowness)

    def timed_setup():
        factor = slowness()
        started = time.perf_counter()
        candidate = wl.setup()
        setup_times.append((time.perf_counter() - started) / factor)
        return candidate

    def between_deltas() -> None:
        # The host's speed shifts on a scale of seconds: probe it, and
        # sample set-up time, across the control phase.
        control_slowness.append((time.perf_counter(), slowness()))
        if wl.setup_between_deltas and len(setup_times) < wl.setups:
            wl.teardown(timed_setup())

    state = timed_setup()
    if wl.traffic_after_setup:
        memory.build(wl.make_traffic)
    wl.warm(state)
    phase = PhaseMark(memory=lambda: wl.peak_rss_kb(state, memory), memory_calls=wl.memory_calls,
                      probe_every=wl.group)
    steady = wl.steady(state, seconds, inject, phase)
    # Each delta at the reference speed: by the probe nearest to it in the
    # steady phase (every window has one), by the median of the
    # CONTROL_PROBES nearest to it in the control phase (a probe there
    # can overlap work the workers finish after a delta is acked).
    deltas = [d / steady.slowness_at(end) for d, end in zip(steady.deltas, steady.delta_ends)]
    for seconds, end in wl.control(state, steady, between_deltas):
        nearest = sorted(control_slowness, key=lambda probe: abs(probe[0] - end))
        deltas.append(seconds / statistics.median(f for _, f in nearest[:CONTROL_PROBES]))
    while len(setup_times) < wl.setups:
        wl.teardown(timed_setup())
    result.put("peak_rss_mb", phase.memory_kb / 1024.0, "MB")
    result.notes["peak_rss_mb"] = (f"after {min(phase.calls, wl.memory_calls)} steady calls; "
                                   f"inputs ({memory.inputs_kb / 1024:.1f} MB) excluded")
    wl.finish(state, result)
    wl.verify(state, result)
    setup_s, quantile, _ = percentile(setup_times, SETUP_QUANTILE, tail=0)
    result.put("setup_s", setup_s, "s")
    result.notes["setup_s"] = f"p{quantile * 100:.0f} of " + ", ".join(f"{t:.3f}" for t in setup_times)
    put_end_to_end(result, wl, state, steady, deltas)
    rates, cpu_per_packet = steady.windows(wl.group)
    result.notes["samples"] = {
        "window_pps": rates, "window_cpu_s_per_pkt": cpu_per_packet,
        "call_s": steady.reference_latencies(wl.group), "rule_update_s": deltas,
        "setup_s": setup_times, "slowness": [f for _, f in steady.probes.values()],
        "control_slowness": [f for _, f in control_slowness],
    }
    factors = sorted(f for _, f in steady.probes.values())
    result.notes["host_slowness"] = (
        f"steady phase: median {statistics.median(factors):.2f}, range "
        f"{factors[0]:.2f}-{factors[-1]:.2f} ({len(factors)} probes); every time is "
        f"scaled to the reference speed, every rate by the inverse"
    )
    result.notes["error_rate"] = result.failed / max(result.attempted, 1)


@dataclass
class TracedView:
    """Span totals of the traced steady phases, summed over them."""

    setup: Totals
    steady: Totals = field(default_factory=dict)
    workers: Optional[WorkerTotals] = None
    cpu_ns: Dict[str, int] = field(default_factory=dict)
    #: Packets of the traced steady phases (the denominator for spans
    #: recorded in this process).
    packets: int = 0
    #: Packets the workers processed over their planes' lives (the
    #: denominator for worker spans, which are booked per plane).
    worker_packets: int = 0
    #: The workers' busy CPU time over their planes' lives.
    worker_busy_ns: float = 0.0

    def add(self, steady: Totals, packets: int, state) -> None:
        for name, (calls, total, own) in steady.items():
            have = self.steady.get(name, (0, 0.0, 0.0))
            self.steady[name] = (have[0] + calls, have[1] + total, have[2] + own)
        self.packets += packets
        run = state.get("run")
        if run is not None:
            self.worker_packets += run.packets
            self.worker_busy_ns += sum(run.worker_busy_seconds) * 1e9
        workers = state.get("worker_totals")
        if workers is not None:
            if self.workers is None:
                self.workers = workers
            else:
                self.workers.merge(workers)


def _counts(tracer: SpanTracer, lo: int, hi: int, before: Dict[str, float],
            registry, workers: Optional[WorkerTotals]) -> Dict[str, int]:
    """Deterministic operation counts of one count phase."""
    spans = tracer.totals(lo, hi)
    worker_spans = workers.totals("traffic") if workers else {}
    totals = registry.snapshot()["totals"]
    counts: Dict[str, int] = {}
    for key, span in COUNTED_SPANS.items():
        counts[key] = spans.get(span, (0, 0, 0))[0] + worker_spans.get(span, (0, 0, 0))[0]
    setup_left = workers.setup_counts if workers else {}
    for family in COUNTED_FAMILIES:
        counts[family] = int(totals.get(family, 0) - before.get(family, 0)
                             - setup_left.get(family, 0))
    return counts


def _probed_steady(wl: Workload, state, seconds: float, inject: bool,
                   phase: PhaseMark) -> Tuple[Steady, float]:
    """A steady phase and the host's slowness around it (the mean of the
    medians of three probes just before and just after)."""
    before = statistics.median(slowness() for _ in range(3))
    steady = wl.steady(state, seconds, inject, phase)
    after = statistics.median(slowness() for _ in range(3))
    return steady, (before + after) / 2


def _untraced_phase(wl: Workload, seconds: float, result: Result) -> Tuple[float, float]:
    """An untraced steady phase on a fresh set-up: (overall packet rate,
    ns per packet as :meth:`Workload.untraced_ns` measures it), both at
    the reference host speed."""
    from repro import obs

    obs.set_registry(obs.MetricsRegistry())
    state = wl.setup()
    wl.warm(state)
    steady, factor = _probed_steady(wl, state, seconds, False, PhaseMark())
    wl.finish(state, result)
    wl.verify(state, result)
    return (steady.total_packets / steady.wall_s * factor,
            wl.untraced_ns(state, steady) / factor)


def run_traced(wl: Workload, seed: int, seconds: float, inject: bool, result: Result,
               tracer: SpanTracer) -> None:
    from repro import obs

    _inputs(wl, seed, ProgramMemory())
    if wl.traffic_after_setup:
        wl.make_traffic()
    half = seconds / 2.0

    install(tracer)
    tracer.calibrate()

    # 1. The count phase, twice on fresh set-ups: its counts must repeat.
    runs = []
    for _ in range(2):
        registry = obs.MetricsRegistry()
        obs.set_registry(registry)
        slots = tracer.returns.setdefault("fleet.install_rule", [])
        slots_removed = tracer.returns.setdefault("fleet.remove_rule", [])
        marks = (len(slots), len(slots_removed))
        state = wl.setup()
        if wl.count_warms:
            wl.warm(state)
        before = registry.snapshot()["totals"]
        lo = len(tracer)
        packets, calls = wl.count(state)
        hi = len(tracer)
        changed = slots[marks[0]:] + slots_removed[marks[1]:]
        wl.finish(state, result)
        extra = wl.extra_counts(state)
        counts = _counts(tracer, lo, hi, before, registry, state.get("worker_totals"))
        wl.verify(state, result)
        counts.update(packets=packets, bursts=calls, deltas=len(changed),
                      slots_changed=sum(changed), **extra)
        runs.append(counts)
    same = runs[0] == runs[1]
    diff = {k: (runs[0].get(k), runs[1].get(k)) for k in set(runs[0]) | set(runs[1])
            if runs[0].get(k) != runs[1].get(k)}
    result.check("counts_repeat", same, "identical" if same else f"differ: {diff}")
    counts = runs[0]
    result.notes["counts"] = counts

    # 2. Untraced and traced phases on fresh set-ups, alternating: the
    # host's speed drifts over seconds, and the untraced phases on either
    # side of each traced one bracket it.  Each phase's cost is scaled to
    # the reference host speed by probes around it.
    tracer.uninstall()
    untraced = [_untraced_phase(wl, half / (PAIRS + 1), result)]
    view, steadies, ratios = None, [], []
    cpu_before = dict(tracer.cpu_ns)
    traced_wall = 0.0
    for i in range(PAIRS):
        install(tracer)
        obs.set_registry(obs.MetricsRegistry())
        lo_setup = len(tracer)
        state = wl.setup()
        if view is None:
            view = TracedView(setup=tracer.totals(lo_setup))
        wl.warm(state)
        phase = PhaseMark(tracer)
        traced, factor = _probed_steady(wl, state, half / PAIRS, inject and i == 0, phase)
        tracer.uninstall()
        calibration = (tracer.inner_ns, tracer.outer_ns)
        tracer.calibrate()
        # Correct with the mean of the calibrations on either side.
        tracer.inner_ns = (tracer.inner_ns + calibration[0]) / 2
        tracer.outer_ns = (tracer.outer_ns + calibration[1]) / 2
        wl.finish(state, result)
        wl.verify(state, result)
        tracer.dump(f"{wl.name}-steady{i}", phase.lo, phase.hi)
        segment = TracedView(setup={})
        segment.add(tracer.totals(phase.lo, phase.hi), traced.total_packets, state)
        view.add(segment.steady, traced.total_packets, state)
        steadies.append(traced)
        traced_wall += traced.wall_s / factor
        untraced.append(_untraced_phase(wl, half / (PAIRS + 1), result))
        around = (untraced[-2][1] + untraced[-1][1]) / 2
        ratios.append(wl.ledger_ns(segment) / factor / around)
    view.cpu_ns = {k: v - cpu_before.get(k, 0) for k, v in tracer.cpu_ns.items()}
    traced_rate = view.packets / traced_wall
    untraced_rate = sum(rate for rate, _ in untraced) / len(untraced)
    metrics = layer_metrics(view, counts, traced_rate, untraced_rate)
    ratio = statistics.median(ratios)
    metrics["trace.reconcile_ratio"] = ratio
    result.check("ledger", abs(ratio - 1.0) <= LEDGER_TOLERANCE,
                 "per-layer self times over untraced cost per packet, by traced phase: "
                 + ", ".join(f"{r:.3f}" for r in ratios)
                 + f"; median within {LEDGER_TOLERANCE:.0%} of 1")
    metrics.update(wl.layer_extras(steadies, view))
    if counts["vif_offload_ingress_total"]:
        result.notes.update(offload_notes(view, counts))
    workers = view.workers
    if workers is not None:
        coverage = metrics["trace.worker_span_coverage"]
        result.check("worker_spans", 0.0 < coverage <= 1.0 + WORKER_SPAN_TOLERANCE,
                     f"worker top-level spans cover {coverage:.3f} of worker busy time")
    for name, value in metrics.items():
        result.put(name, value, LAYER_UNITS[name])
    result.notes["layers"] = {
        name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
        for name, (c, t, s) in sorted(view.steady.items())
    }
    if workers is not None:
        result.notes["worker_layers"] = {
            name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
            for name, (c, t, s) in sorted(workers.totals("traffic").items())
        }


#: Every per-layer metric, with its unit.  Idle layers report 0.  The
#: offload tier's figures are notes only: the one workload that runs the
#: tier (``cold_blocklist``) is not in the benchmark while it fails its
#: oracle.
LAYER_UNITS = {
    "tee.ecall_overhead_ns_per_burst": "ns",
    "tee.ecalls_per_burst": "count",
    "enclave_filter.self_ns_per_pkt": "ns",
    "enclave_filter.pkts_per_flow": "count",
    "filter.decide_self_ns_per_flow": "ns",
    "filter.memo_hit_ratio": "ratio",
    "filter.hash_coins_per_kpkt": "count",
    "lookup.store_ns_per_lookup": "ns",
    "lookup.trie_ns_per_lookup": "ns",
    "lookup.membership_ns_per_query": "ns",
    "lookup.lookups_per_pkt": "count",
    "sketch.log_ns_per_pkt": "ns",
    "sketch.sha256_per_pkt": "count",
    "obs.counter_incs_per_pkt": "count",
    "obs.inc_ns_per_pkt": "ns",
    "shard.coord_cpu_ns_per_pkt": "ns",
    "shard.coord_wait_ns_per_pkt": "ns",
    "shard.worker_busy_ns_per_pkt": "ns",
    "shard.worker_unspanned_ns_per_pkt": "ns",
    "shard.worker_skew": "ratio",
    "fleet.route_ns_per_pkt": "ns",
    "fleet.burst_self_ns_per_pkt": "ns",
    "serve.filter_busy_share": "ratio",
    "serve.control_busy_share": "ratio",
    "serve.loop_ns_per_pkt": "ns",
    "serve.rx_wait_ms_p50": "ms",
    "control.resolve_ms_per_delta": "ms",
    "control.attest_ms_per_delta": "ms",
    "control.slots_changed_per_delta": "count",
    "setup.rules_s": "s",
    "setup.blocklist_s": "s",
    "setup.workers_s": "s",
    "setup.attest_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.reconcile_ratio": "ratio",
    "trace.worker_span_coverage": "ratio",
    "bench.loop_ns_per_pkt": "ns",
    "host.probe_before_ms": "ms",
    "host.probe_after_ms": "ms",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(view: TracedView, counts: Dict[str, int],
                  traced_rate: float, untraced_rate: float) -> Dict[str, float]:
    workers = view.workers
    traffic = workers.totals("traffic") if workers else {}
    worker_setup = workers.totals("setup") if workers else {}
    n_workers = len(workers.top_ns) if workers else 0

    def per_call(name: str) -> float:
        main, work = view.steady.get(name, (0, 0, 0)), traffic.get(name, (0, 0, 0))
        return _div(main[2] + work[2], main[0] + work[0])

    def per_pkt(*names: str) -> float:
        main = sum(view.steady.get(n, (0, 0, 0))[2] for n in names)
        work = sum(traffic.get(n, (0, 0, 0))[2] for n in names)
        return _div(main, view.packets) + _div(work, view.worker_packets)

    def total(totals: Totals, name: str) -> float:
        return totals.get(name, (0, 0, 0))[1]

    packets = view.packets
    c = counts
    # Hot rule deltas applied inside the traced steady phase.
    n_deltas = (view.steady.get("fleet.install_rule", (0, 0, 0))[0]
                + view.steady.get("fleet.remove_rule", (0, 0, 0))[0])
    setup = view.setup
    if "fleet.deploy" in setup:
        rules_s = total(setup, "fleet.deploy")
    else:
        rules_s = total(setup, "enclave_filter.install_rules")
    rules_s += _div(total(worker_setup, "enclave_filter.install_rules"), n_workers)
    blocklist_s = total(setup, "enclave_filter.load_blocklist") + _div(
        total(worker_setup, "enclave_filter.load_blocklist")
        + total(worker_setup, "offload.tier_install"), n_workers)
    shard_cpu = view.cpu_ns.get("shard.process", 0)
    return {
        "tee.ecall_overhead_ns_per_burst": per_call("tee.ecall:process_burst"),
        "tee.ecalls_per_burst": _div(c["ecalls"], c["bursts"]),
        "enclave_filter.self_ns_per_pkt": per_pkt("enclave_filter.process_burst"),
        "enclave_filter.pkts_per_flow": _div(c["vif_fastpath_burst_packets_total"],
                                             c["vif_fastpath_burst_unique_flows_total"]),
        "filter.decide_self_ns_per_flow": per_call("filter.decide_flow"),
        "filter.memo_hit_ratio": _div(c["vif_fastpath_decision_cache_hits_total"],
                                      c["vif_fastpath_decision_cache_hits_total"]
                                      + c["vif_fastpath_decision_cache_misses_total"]),
        "filter.hash_coins_per_kpkt": _div(1000 * c["hash_coins"], c["packets"]),
        "lookup.store_ns_per_lookup": per_call("lookup.store"),
        "lookup.trie_ns_per_lookup": per_call("lookup.trie"),
        "lookup.membership_ns_per_query": per_call("lookup.membership"),
        "lookup.lookups_per_pkt": _div(c["lookups"], c["packets"]),
        "sketch.log_ns_per_pkt": per_pkt("sketch.log_incoming", "sketch.log_forwarded"),
        "sketch.sha256_per_pkt": _div(c["vif_fastpath_sha256_digests_total"], c["packets"]),
        "obs.counter_incs_per_pkt": _div(c["counter_incs"], c["packets"]),
        "obs.inc_ns_per_pkt": per_pkt("obs.counter_inc", "obs.lazy_inc"),
        "shard.coord_cpu_ns_per_pkt": _div(shard_cpu, packets),
        "shard.coord_wait_ns_per_pkt": _div(total(view.steady, "shard.process") - shard_cpu, packets),
        "shard.worker_busy_ns_per_pkt": 0.0,
        "shard.worker_unspanned_ns_per_pkt": 0.0,
        "shard.worker_skew": _div(c.get("worker_packets_max", 0) * c.get("workers", 0),
                                  c.get("worker_packets_total", 0)),
        "fleet.route_ns_per_pkt": per_pkt("fleet.route"),
        "fleet.burst_self_ns_per_pkt": per_pkt("fleet.burst"),
        "serve.filter_busy_share": 0.0,
        "serve.control_busy_share": 0.0,
        "serve.loop_ns_per_pkt": 0.0,
        "serve.rx_wait_ms_p50": 0.0,
        "control.resolve_ms_per_delta": _div(total(view.steady, "control.greedy_solve"), n_deltas) / 1e6,
        "control.attest_ms_per_delta": _div(total(view.steady, "control.attest"), n_deltas) / 1e6,
        "control.slots_changed_per_delta": _div(c.get("slots_changed", 0), c["deltas"]),
        "setup.rules_s": rules_s / 1e9,
        "setup.blocklist_s": blocklist_s / 1e9,
        "setup.workers_s": total(setup, "shard.start") / 1e9,
        "setup.attest_s": total(setup, "control.attest") / 1e9,
        "trace.overhead_ratio": _div(traced_rate, untraced_rate),
        "trace.worker_span_coverage": 0.0,
        "bench.loop_ns_per_pkt": per_pkt("bench.steady"),
    }


def offload_notes(view: TracedView, counts: Dict[str, int]) -> Dict[str, float]:
    """The offload tier's per-layer figures (``cold_blocklist`` only)."""
    traffic = view.workers.totals("traffic") if view.workers else {}
    ingress = counts["vif_offload_ingress_total"]
    notes = {
        f"offload.{label}_ns_per_pkt": _div(traffic.get(name, (0, 0, 0))[2], view.worker_packets)
        for label, name in (("classify", "offload.classify"),
                            ("engine_self", "offload.engine"), ("audit", "offload.audit"))
    }
    notes["offload.drop_share"] = _div(counts["vif_offload_drops_total"], ingress)
    notes["offload.sampled_share"] = _div(counts["vif_offload_sampled_total"], ingress)
    return notes
