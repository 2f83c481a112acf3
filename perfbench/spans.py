"""Benchmark-side span tracing for the traced run.

Wrappers installed around the public entry points of each layer record one
span per call -- name, parent, start, end -- into flat in-memory arrays;
nothing under ``src/`` is touched.  A span's *self* time is its duration
minus the time its child spans cover, so self times over a phase add up to
the phase's root span.

The sharded plane forks its workers after the wrappers are installed, so
the wrappers run there too.  In a worker the span clock is the process CPU
clock (the one ``worker_busy_seconds`` is measured with), and when the
worker exports its metrics registry for the coordinator the span totals
ride along as ``perfbench_span_*`` counters, so ``ShardedDataPlane.finish``
merges them home with everything else.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Spans a shard worker opens per traffic batch (the offload engine, or
#: the filter replica's burst path without a tier) and per audit round.
WORKER_BATCH_SPANS = ("offload.engine", "enclave_filter.process_burst", "offload.audit")

#: name -> (calls, total_ns, self_ns)
Totals = Dict[str, Tuple[int, float, float]]


class SpanTracer:
    """Records nested spans of wrapped calls in compact arrays."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        #: Process CPU time spent inside spans opened with ``cpu=True``.
        self.cpu_ns: Dict[str, int] = {}
        #: Values captured from wrapped calls' return values.
        self.returns: Dict[str, List[object]] = {}
        self._stack: List[int] = []
        #: The span clock, boxed so wrappers see the switch a fork makes.
        self._clock: List[Callable[[], int]] = [time.perf_counter_ns]
        #: Index of the first span recorded by this process.
        self.base = 0
        self.in_worker = False
        #: In a worker: index of its first traffic span, and the counter
        #: totals its set-up left behind.
        self.traffic_base: Optional[int] = None
        self.setup_counts: Optional[Dict[str, float]] = None
        #: (owner, attribute, original) of every wrapper :func:`install` set.
        self._originals: List[Tuple[object, str, object]] = []
        #: Calibrated tracer cost per span (see :meth:`calibrate`).
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._calibrated = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.base = len(self.starts)
        del self._stack[:]
        self.in_worker = True
        self._clock[0] = time.process_time_ns
        self._calibrated = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        stack = self._stack
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(self._clock[0]())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self._clock[0]()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def traced(self, fn: Callable, name: str, cpu: bool = False,
               keep_return: Optional[Callable[[object], object]] = None) -> Callable:
        """``fn`` wrapped so that every call records one span ``name``."""
        nid = self.name_id(name)
        open_, close = self._open, self._close

        if cpu:
            cpu_ns = self.cpu_ns
            cpu_ns.setdefault(name, 0)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = open_(nid)
                cpu_started = time.process_time_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cpu_ns[name] += time.process_time_ns() - cpu_started
                    close(index)

        elif keep_return is not None:
            kept = self.returns.setdefault(name, [])

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(index)
                kept.append(keep_return(result))
                return result

        else:
            # The hot path, with _open/_close inlined: every call of a
            # per-packet function pays this.
            stack, clock = self._stack, self._clock
            starts, ends = self.starts, self.ends
            add_name, add_parent = self.name_ids.append, self.parents.append
            add_start, add_end, push, pop = starts.append, ends.append, stack.append, stack.pop

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(starts)
                add_name(nid)
                add_parent(stack[-1] if stack else -1)
                add_end(0)
                push(index)
                add_start(clock[0]())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock[0]()
                    pop()

        return wrapper

    def wrap(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a function, method or staticmethod) with
        its traced form."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._originals.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.traced(raw.__func__, name, **options)))
        else:
            setattr(owner, attr, self.traced(raw, name, **options))

    def wrap_ecall(self, enclave_cls) -> None:
        """Trace ``Enclave.ecall`` with one span name per entry point."""
        original = enclave_cls.__dict__["ecall"]
        self._originals.append((enclave_cls, "ecall", original))
        open_, close, name_id = self._open, self._close, self.name_id

        @functools.wraps(original)
        def ecall(enclave, name, *args, **kwargs):
            index = open_(name_id(f"tee.ecall:{name}"))
            try:
                return original(enclave, name, *args, **kwargs)
            finally:
                close(index)

        enclave_cls.ecall = ecall

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value``, remembering the original."""
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def uninstall(self) -> None:
        """Put back every original that :func:`install` replaced: set-ups
        made afterwards (and workers they fork) run untraced."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def calibrate(self, calls: int = 4000, repeats: int = 7) -> None:
        """Measure this tracer's own cost per span on the current clock.

        ``inner`` is what a span adds to its own duration, ``outer`` what
        each child span adds to its parent's self time; :meth:`totals`
        subtracts both, so a per-layer self time estimates the untraced
        cost.  Medians over ``repeats`` runs of ``calls`` empty calls.
        """
        def noop(first, second):
            return None

        traced = self.traced(noop, "tracer.calibrate.leaf")
        inner, outer = [], []
        for _ in range(repeats):
            lo = len(self.starts)
            with self.span("tracer.calibrate.plain"):
                for _ in range(calls):
                    noop(self, calls)
            with self.span("tracer.calibrate.parent"):
                for _ in range(calls):
                    traced(self, calls)
            starts = np.frombuffer(self.starts, dtype=np.int64)[lo:]
            ends = np.frombuffer(self.ends, dtype=np.int64)[lo:]
            durations = ends - starts
            plain, parent, leaves = durations[0], durations[1], durations[2:]
            inner.append(float(leaves.mean()))
            outer.append(float(parent - leaves.sum() - plain) / calls)
            del starts, ends, durations, leaves
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                del arr[lo:]
        self.inner_ns = float(np.median(inner))
        self.outer_ns = max(0.0, float(np.median(outer)))

    def totals(self, lo: int, hi: Optional[int] = None) -> Totals:
        """Per-name (calls, total ns, self ns) over spans ``lo:hi``.

        A child's time is subtracted from its parent only when both lie in
        the range, so the raw self times of a range add up to the
        durations of its top-level spans.  The self times returned have
        the tracer's calibrated cost per span removed (see
        :meth:`calibrate`).
        """
        hi = len(self.starts) if hi is None else hi
        if hi <= lo:
            return {}
        names = np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        starts = np.frombuffer(self.starts, dtype=np.int64)[lo:hi]
        ends = np.frombuffer(self.ends, dtype=np.int64)[lo:hi]
        if (ends == 0).any():
            raise RuntimeError("span range still has open spans")
        duration = ends - starts
        child = np.zeros(hi - lo, dtype=np.int64)
        children = np.zeros(hi - lo, dtype=np.int64)
        inside = parents >= lo
        np.add.at(child, parents[inside] - lo, duration[inside])
        np.add.at(children, parents[inside] - lo, 1)
        own = duration - child - self.inner_ns - children * self.outer_ns
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        result = {
            self.names[i]: (int(calls[i]), float(total[i]), float(selfs[i]))
            for i in range(k)
            if calls[i]
        }
        del names, parents, starts, ends
        return result

    def top_level_ns(self, lo: int, hi: Optional[int] = None,
                     names: Optional[Tuple[str, ...]] = None) -> float:
        """Summed duration of the spans in ``lo:hi`` whose parent is outside
        it (only those called one of ``names``, when given)."""
        hi = len(self.starts) if hi is None else hi
        if hi <= lo:
            return 0.0
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        starts = np.frombuffer(self.starts, dtype=np.int64)[lo:hi]
        ends = np.frombuffer(self.ends, dtype=np.int64)[lo:hi]
        top = parents < lo
        if names is not None:
            ids = [self._ids[n] for n in names if n in self._ids]
            top &= np.isin(np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi], ids)
        result = float((ends[top] - starts[top]).sum())
        del parents, starts, ends
        return result

    def dump(self, tag: str, lo: int = 0, hi: Optional[int] = None) -> str:
        """Write spans ``lo:hi`` to ``<out_dir>/spans-<tag>.npz``."""
        hi = len(self.starts) if hi is None else hi
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{tag}.npz")
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi],
            parents=np.frombuffer(self.parents, dtype=np.int32)[lo:hi] - lo,
            starts=np.frombuffer(self.starts, dtype=np.int64)[lo:hi],
            ends=np.frombuffer(self.ends, dtype=np.int64)[lo:hi],
        )
        return path

    # -- shipping worker totals home -------------------------------------------

    def mark_traffic(self, registry) -> None:
        """Called at a worker's first traffic batch: everything before it
        (rule install, blocklist load, tier compile) is worker set-up."""
        if self.in_worker and self.traffic_base is None:
            self.traffic_base = len(self.starts)
            self.setup_counts = dict(registry.snapshot()["totals"])

    def flush_worker(self, registry, worker: str) -> None:
        """Book this worker's span totals, split into set-up and traffic,
        and its set-up counter totals into its metrics registry."""
        if not self._calibrated:
            self.calibrate()
            self._calibrated = True
        split = len(self.starts) if self.traffic_base is None else self.traffic_base
        phases = (("setup", self.base, split), ("traffic", split, len(self.starts)))
        booked = [(phase, self.totals(lo, hi)) for phase, lo, hi in phases]
        # The worker's busy time covers its traffic batches only, not the
        # rule deltas it applies between them.
        top = self.top_level_ns(split, names=WORKER_BATCH_SPANS)
        for phase, totals in booked:
            for name, (calls, total, own) in totals.items():
                labels = dict(span=name, phase=phase, worker=worker)
                registry.counter("perfbench_span_calls_total", **labels).inc(calls)
                registry.counter("perfbench_span_ns_total", **labels).inc(int(total))
                registry.counter("perfbench_span_self_ns_total", **labels).inc(int(own))
        registry.counter("perfbench_span_top_ns_total", worker=worker).inc(int(top))
        for family, value in (self.setup_counts or {}).items():
            registry.counter("perfbench_setup_count_total", family=family, worker=worker).inc(value)
        self.dump(worker, self.base)


class WorkerTotals:
    """The ``perfbench_*`` series the workers shipped home, read back out
    of the coordinator's registry export."""

    def __init__(self, state) -> None:
        #: phase -> span name -> [calls, total ns, self ns], summed over workers
        self.spans: Dict[str, Dict[str, List[float]]] = {"setup": {}, "traffic": {}}
        #: worker -> time in its top-level batch spans (ns of worker CPU)
        self.top_ns: Dict[str, float] = {}
        #: counter family -> value its set-up left behind, summed over workers
        self.setup_counts: Dict[str, float] = {}
        fields = {
            "perfbench_span_calls_total": 0,
            "perfbench_span_ns_total": 1,
            "perfbench_span_self_ns_total": 2,
        }
        for family in state["families"]:
            name = family["name"]
            for child in family["children"]:
                labels, value = child["labels"], child["value"]
                if name in fields:
                    row = self.spans[labels["phase"]].setdefault(labels["span"], [0, 0.0, 0.0])
                    row[fields[name]] += value
                elif name == "perfbench_span_top_ns_total":
                    self.top_ns[labels["worker"]] = self.top_ns.get(labels["worker"], 0.0) + value
                elif name == "perfbench_setup_count_total":
                    family_name = labels["family"]
                    self.setup_counts[family_name] = self.setup_counts.get(family_name, 0.0) + value

    def totals(self, phase: str) -> Totals:
        return {name: (int(c), t, s) for name, (c, t, s) in self.spans[phase].items()}

    def merge(self, other: "WorkerTotals") -> None:
        """Add another plane's totals to these."""
        for phase, spans in other.spans.items():
            for name, row in spans.items():
                mine = self.spans[phase].setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    mine[i] += row[i]
        for worker, value in other.top_ns.items():
            self.top_ns[worker] = self.top_ns.get(worker, 0.0) + value
        for family, value in other.setup_counts.items():
            self.setup_counts[family] = self.setup_counts.get(family, 0.0) + value


def _mark_first_batch(tracer: SpanTracer, owner) -> None:
    from repro import obs

    burst = owner.__dict__["process_burst"]

    @functools.wraps(burst)
    def process_burst(target, packets):
        if tracer.traffic_base is None:
            tracer.mark_traffic(obs.get_registry())
        return burst(target, packets)

    tracer.replace(owner, "process_burst", process_burst)


def install(tracer: SpanTracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro import obs
    from repro.core import fleet as fleet_module
    from repro.core.controller import LoadBalancer
    from repro.core.enclave_filter import EnclaveFilter
    from repro.core.filter import StatelessFilter
    from repro.core.fleet import FleetBurstFilter, FleetManager
    from repro.core.session import VIFSession
    from repro.dataplane.offload import FastDropTier, OffloadAuditor, OffloadEngine
    from repro.dataplane.shard import ShardedDataPlane
    from repro.lookup.membership import MembershipTier, TieredRuleStore
    from repro.lookup.multibit_trie import MultiBitTrie
    from repro.obs.metrics import Counter, LazyCounter, MetricsRegistry
    from repro.serve.backends import FleetBackend
    from repro.sketch.logs import PacketLogPair
    from repro.tee.enclave import Enclave

    if tracer.installed:
        return
    tracer.wrap_ecall(Enclave)
    w = tracer.wrap
    w(EnclaveFilter, "process_burst", "enclave_filter.process_burst")
    w(EnclaveFilter, "install_rules", "enclave_filter.install_rules")
    w(EnclaveFilter, "load_blocklist", "enclave_filter.load_blocklist")
    w(StatelessFilter, "decide_flow", "filter.decide_flow")
    w(StatelessFilter, "_hash_allows", "filter.hash_coin")
    w(TieredRuleStore, "lookup", "lookup.store")
    w(MultiBitTrie, "lookup", "lookup.trie")
    w(MembershipTier, "query", "lookup.membership")
    w(PacketLogPair, "record_incoming_burst", "sketch.log_incoming")
    w(PacketLogPair, "record_forwarded_burst", "sketch.log_forwarded")
    w(Counter, "inc", "obs.counter_inc")
    w(LazyCounter, "inc", "obs.lazy_inc")
    w(FastDropTier, "classify_burst", "offload.classify")
    w(FastDropTier, "install_rules", "offload.tier_install")
    w(OffloadEngine, "process_burst", "offload.engine")
    for method in ("observe_drops", "observe_sample", "observe_leak", "close_round"):
        w(OffloadAuditor, method, "offload.audit")
    # A worker's first traffic batch enters through the offload engine or,
    # without a tier, the filter replica's burst path.
    for owner in (OffloadEngine, EnclaveFilter):
        _mark_first_batch(tracer, owner)
    w(ShardedDataPlane, "process", "shard.process", cpu=True)
    w(ShardedDataPlane, "start", "shard.start")
    w(LoadBalancer, "route", "fleet.route")
    w(FleetBurstFilter, "process_burst", "fleet.burst")
    w(FleetManager, "deploy", "fleet.deploy")
    w(FleetManager, "install_rule", "fleet.install_rule", keep_return=len)
    w(FleetManager, "remove_rule", "fleet.remove_rule", keep_return=len)
    w(fleet_module, "greedy_solve", "control.greedy_solve")
    w(VIFSession, "attest_filters", "control.attest")
    w(FleetBackend, "apply_delta", "serve.apply_delta")

    export_state = MetricsRegistry.__dict__["export_state"]

    @functools.wraps(export_state)
    def export_with_spans(registry):
        if tracer.in_worker:
            tracer.flush_worker(registry, obs.get_instance_namespace() or str(os.getpid()))
        return export_state(registry)

    tracer.replace(MetricsRegistry, "export_state", export_with_spans)
