"""Shared pieces of the benchmark: statistics, memory, host fingerprint,
rule sets and the result record every workload fills in."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where full results and span dumps go (inside the checkout, git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: A percentile is reported only as high as the sample supports: at least
#: this many samples must lie beyond it.
TAIL_SAMPLES = 10


# -- statistics ----------------------------------------------------------------


def percentile(samples: Sequence[float], q: float,
               tail: int = TAIL_SAMPLES) -> Tuple[float, float, int]:
    """Nearest-rank ``q`` percentile, capped so that at least ``tail``
    samples lie beyond it.

    Returns ``(value, effective_q, n)``; ``effective_q`` is below ``q``
    when the sample is too small to support ``q``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    index = max(0, math.ceil(q * n) - 1)
    if n > tail:
        index = min(index, n - tail - 1)
    return ordered[index], (index + 1) / n, n


def low_percentile(samples: Sequence[float], q: float) -> Tuple[float, float, int]:
    """Nearest-rank lower ``q`` percentile with at least
    :data:`TAIL_SAMPLES` samples below it; same return as :func:`percentile`."""
    value, effective, n = percentile([-x for x in samples], 1.0 - q)
    return -value, 1.0 - effective, n


def windows(ends: Sequence[float], cpus: Sequence[float], packets: Sequence[int],
            start: float, cpu_start: float, group: int) -> Tuple[List[float], List[float]]:
    """Packet rate and process CPU seconds per packet in each window of
    ``group`` consecutive calls.

    ``ends[i]`` and ``cpus[i]`` are the wall and CPU clocks when call ``i``
    returned and ``packets[i]`` how many packets it adjudicated; a window
    runs from the end of the call before it (or ``start`` / ``cpu_start``)
    to the end of its last call, so the caller's own loop is charged too.
    """
    rates, cpu_per_packet = [], []
    wall, cpu = start, cpu_start
    for first in range(0, len(ends) - group + 1, group):
        last = first + group - 1
        count = sum(packets[first : last + 1])
        if ends[last] > wall:
            rates.append(count / (ends[last] - wall))
            cpu_per_packet.append((cpus[last] - cpu) / count)
        wall, cpu = ends[last], cpus[last]
    return rates, cpu_per_packet


# -- memory --------------------------------------------------------------------


def _status_kb(field: str, pid: Optional[int] = None) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (default: this process)."""
    try:
        with open(f"/proc/{pid or os.getpid()}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb(pid: Optional[int] = None) -> int:
    """Peak resident set (VmHWM) of ``pid`` (default: this process), in KiB."""
    return _status_kb("VmHWM", pid)


class ProgramMemory:
    """Peak resident memory of the program, without the benchmark's inputs.

    Every input the benchmark pre-generates (rules, packet pool, expected
    verdicts) is built through :meth:`build`, which books the resident
    memory it adds and then resets the peak (``5`` into
    ``/proc/self/clear_refs``), so the peak read at the end covers only
    what happened after the inputs existed.  :meth:`peak_kb` is that peak
    minus the inputs (plus any higher program peak seen before a reset).
    """

    def __init__(self) -> None:
        self.inputs_kb = 0
        self.before_kb = 0

    def build(self, make) -> None:
        self.before_kb = max(self.before_kb, peak_rss_kb() - self.inputs_kb)
        rss = _status_kb("VmRSS")
        make()
        gc.collect()
        gc.freeze()
        self.inputs_kb += max(0, _status_kb("VmRSS") - rss)
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass

    def peak_kb(self) -> int:
        return max(self.before_kb, peak_rss_kb() - self.inputs_kb)


# -- host fingerprint ------------------------------------------------------------


def speed_probe(iterations: int = 400_000) -> float:
    """Seconds for a fixed pure-Python loop: a yardstick of how fast this
    host runs interpreted code right now, taken before and after each
    workload so host drift can be told apart from a code change."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - started


#: Iterations of the short probe taken throughout a measured run.
PROBE_ITERATIONS = 20_000
#: The probe's time at the reference speed: 80 ns per iteration, what a
#: 2-vCPU x86-64 VM running CPython 3.11 gives when it is not contended.
PROBE_REFERENCE_S = 80e-9 * PROBE_ITERATIONS


def slowness() -> float:
    """How many times slower than the reference speed this host runs
    interpreted code right now (a short :func:`speed_probe`)."""
    return speed_probe(PROBE_ITERATIONS) / PROBE_REFERENCE_S


def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes): names the
    code under test even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
        "commit": _commit(),
        "src_digest": _source_digest(),
    }


# -- rules -------------------------------------------------------------------------


def hybrid_rules(n: int = 3000):
    """The micro-datapath HYBRID mix: ``/16``, ``/24``-plus-port and
    non-stride ``/26`` destination prefixes under ``10.0.0.0/8``; half the
    rules are probabilistic (``p_allow=0.5``), the rest split between
    deterministic DROP and ALLOW."""
    from repro.core.rules import Action, FilterRule, FlowPattern

    rules = []
    for i in range(n):
        variant = i % 3
        if variant == 0:
            pattern = FlowPattern(dst_prefix=f"10.{i % 200}.0.0/16")
        elif variant == 1:
            pattern = FlowPattern(
                dst_prefix=f"10.{i % 200}.{(i // 200) % 250}.0/24",
                dst_ports=(80, 80),
            )
        else:
            pattern = FlowPattern(
                dst_prefix=f"10.{i % 200}.{(i // 200) % 250}.128/26"
            )
        if i % 2:
            action = Action.DROP if i % 4 == 1 else Action.ALLOW
            rules.append(FilterRule(rule_id=i + 1, pattern=pattern, action=action))
        else:
            rules.append(FilterRule(rule_id=i + 1, pattern=pattern, p_allow=0.5))
    return rules


def churn_rule(k: int, requested_by: str = "", rate_bps: float = 0.0):
    """A DROP rule on an otherwise unused ``203.0.x.0/24`` prefix: installing
    or removing it changes no verdict of any generated packet."""
    from repro.core.rules import Action, FilterRule, FlowPattern

    return FilterRule(
        rule_id=900_000 + k,
        pattern=FlowPattern(dst_prefix=f"203.0.{k % 256}.0/24"),
        action=Action.DROP,
        requested_by=requested_by,
        rate_bps=rate_bps,
    )


def pack(verdicts) -> bytes:
    """Verdicts one byte each (1 allow, 0 drop, 2 the serve path's
    ``UNROUTED``): the record a run keeps for its oracle stays small, so
    the memory it takes barely grows with the packet rate."""
    try:
        return bytes(verdicts)
    except TypeError:
        return bytes(2 if isinstance(v, str) else int(v) for v in verdicts)


def dotted(value: int) -> str:
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


# -- results -----------------------------------------------------------------------


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    attempted: int = 0
    #: Packets whose verdict differs from the oracle, plus packets shed or
    #: unaccounted for.
    failed: int = 0
    #: Whole-run consistency checks: (name, passed, detail).
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Supporting figures printed beside the metrics (sample counts,
    #: effective percentiles, deterministic counts, ...).
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def check_verdicts(result: Result, records, expected) -> None:
    """Count every packed verdict in ``records`` ((burst index, packed
    verdicts) pairs) that differs from ``expected[index]``."""
    for index, verdicts in records:
        want = expected[index]
        if verdicts != want:
            result.failed += sum(1 for a, b in zip(verdicts, want) if a != b)
        result.attempted += len(verdicts)


def tail_metrics(result: Result, prefix: str, samples: Sequence[float],
                 scale: float, unit: str, qs: Sequence[Tuple[str, float]]) -> None:
    """Put ``<prefix>_<label>`` percentiles of ``samples`` (times ``scale``)
    into ``result``, noting the effective percentile and sample count."""
    for label, q in qs:
        value, effective, n = percentile(samples, q)
        result.put(f"{prefix}_{label}_{unit}", value * scale, unit)
        result.notes[f"{prefix}_{label}_{unit}"] = (
            f"p{effective * 100:.1f} of {n} samples"
        )
