"""The VIF benchmark: one command, three seeded workloads on the verifiable
packet paths.

Run from the repository root::

    python3 perfbench/run.py --workload hot_flows --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, packet rate,
CPU per packet, call latency, rule-update latency, peak memory);
``--trace 1`` measures the per-layer metrics from a traced run.

A shared host runs interpreted code up to twice as fast at one moment as
at another, for tens of seconds at a time, so an untraced run probes the
host's speed with a short fixed loop every window of calls (the clocks
stop while it runs) and reports every time and rate at a reference speed
(80 ns per probe iteration): a time measured while the probe ran 1.5x
slower than the reference is divided by 1.5, a rate multiplied by it.
The probes' spread goes with the result (``host slowness``).  Every run
checks every verdict against an independent oracle; the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``
-- packets with a wrong verdict, shed or unaccounted -- and ``metrics``),
and the exit code is non-zero when any check fails.  The full result, with
the host fingerprint and supporting counts, is written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.

``--inject-wrong-verdict`` flips one verdict through a wrapper around the
workload's filter entry point; the run must then report one failure and
exit non-zero (see ``perfbench/selftest.py``).

Workloads and the default / confirmation seeds are described in
``BENCHMARK.json``.  ``--workload cold_blocklist`` (the sharded plane with
the offload tier) also runs, but is not part of the benchmark while its
oracle fails; see ``perfbench/cold_blocklist.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("hot_flows", "cold_sharded", "serve_churn", "cold_blocklist")
DEFAULT_SEED = 1


def _load(name: str):
    if name == "hot_flows":
        from perfbench.hot_flows import HotFlows

        return HotFlows()
    if name == "cold_blocklist":
        from perfbench.cold_blocklist import ColdBlocklist

        return ColdBlocklist()
    if name == "cold_sharded":
        from perfbench.cold_blocklist import ColdSharded

        return ColdSharded()
    from perfbench.serve_churn import ServeChurn

    return ServeChurn()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured steady phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-verdict", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from perfbench.common import OUT_DIR, Result, fingerprint, speed_probe
    from perfbench.harness import run_traced, run_untraced

    workload = _load(args.workload)
    result = Result(workload=args.workload)
    host = fingerprint()
    probe_before = speed_probe()
    if args.trace:
        from perfbench.spans import SpanTracer

        run_traced(workload, args.seed, args.seconds, args.inject_wrong_verdict,
                   result, SpanTracer(OUT_DIR))
    else:
        run_untraced(workload, args.seed, args.seconds, args.inject_wrong_verdict, result)
    probe_after = speed_probe()
    host["probe_before_ms"] = probe_before * 1e3
    host["probe_after_ms"] = probe_after * 1e3
    if args.trace:
        result.put("host.probe_before_ms", probe_before * 1e3, "ms")
        result.put("host.probe_after_ms", probe_after * 1e3, "ms")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name)
        print(f"  {name:36s} {value:14.4f} {unit:6s}" + (f"  ({note})" if note else ""))
    if "host_slowness" in result.notes:
        print(f"  host slowness: {result.notes['host_slowness']}")
    print(f"  {'error_rate':36s} {result.failed / max(result.attempted, 1):14.6f} ratio"
          f"  ({result.failed} of {result.attempted} packets)")
    for name, passed, detail in result.checks:
        print(f"  check {name:30s} {'ok' if passed else 'FAILED'}  {detail}")

    payload = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(payload, host=host, seed=args.seed, seconds=args.seconds,
                       checks=result.checks, notes=result.notes), fh, indent=1,
                  sort_keys=True, default=str)
    print(json.dumps(payload, sort_keys=True))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
