"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json``:

* a run with ``--inject-wrong-verdict`` (one verdict flipped by a wrapper
  around the filter entry point) must report exactly one failed packet,
  ``correct: false`` and a non-zero exit code;
* two traced runs with the same seed, in separate processes, must produce
  identical deterministic operation counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, *extra: str):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    failures = 0
    for workload in workloads:
        code, result = _run(workload, "--trace", "0", "--inject-wrong-verdict")
        caught = code != 0 and result is not None and result["failed"] == 1 \
            and not result["correct"]
        print(f"{workload:16s} injected wrong verdict: "
              f"{'caught' if caught else 'MISSED'} (exit {code}, "
              f"failed {result and result['failed']})", flush=True)
        failures += not caught
        counts = []
        for _ in range(2):
            code, _ = _run(workload, "--trace", "1")
            with open(os.path.join(ROOT, ".perfbench", f"{workload}-seed3-trace1.json")) as fh:
                counts.append(json.load(fh)["notes"]["counts"])
            failures += code != 0
        same = counts[0] == counts[1]
        print(f"{workload:16s} counts repeat across processes: {'yes' if same else 'NO'}"
              f" {counts[0]}", flush=True)
        failures += not same
    print("selftest " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
