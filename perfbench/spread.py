"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload hot_flows --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed (untraced) and prints, for every
end-to-end metric, the median and the interquartile range as a share of
the median -- the figure ``BENCHMARK.json``'s bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode or not result["correct"]:
            print(f"seed {seed}: run failed (exit {out.returncode})", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
    worst = 0.0
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        worst = max(worst, spread / bounds[name]) if name != "setup_s" else worst
        print(f"{name:22s} median {median:12.4f}  spread {spread:7.2%}  "
              f"bound {bounds[name]:.0%}  ({spread / bounds[name]:.2f} of bound)")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
