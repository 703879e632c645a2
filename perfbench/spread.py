"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload score --seeds 1 2 3 4 5 [--seconds S]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartile spread ((Q3 - Q1) / median, as
`statistics.quantiles(n=4)` gives the quartiles) and the bound from
BENCHMARK.json. A benchmark is steady when every spread except that of
setup_s stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.stats import median, spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", flush=True)
        for name, v in line["metrics"].items():
            values[name].append(v["value"])
    print(f"{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'of bound':>8s}")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        s = spread(xs) if len(xs) > 1 else float("nan")
        print(f"{m['name']:28s} {median(xs):12.5g} {s:8.4f} {m['bound']:6.2f} "
              f"{s / m['bound']:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
