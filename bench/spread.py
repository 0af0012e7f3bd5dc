"""Run the benchmark over several seeds and report each metric's spread.

Usage: python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Each run is a fresh ``bench/run.py`` process with BENCHMARK.json's
run_seconds.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the interquartile distance as a
share of the median, next to the metric's bound; a spread under a third of
the bound is marked steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        env = None
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            env = env or next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), None)
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect\n" + "\n".join(lines[-25:]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            steady = share < bound / 3
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share, "bound": bound,
                          "steady": steady, "values": vals}
            print(f"{workload:13s} {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:7.2%}  bound {bound}  {'steady' if steady else 'NOT STEADY'}",
                  flush=True)
        summary["workloads"][workload] = {"env": env, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
