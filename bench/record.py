"""Run the benchmark several times and write a BENCH_<tag>.json summary.

    python3 bench/record.py --tag baseline

Run it from the root of a checkout. For each workload of BENCHMARK.json it
makes ten untraced runs with seeds 1..10 and one traced run with seed 1, one
process at a time, for the `run_seconds` in BENCHMARK.json. Per end-to-end
metric it records every value, the median, the quartiles and the spread
(q3 - q1) / median, and flags a spread above a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = out.stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"tag": args.tag, "run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, RUNS + 1):
            result, machine = one_run(workload, seed, spec["run_seconds"], 0)
            doc["machine"] = machine
            results.append(result)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)
        traced, _ = one_run(workload, 1, spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "correct": [r["correct"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in results], bound) for name, bound in bounds.items()
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_run": {k: traced[k] for k in ("correct", "attempted", "failed")},
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:13s} {name:12s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']} {'ok' if s['steady'] else 'NOT STEADY'}", flush=True)
    out = Path(__file__).resolve().parent / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
