"""Run-to-run spread of the end-to-end metrics, run from the checkout root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads cnn_atent_train]

Runs the benchmark once per (workload, seed), one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``. For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound. A spread above a third of the bound is flagged: the
benchmark is meant to stay well inside its own bounds. Every run's result
line is saved to ``perfbench/out/spread-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 300


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, runs: list[dict]) -> list[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        rows.append({"name": metric["name"], "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "bound": metric["bound"],
                     "steady": spread < metric["bound"] / 3})
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    all_ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
                + f" correct={runs[-1]['correct']}", flush=True)
        rows = summarize(spec, runs)
        for row in rows:
            flag = "" if row["steady"] else "  <-- above a third of the bound"
            print(f"  {row['name']}: median {row['median']:.5g} quartiles "
                  f"[{row['q1']:.5g}, {row['q3']:.5g}] spread {row['spread']:.4f} "
                  f"(bound {row['bound']}){flag}")
        all_ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        with open(BENCH_DIR / "out" / f"spread-{workload}.json", "w", encoding="utf-8") as f:
            json.dump({"seeds": args.seeds, "runs": runs, "summary": rows}, f, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
