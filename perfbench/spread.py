#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--out FILE]

For every workload and seed this runs ``run.py`` (untraced, for
``run_seconds`` from BENCHMARK.json) and prints, per end-to-end metric,
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
their distance as a share of the median, next to the metric's bound;
then the same for the times in seconds, which are reported but not
gated.
``--out`` writes the whole table, with the machine description of the
first run, as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr}")
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return json.loads(lines[-1]), info


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    table, machine = {}, None
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in seeds:
            result, info = run_once(workload, seed, spec["run_seconds"])
            machine = machine or {k: info.get(k) for k in
                                  ("python", "numpy", "nproc", "cpu_model", "caches")}
            results.append((result, info))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {name: summarise([r["metrics"][name]["value"] for r, _ in results])
                for name in bounds}
        ungated = {name: summarise([info["seconds"][name]["value"] for _, info in results])
                   for name in results[0][1].get("seconds", {})}
        table[workload] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "attempted": sum(r["attempted"] for r, _ in results),
            "sizes": [{k: info.get(k) for k in ("N", "E", "trades")} for _, info in results],
            "metrics": rows,
            "seconds": ungated,
        }
        for name, row in rows.items():
            flag = "ok" if row["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name}: median={row['median']:.5g} spread={row['spread']:.4f} "
                  f"bound={bounds[name]} [{flag}]", flush=True)
        for name, row in ungated.items():
            print(f"  {name}: median={row['median']:.5g} spread={row['spread']:.4f} "
                  f"[not gated]", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "machine": machine, "workloads": table},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
