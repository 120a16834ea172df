#!/usr/bin/env python3
"""Fast self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload through ``run.py --tiny`` (N of about 20, 400
trades), untraced and traced, and asserts that each run exits 0, is
correct with no failed invocation, was checked against recorded digests,
and prints exactly the metric names listed in BENCHMARK.json. Then runs
``run.py`` in a copy holding only BENCHMARK.json and this directory and
asserts that it fails without printing a result. Takes about half a
minute; it is not part of the test suite.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            info = json.loads(next(line[5:] for line in lines if line.startswith("info ")))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
            assert info["recorded_seed"] and info["inputs_match_record"], info
            assert list(result["metrics"]) == expected[trace], (workload, trace)
            assert any(line.startswith("metric error_rate = 0.0 ") for line in lines), lines
            assert not info.get("absent"), info["absent"]
            print(f"ok {workload} trace={trace} attempted={result['attempted']}", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and proc.stdout.strip() == "", proc
        print(f"ok without sources: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
