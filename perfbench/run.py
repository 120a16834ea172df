#!/usr/bin/env python3
"""Benchmark of the ibrisk CLI on four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``ibrisk`` is imported from its
``src`` directory. Each workload runs in this single-threaded process
and calls ``ibrisk.cli.main(argv)`` repeatedly for ``--seconds``
seconds, checking every invocation's artifacts against the digests
recorded in ``recorded.json`` (or, for a seed with no record, against
the first invocation). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured untraced, with times
  in units of the reference loop of ``reference.py`` (see there why);
* ``--trace 1``: the per-layer metrics of ``tracer.LAYER_METRICS``,
  from traced invocations alternated with untraced ones.

Scratch files go to ``.perfbench/`` under the checkout.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: one thread

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import Reference  # noqa: E402
from tracer import COUNT_NAMES, SETUP, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    call_cli,
    input_digests,
    make_inputs,
    output_digests,
    snapshot_size,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RECORDED = BENCH_DIR / "recorded.json"
SETUP_ROUNDS = 3  # set-up repeats per run; setup_s is their median
MIN_SAMPLES = 3  # invocations per run even when --seconds is short
MAX_LOOP_S = 120.0  # never start another invocation after this long
# A reference reading after an invocation lasts this share of its time,
# so that longer invocations are divided by a steadier reading.
READING_SHARE = 0.1
MIN_READING_S = 0.2
EXIT_CANNOT_RUN = 2
EXIT_INPUT_MISMATCH = 3


class BenchError(Exception):
    """The benchmark cannot run at all; no result is printed."""


def load_cli():
    """Import ``ibrisk.cli`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "ibrisk" / "cli.py").is_file():
        raise BenchError(f"no ibrisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ibrisk.cli

    if Path(ibrisk.__file__).resolve().parent != SRC / "ibrisk":
        raise BenchError(f"ibrisk imported from {ibrisk.__file__}, not from {SRC}")
    return ibrisk.cli


def recorded_entry(workload: str, seed: int, tiny: bool) -> dict | None:
    table = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}
    return table.get("tiny" if tiny else "full", {}).get(workload, {}).get(str(seed))


def prepare(cli, workload, seed: int, directory: Path, tiny: bool, generate: bool):
    """Everything before the first timed invocation.

    Writes the inputs (unless ``generate`` is false and they exist),
    checks their digests against the record for this seed and warms the
    command's code path up on the self-check's tiny inputs. Returns
    (inputs, digests, ok).
    """
    if generate:
        inputs = make_inputs(cli, workload, seed, directory, tiny)
    else:
        inputs = {"snapshot": directory / "network.csv"}
        if workload.sizes(tiny)[1]:
            inputs["trades"] = directory / "trades.csv"
    digests = input_digests(inputs)
    record = recorded_entry(workload.name, seed, tiny)
    ok = record is None or record["inputs"] == digests
    warm = make_inputs(cli, workload, seed, directory / "warmup", tiny=True)
    call_cli(cli, workload.argv(warm, directory / "warmup" / "out"))
    return inputs, digests, ok


def setup_child(args) -> int:
    """One set-up round in a fresh process, timed by the parent."""
    cli = load_cli()
    _, _, ok = prepare(cli, WORKLOADS[args.workload], args.seed, Path(args.setup_only),
                       args.tiny, generate=True)
    return 0 if ok else EXIT_INPUT_MISMATCH


def timed_setup(args, run_dir: Path) -> tuple[list[float], Path]:
    """SETUP_ROUNDS fresh processes, each from start to first invocation."""
    times = []
    for k in range(SETUP_ROUNDS):
        round_dir = run_dir / f"setup{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(round_dir)]
        start = time.perf_counter()
        proc = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode not in (0, EXIT_INPUT_MISMATCH):
            raise BenchError(f"set-up round {k} failed ({proc.returncode}): {proc.stderr.strip()}")
        if k < SETUP_ROUNDS - 1:
            shutil.rmtree(round_dir)
    return times, round_dir


def machine_info() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


class Checker:
    """Compares each invocation's outputs and counts with the expected ones."""

    def __init__(self, record: dict | None):
        self.expected = {kind: record[kind] for kind in ("outputs", "counts")} if record else {}
        self.errors: list[str] = []

    def check(self, kind: str, actual: dict) -> bool:
        # With no record for this seed, the first result is the reference.
        expected = self.expected.setdefault(kind, actual)
        if actual != expected:
            self.errors.append(f"{kind}: {actual} != expected {expected}")
            return False
        return True


def invoke(cli, workload, inputs, out: Path, checker: Checker):
    """One timed invocation; returns (wall, cpu, ok)."""
    if out.exists():
        shutil.rmtree(out)
    argv = workload.argv(inputs, out)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    code, stdout, stderr = call_cli(cli, argv)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0:
        checker.errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
        return wall, cpu, False
    try:
        digests = output_digests(workload, out, stdout)
    except OSError as exc:
        checker.errors.append(f"missing artifact: {exc}")
        return wall, cpu, False
    return wall, cpu, checker.check("outputs", digests)


def sizes(workload, inputs, out: Path, tiny: bool) -> dict:
    """N and E of the network the command works on, and the trade count."""
    n_trades = workload.sizes(tiny)[1]
    network = out / "network.csv" if n_trades else inputs["snapshot"]
    try:
        n, e = snapshot_size(network)
    except OSError:
        n = e = None
    return {"N": n, "E": e, "trades": n_trades}


def measure(cli, args, workload, run_dir: Path):
    setup_times, input_dir = timed_setup(args, run_dir)
    inputs, digests, input_ok = prepare(cli, workload, args.seed, input_dir, args.tiny, generate=False)
    checker = Checker(recorded_entry(args.workload, args.seed, args.tiny))
    out = run_dir / "out"
    reference = Reference()
    readings = [reference.reading(MIN_READING_S)]
    walls, cpus, failed = [], [], 0
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        step = (1.0 + READING_SHARE) * walls[-1] if walls else 0.0
        if elapsed >= MAX_LOOP_S or (elapsed + step > args.seconds and len(walls) >= MIN_SAMPLES):
            break
        wall, cpu, ok = invoke(cli, workload, inputs, out, checker)
        readings.append(reference.reading(max(MIN_READING_S, READING_SHARE * wall)))
        walls.append(wall)
        cpus.append(cpu)
        failed += not ok or not input_ok
    # Each invocation in reference units: its time over the mean of the
    # readings taken just before and just after it.
    refs = [(before + after) / 2 for before, after in zip(readings, readings[1:])]
    size = sizes(workload, inputs, out, args.tiny)
    items = workload.items(size["N"] or 0, size["trades"])
    wall_ref = statistics.median(w / r for w, r in zip(walls, refs))
    metrics = {
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "items_per_ref": {"value": items / wall_ref, "unit": "1/ref"},
        "cpu_ref": {"value": statistics.median(c / r for c, r in zip(cpus, refs)), "unit": "ref"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    wall_s = statistics.median(walls)
    seconds = {  # the same, in seconds of this host at the time of the run
        "wall_s": {"value": wall_s, "unit": "s"},
        "items_per_s": {"value": items / wall_s, "unit": "1/s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "reference_s": {"value": statistics.median(readings), "unit": "s"},
    }
    details = {"samples": len(walls), "walls": walls, "cpus": cpus, "references": readings,
               "setup_rounds": setup_times, "items": items, "seconds": seconds, **size}
    return metrics, details, input_ok, digests, checker.errors, len(walls), failed


def measure_traced(cli, args, workload, run_dir: Path):
    tracer = Tracer()
    tracer.install()
    tracer.invocation = SETUP
    try:
        inputs, digests, input_ok = prepare(cli, workload, args.seed, run_dir / "inputs",
                                            args.tiny, generate=True)
    finally:
        tracer.invocation = None
        tracer.uninstall()
    checker = Checker(recorded_entry(args.workload, args.seed, args.tiny))
    out = run_dir / "out"
    untraced, traced, failed = [], [], 0
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= MAX_LOOP_S or (elapsed >= args.seconds and len(traced) >= MIN_SAMPLES - 1):
            break
        wall, _, ok = invoke(cli, workload, inputs, out, checker)
        untraced.append(wall)
        failed += not ok or not input_ok
        tracer.install()
        tracer.invocation = len(traced)
        try:
            wall, _, ok = invoke(cli, workload, inputs, out, checker)
        finally:
            tracer.invocation = None
            tracer.uninstall()
        counts = tracer.counts[len(traced)]
        traced.append(wall)
        if "contagion.run_ensemble" in tracer.wrapped and not counts["ensembles_unreadable"]:
            ok = checker.check("counts", {name: counts[name] for name in COUNT_NAMES}) and ok
        failed += not ok or not input_ok
    stats = tracer.per_invocation()
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics, absent = layer_metrics(tracer, stats, list(range(len(traced))), overhead)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}.csv.gz"
    tracer.write_spans(spans_path)
    size = sizes(workload, inputs, out, args.tiny)
    details = {"samples_traced": len(traced), "samples_untraced": len(untraced),
               "absent": absent, "spans": len(tracer.spans), "spans_file": str(spans_path),
               **size}
    attempted = len(traced) + len(untraced)
    return metrics, details, input_ok, digests, checker.errors, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check sizes (N of about 20, a few hundred trades)")
    parser.add_argument("--setup-only", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return EXIT_CANNOT_RUN
    try:
        if args.setup_only:
            return setup_child(args)
        cli = load_cli()
        workload = WORKLOADS[args.workload]
        run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        try:
            run = measure_traced if args.trace else measure
            metrics, details, input_ok, digests, errors, attempted, failed = run(
                cli, args, workload, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "recorded_seed": recorded_entry(args.workload, args.seed, args.tiny) is not None,
        "inputs_match_record": input_ok, "input_sha256": digests,
        **details, **machine_info(),
    }
    print("info " + json.dumps(info, sort_keys=True))
    for message in errors[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, metric in {**metrics, **details.get("seconds", {})}.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(f"metric error_rate = {failed / attempted!r} ({failed} of {attempted} invocations)")
    result = {
        "correct": input_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
