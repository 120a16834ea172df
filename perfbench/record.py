#!/usr/bin/env python3
"""Record the expected digests and cascade counts at the current commit.

    python3 perfbench/record.py [--tiny] SEED [SEED ...]

For every workload and seed: the SHA-256 of each generated input, of
each output artifact, and the exact ``contagion.*`` counts of one traced
invocation. One untraced invocation must give the same output digests.
Entries are merged into ``recorded.json``; run only at a commit whose
outputs are known to be right.
"""
import argparse
import json
import shutil
import sys

import run
from tracer import COUNT_NAMES, Tracer
from workloads import WORKLOADS, call_cli, input_digests, make_inputs, output_digests


def record_one(cli, workload, seed: int, tiny: bool) -> dict:
    directory = run.WORK / f"record-{workload.name}-{seed}"
    if directory.exists():
        shutil.rmtree(directory)
    try:
        inputs = make_inputs(cli, workload, seed, directory / "inputs", tiny)
        outputs = []
        tracer = Tracer()
        for traced in (True, False):
            out = directory / f"out-{traced}"
            if traced:
                tracer.install()
                tracer.invocation = 0
            try:
                code, stdout, stderr = call_cli(cli, workload.argv(inputs, out))
            finally:
                tracer.uninstall()
            if code != 0:
                raise SystemExit(f"{workload.name} seed {seed}: exit {code}: {stderr}")
            outputs.append(output_digests(workload, out, stdout))
        if outputs[0] != outputs[1]:
            raise SystemExit(f"{workload.name} seed {seed}: traced and untraced outputs differ")
        return {
            "inputs": input_digests(inputs),
            "outputs": outputs[0],
            "counts": {name: tracer.counts[0][name] for name in COUNT_NAMES},
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    cli = run.load_cli()
    table = json.loads(run.RECORDED.read_text()) if run.RECORDED.exists() else {}
    section = table.setdefault("tiny" if args.tiny else "full", {})
    for name in sorted(WORKLOADS):
        for seed in args.seeds:
            entry = record_one(cli, WORKLOADS[name], seed, args.tiny)
            section.setdefault(name, {})[str(seed)] = entry
            print(name, seed, entry["counts"], flush=True)
            run.RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
