"""The four ibrisk CLI workloads: their inputs, command lines and outputs.

Every input is a pure function of the benchmark seed. Each graph comes
from ``ibrisk synth`` with one fixed generator seed (so a change to the
generator shows up as an input-digest mismatch), and the benchmark seed
shuffles its node declarations and loan lines. Every seed thus gives
other bytes, another node index order and so another order of every
float sum, but the same graph and the same work: the spread between
seeds measures the machine, not the input. (With a graph per seed, the
iso workload alone ran between 46 and 60 ensembles.) The trade edge
list for ``ingest`` comes from this module's own numpy generator, drawn
with the benchmark seed over the loans of the 1000-node graph.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STRUCTURE_SEED = 0  # ibrisk synth --rng-seed of every workload's graph
# Trades are dated uniformly over two years; the ingest window keeps the
# middle year, so about half of them are aggregated.
TRADE_START = dt.date(2023, 1, 1)
TRADE_DAYS = 730
WINDOW = ("2023-07-02", "2024-06-30")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]
    artifact: str  # CSV the command writes into --out
    n_nodes: int  # synth snapshot size
    n_trades: int  # 0 unless the workload ingests a trade list
    grid_points: int  # requested parameter points (1 for a single ensemble)
    tiny_nodes: int  # sizes for the self-check
    tiny_trades: int

    def sizes(self, tiny: bool) -> tuple[int, int]:
        return (self.tiny_nodes, self.tiny_trades) if tiny else (self.n_nodes, self.n_trades)

    def items(self, n_nodes: int, n_trades: int) -> int:
        """Fixed work per invocation, independent of how the code does it.

        Seeds x requested grid points for risk and sweep-eta, iso targets
        for iso, trade records for ingest.
        """
        if self.command == "ingest":
            return n_trades
        if self.command == "iso":
            return self.grid_points
        return n_nodes * self.grid_points

    def argv(self, inputs: dict[str, Path], out: Path) -> list[str]:
        source = inputs["trades" if self.n_trades else "snapshot"]
        return [self.command, "--input", str(source), *self.flags, "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # One fund-on ensemble at the largest N: payout and kernel work.
        Workload("risk-n1000", "risk", ("--eta", "0.005", "--alpha", "0.01"),
                 "risk.csv", 1000, 0, 1, 20, 0),
        # Default 7-point eta grid from eta=0 (deep) to 0.05 (shallow);
        # the only workload on the evaluate_point / ROI path.
        Workload("sweep-eta-n500", "sweep-eta", ("--alpha", "0.01"),
                 "sweep.csv", 500, 0, 7, 20, 0),
        # Many small ensembles for the 7 default iso targets: per-ensemble
        # fixed costs and repeated alpha-only ensembles.
        Workload("iso-n180", "iso", ("--eta", "0.005"),
                 "iso.csv", 180, 0, 7, 24, 0),
        # Write side of the network layer only; no contagion.
        Workload("ingest-300k", "ingest", ("--window-start", WINDOW[0], "--window-end", WINDOW[1]),
                 "network.csv", 1000, 300_000, 1, 20, 400),
    )
}


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``ibrisk.cli.main(argv)`` in-process; return (code, stdout, stderr).

    Any exception, argparse's SystemExit included, becomes a non-zero
    code with the error text, so one bad invocation never aborts a run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed invocation
            code = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def _synth(cli, n_nodes: int, seed: int, out: Path) -> Path:
    argv = ["synth", "--input", f"synth:n_nodes={n_nodes}", "--rng-seed", str(seed),
            "--out", str(out)]
    code, _, err = call_cli(cli, argv)
    if code != 0:
        raise RuntimeError(f"ibrisk synth failed with code {code}: {err.strip()}")
    return out / "network.csv"


def relabel(base: Path, path: Path, seed: int) -> None:
    """Write snapshot ``base`` to ``path`` with node and loan lines shuffled."""
    lines = base.read_text(encoding="utf-8").splitlines(keepends=True)
    nodes = [line for line in lines[1:] if line.startswith("# node ")]
    loans = [line for line in lines[1:] if not line.startswith("#")]
    rng = np.random.default_rng([seed, 11])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(lines[0])
        handle.writelines(nodes[k] for k in rng.permutation(len(nodes)))
        handle.writelines(loans[k] for k in rng.permutation(len(loans)))


def write_trades(snapshot: Path, path: Path, n_trades: int, seed: int) -> None:
    """Trades drawn uniformly over the snapshot's lending pairs.

    Amounts are lognormal with two decimals (always >= 0.01), dates are
    uniform over ``TRADE_DAYS`` days from ``TRADE_START``.
    """
    pairs = [
        line.split(",", 2)[:2]
        for line in snapshot.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    rng = np.random.default_rng([seed, 7])
    picks = rng.integers(len(pairs), size=n_trades).tolist()
    amounts = (rng.lognormal(3.0, 1.0, size=n_trades) + 0.01).tolist()
    days = rng.integers(TRADE_DAYS, size=n_trades).tolist()
    dates = [(TRADE_START + dt.timedelta(days=d)).isoformat() for d in range(TRADE_DAYS)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# lender,borrower,amount,date\n")
        handle.writelines(
            f"{pairs[p][0]},{pairs[p][1]},{a:.2f},{dates[d]}\n"
            for p, a, d in zip(picks, amounts, days)
        )


def make_inputs(cli, workload: Workload, seed: int, directory: Path, tiny: bool) -> dict[str, Path]:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    n_nodes, n_trades = workload.sizes(tiny)
    directory.mkdir(parents=True, exist_ok=True)
    inputs = {"snapshot": directory / "network.csv"}
    relabel(_synth(cli, n_nodes, STRUCTURE_SEED, directory / "synth"), inputs["snapshot"], seed)
    if n_trades:
        inputs["trades"] = directory / "trades.csv"
        write_trades(inputs["snapshot"], inputs["trades"], n_trades, seed)
    return inputs


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_digests(inputs: dict[str, Path]) -> dict[str, str]:
    return {kind: sha256_file(path) for kind, path in sorted(inputs.items())}


def output_digests(workload: Workload, out: Path, stdout: str) -> dict[str, str]:
    """Digests of the CSV artifact, run.cfg and the summary line.

    run.cfg echoes the input and output paths, which differ between
    checkouts and processes, so those two lines keep only their key.
    """
    cfg = "".join(
        line.split("=", 1)[0] + "=\n" if line.startswith(("input=", "out=")) else line
        for line in (out / "run.cfg").read_text(encoding="utf-8").splitlines(keepends=True)
    )
    return {
        workload.artifact: sha256_file(out / workload.artifact),
        "run.cfg": hashlib.sha256(cfg.encode()).hexdigest(),
        "summary": hashlib.sha256(stdout.encode()).hexdigest(),
    }


def snapshot_size(snapshot: Path) -> tuple[int, int]:
    """(N, E) from the snapshot header line ``# nodes=N edges=E``."""
    with open(snapshot, encoding="utf-8") as handle:
        fields = dict(part.split("=") for part in handle.readline()[1:].split())
    return int(fields["nodes"]), int(fields["edges"])
