"""Weighted directed interbank lending networks.

Ingestion of transaction edge lists, aggregation over a date window,
strength/degree computation, validation, and snapshot file round-trips.
Loan amounts A[i, j] mean "node i lent this much to node j".
"""
from __future__ import annotations

import datetime as dt
import itertools
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import InputError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TransactionRecord:
    """One interbank trade: lender -> borrower for a positive amount."""

    lender: str
    borrower: str
    amount: float
    date: dt.date


@dataclass(frozen=True)
class FinancialNetwork:
    """Immutable weighted directed lending network.

    ``nodes`` fixes the index order; ``loans`` maps (lender_idx,
    borrower_idx) to the aggregated positive amount.
    """

    nodes: tuple[str, ...]
    loans: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.loans)

    def index_of(self, node_id: str) -> int:
        try:
            return self.nodes.index(node_id)
        except ValueError:
            raise InputError(f"unknown node id {node_id!r}") from None

    @cached_property
    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (lender, borrower, amount) arrays in (lender, borrower) order.

        Built on first use and kept: ``loans`` must not change afterwards.
        """
        m = len(self.loans)
        pairs = np.fromiter(
            itertools.chain.from_iterable(self.loans), dtype=np.int64, count=2 * m
        ).reshape(m, 2)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        lender, borrower = pairs[order, 0], pairs[order, 1]
        amount = np.fromiter(self.loans.values(), dtype=np.float64, count=m)[order]
        for array in (lender, borrower, amount):
            array.flags.writeable = False
        return lender, borrower, amount

    def matrix(self) -> np.ndarray:
        """Dense loan matrix A with A[i, j] = amount i lent to j."""
        a = np.zeros((self.n_nodes, self.n_nodes))
        lender, borrower, amount = self.coo
        a[lender, borrower] = amount
        return a

    def scaled(self, gamma: float) -> "FinancialNetwork":
        """Copy of the network with every loan multiplied by gamma > 0."""
        if gamma <= 0:
            raise InputError("scale factor must be positive")
        return FinancialNetwork(
            self.nodes, {k: gamma * v for k, v in self.loans.items()}
        )


@dataclass(frozen=True)
class NodeStrengths:
    """Per-node lending/borrowing totals and edge counts."""

    out_strength: np.ndarray  # total lent, S^L
    in_strength: np.ndarray  # total borrowed, S^B
    out_degree: np.ndarray
    in_degree: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def ingest_transactions(
    lines: Iterable[str], source_name: str = "<stream>"
) -> list[TransactionRecord]:
    """Parse a comma-separated transaction stream into records.

    Format per line: ``lender_id,borrower_id,amount,YYYY-MM-DD``.
    Comment lines (leading ``#``) are ignored; blank lines are skipped
    with a warning. Any malformed line aborts with an error naming the
    line number.
    """
    records = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            logger.warning("%s:%d: blank line skipped", source_name, lineno)
            continue
        if line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise InputError(
                f"{source_name}:{lineno}: expected 4 fields, got {len(parts)}"
            )
        lender, borrower, amount_text, date_text = parts
        if not lender or not borrower:
            raise InputError(f"{source_name}:{lineno}: empty node id")
        try:
            amount = float(amount_text)
        except ValueError:
            raise InputError(
                f"{source_name}:{lineno}: unparseable amount {amount_text!r}"
            ) from None
        if not np.isfinite(amount) or amount <= 0:
            raise InputError(
                f"{source_name}:{lineno}: amount must be strictly positive, "
                f"got {amount_text}"
            )
        if lender == borrower:
            raise InputError(
                f"{source_name}:{lineno}: self-loop on node {lender!r} rejected"
            )
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise InputError(
                f"{source_name}:{lineno}: unparseable date {date_text!r}"
            ) from None
        records.append(TransactionRecord(lender, borrower, amount, date))
    logger.info("%s: ingested %d records", source_name, len(records))
    return records


def ingest_file(path) -> list[TransactionRecord]:
    """Read and parse a transaction edge-list file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return ingest_transactions(handle, source_name=str(path))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def aggregate_window(
    records: list[TransactionRecord],
    start: Optional[dt.date] = None,
    end: Optional[dt.date] = None,
) -> FinancialNetwork:
    """Sum trade volumes per (lender, borrower) pair inside [start, end].

    Node index order is first-appearance order over the selected records,
    which makes aggregation deterministic and permutation of volumes
    within a pair irrelevant.
    """
    selected = [
        r
        for r in records
        if (start is None or r.date >= start) and (end is None or r.date <= end)
    ]
    if not selected:
        raise InputError("no transactions fall inside the requested window")
    index: dict[str, int] = {}
    for r in selected:
        for node in (r.lender, r.borrower):
            if node not in index:
                index[node] = len(index)
    loans: dict[tuple[int, int], float] = {}
    for r in selected:
        key = (index[r.lender], index[r.borrower])
        loans[key] = loans.get(key, 0.0) + r.amount
    return FinancialNetwork(tuple(index), loans)


def node_strengths(net: FinancialNetwork) -> NodeStrengths:
    """Out/in strengths (total lent/borrowed) and degrees per node.

    Each strength is summed one loan at a time in (lender, borrower)
    order, so its bits do not depend on how the loans were inserted.
    """
    n = net.n_nodes
    lender, borrower, amount = net.coo
    out_s = np.zeros(n)
    in_s = np.zeros(n)
    np.add.at(out_s, lender, amount)
    np.add.at(in_s, borrower, amount)
    out_k = np.bincount(lender, minlength=n)
    in_k = np.bincount(borrower, minlength=n)
    return NodeStrengths(out_s, in_s, out_k, in_k)


def validate_network(net: FinancialNetwork) -> ValidationReport:
    """Report-only check: self-loops and nonpositive weights are
    violations, isolated nodes are warnings."""
    violations = []
    warnings = []
    touched = set()
    for (i, j), amount in sorted(net.loans.items()):
        if i == j:
            violations.append(f"self-loop on node {net.nodes[i]!r}")
        if amount <= 0:
            violations.append(
                f"nonpositive loan {net.nodes[i]!r}->{net.nodes[j]!r}: {amount}"
            )
        touched.add(i)
        touched.add(j)
    for idx in range(net.n_nodes):
        if idx not in touched:
            warnings.append(f"isolated node {net.nodes[idx]!r}")
    return ValidationReport(tuple(violations), tuple(warnings))


def write_snapshot(net: FinancialNetwork, path) -> None:
    """Write an aggregated network snapshot (exact float round-trip)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# nodes={net.n_nodes} edges={net.n_edges}\n")
        for node in net.nodes:
            handle.write(f"# node {node}\n")
        for (i, j), amount in sorted(net.loans.items()):
            handle.write(f"{net.nodes[i]},{net.nodes[j]},{float(amount)!r}\n")


def read_snapshot(path) -> FinancialNetwork:
    """Read a snapshot written by :func:`write_snapshot`.

    Every loan amount must be finite and positive, no loan may join a
    node to itself or name an empty node id, no node or (lender,
    borrower) pair may appear twice, and a ``# nodes=N edges=E`` header
    must match the body. Violations raise an error naming the line.
    """
    declared: dict[str, None] = {}
    edges: dict[tuple[str, str], float] = {}
    header = None
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# node "):
            node = line[len("# node ") :]
            if node in declared:
                raise InputError(f"{path}:{lineno}: duplicate node {node!r}")
            declared[node] = None
            continue
        if line.startswith("# nodes="):
            header = (lineno, line)
            continue
        if line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 fields")
        lender, borrower, amount_text = parts
        if not lender or not borrower:
            raise InputError(f"{path}:{lineno}: empty node id")
        try:
            amount = float(amount_text)
        except ValueError:
            raise InputError(f"{path}:{lineno}: unparseable amount") from None
        if not math.isfinite(amount) or amount <= 0:
            raise InputError(
                f"{path}:{lineno}: amount must be strictly positive, got {amount_text}"
            )
        if lender == borrower:
            raise InputError(f"{path}:{lineno}: self-loop on node {lender!r} rejected")
        if (lender, borrower) in edges:
            raise InputError(f"{path}:{lineno}: duplicate loan {lender!r}->{borrower!r}")
        edges[(lender, borrower)] = amount
    index: dict[str, int] = {node: k for k, node in enumerate(declared)}
    for lender, borrower in edges:
        for node in (lender, borrower):
            if node not in index:
                index[node] = len(index)
    loans = {
        (index[lender], index[borrower]): amount
        for (lender, borrower), amount in edges.items()
    }
    if header is not None:
        expected = f"# nodes={len(index)} edges={len(loans)}"
        if header[1] != expected:
            raise InputError(
                f"{path}:{header[0]}: header {header[1]!r} disagrees with the body "
                f"({expected[2:]})"
            )
    return FinancialNetwork(tuple(index), loans)


def is_snapshot_file(path) -> bool:
    """True when the file starts with a snapshot header line."""
    try:
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return first.startswith("# nodes=")
