"""Weighted directed interbank lending networks.

Ingestion of transaction edge lists, aggregation over a date window,
strength/degree computation, validation, and snapshot file round-trips.
Loan amounts A[i, j] mean "node i lent this much to node j".
"""
from __future__ import annotations

import datetime as dt
import itertools
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import InputError

logger = logging.getLogger(__name__)


# Lines parsed together as one set of columns. A chunk's per-line strings
# live only while it is parsed, so this bounds the parser's memory; larger
# chunks were no faster, and 65,536 lines took 30 MB more on 300k trades.
PARSE_CHUNK = 8192


@dataclass(frozen=True)
class Trades:
    """Parsed trades as read-only columns, one row per trade line.

    Row k is a loan of ``amount[k]`` from ``names[lender[k]]`` to
    ``names[borrower[k]]`` on the day whose proleptic ordinal is
    ``day[k]``. ``names`` holds each node id once, in first-appearance
    order (lender before borrower within a row).
    """

    names: tuple[str, ...]
    lender: np.ndarray  # int64 codes into names
    borrower: np.ndarray
    amount: np.ndarray  # float64
    day: np.ndarray  # int64, date.toordinal()

    def __len__(self) -> int:
        return len(self.amount)


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


def _first(mask: np.ndarray) -> Optional[int]:
    """Offset of the first True entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _first_failure(parse, texts: list[str]) -> Optional[int]:
    """Offset of the first text that ``parse`` rejects with ValueError."""
    for k, text in enumerate(texts):
        try:
            parse(text)
        except ValueError:
            return k
    return None


def _chunks(lines: Iterable[str]):
    """Yield (line number of the first line, list of at most
    ``PARSE_CHUNK`` stripped lines) over a line stream."""
    lines = iter(lines)
    lineno = 1
    while chunk := list(map(str.strip, itertools.islice(lines, PARSE_CHUNK))):
        yield lineno, chunk
        lineno += len(chunk)


class _Chunk:
    """One chunk of stripped lines of a comma-separated stream, parsed into columns.

    Blank and ``#`` lines are set aside by offset in ``other``; every
    other line is a row, at offset ``at[r]``, split into ``n_fields``
    stripped ``columns``. Columns 0 and 1 are node ids, interned through
    ``index`` (shared by all chunks of a stream) into ``lender`` and
    ``borrower`` codes; column 2 is a finite, strictly positive
    ``amount``. Rows from the first one with a wrong field count on are
    dropped.

    Each check finds its first failing row, and :meth:`fail` keeps it
    only when it lies before the error kept so far. So the error raised
    is the one on the earliest line and, on one line, the one checked
    first, as if the lines were checked one at a time.
    """

    def __init__(self, source, lineno, lines, n_fields, index, fields_error, amount_error):
        self.source = source
        self.lineno = lineno
        self.lines = lines
        self.error_at = len(lines)
        self.error = None
        try:
            "".join(lines).encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates: undecodable bytes of the file
            bad = _first_failure(lambda line: line.encode("utf-8"), lines)
            self.fail(bad, "not valid UTF-8 text")
        self.at = at = [k for k, line in enumerate(lines) if line and line[0] != "#"]
        self.other = []
        if len(at) < len(lines):
            self.other = [k for k, line in enumerate(lines) if not line or line[0] == "#"]
        rows = list(map(lines.__getitem__, at))
        commas = np.array([row.count(",") for row in rows], dtype=np.int64)
        r = _first(commas != n_fields - 1)
        if r is not None:
            self.fail(at[r], fields_error.format(commas[r] + 1))
            del at[r:], rows[r:]
        parts = ",".join(rows).split(",") if rows else []
        self.columns = columns = [list(map(str.strip, parts[f::n_fields])) for f in range(n_fields)]

        ids = [""] * (2 * len(rows))
        ids[0::2], ids[1::2] = columns[0], columns[1]
        for name in dict.fromkeys(ids):
            index.setdefault(name, len(index))
        codes = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))
        self.lender, self.borrower = codes[0::2], codes[1::2]
        if "" in index:
            empty = index[""]
            r = _first((self.lender == empty) | (self.borrower == empty))
            if r is not None:
                self.fail(at[r], "empty node id")

        texts = columns[2]
        try:
            amount = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
        except ValueError:
            r = _first_failure(float, texts)
            self.fail(at[r], amount_error.format(texts[r]))
            amount = np.fromiter(map(float, texts[:r]), dtype=np.float64, count=r)
        r = _first(~(np.isfinite(amount) & (amount > 0)))
        if r is not None:
            self.fail(at[r], f"amount must be strictly positive, got {texts[r]}")
        self.amount = amount
        r = _first(self.lender == self.borrower)
        if r is not None:
            self.fail(at[r], f"self-loop on node {columns[0][r]!r} rejected")

    def fail(self, offset: int, message: str) -> None:
        """Record a failed check on the line at ``offset`` in the chunk."""
        if offset < self.error_at:
            self.error_at, self.error = offset, message

    def raise_error(self) -> None:
        if self.error is not None:
            raise InputError(f"{self.source}:{self.lineno + self.error_at}: {self.error}")


def ingest_transactions(lines: Iterable[str], source_name: str = "<stream>") -> Trades:
    """Parse a comma-separated transaction stream into a :class:`Trades` table.

    Format per line: ``lender_id,borrower_id,amount,YYYY-MM-DD``.
    Comment lines (leading ``#``) are ignored; blank lines are skipped
    with a warning. Any malformed line aborts with an error naming the
    line number. Lines are parsed ``PARSE_CHUNK`` at a time, as columns.
    """
    index: dict[str, int] = {}
    no_rows = np.empty(0, dtype=np.int64)
    columns = [(no_rows, no_rows, np.empty(0), no_rows)]
    for lineno, chunk_lines in _chunks(lines):
        chunk = _Chunk(
            source_name, lineno, chunk_lines, 4, index,
            "expected 4 fields, got {}", "unparseable amount {!r}",
        )
        dates = chunk.columns[3]
        ordinal = {}
        try:
            for text in dict.fromkeys(dates):
                ordinal[text] = dt.date.fromisoformat(text).toordinal()
        except ValueError:
            r = _first_failure(dt.date.fromisoformat, dates)
            chunk.fail(chunk.at[r], f"unparseable date {dates[r]!r}")
        for k in chunk.other:
            if k < chunk.error_at and not chunk.lines[k]:
                logger.warning("%s:%d: blank line skipped", source_name, lineno + k)
        chunk.raise_error()
        day = np.fromiter(map(ordinal.__getitem__, dates), dtype=np.int64, count=len(dates))
        columns.append((chunk.lender, chunk.borrower, chunk.amount, day))
    arrays = [np.concatenate(column) for column in zip(*columns)]
    for array in arrays:
        array.flags.writeable = False
    trades = Trades(tuple(index), *arrays)
    logger.info("%s: ingested %d records", source_name, len(trades))
    return trades


def _parse_file(path, parse):
    """Run ``parse(lines, source)`` over a UTF-8 text file.

    Bytes that do not decode are kept as lone surrogates, which the
    parser rejects with their line number.
    """
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            return parse(handle, str(path))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def ingest_file(path) -> Trades:
    """Read and parse a transaction edge-list file."""
    return _parse_file(path, ingest_transactions)


def aggregate_window(
    trades: Trades,
    start: Optional[dt.date] = None,
    end: Optional[dt.date] = None,
) -> FinancialNetwork:
    """Sum trade volumes per (lender, borrower) pair inside [start, end].

    Node index order is first-appearance order over the selected trades
    (lender before borrower), which makes aggregation deterministic and
    permutation of volumes within a pair irrelevant. Each pair is summed
    one trade at a time in row order.
    """
    keep = np.ones(len(trades), dtype=bool)
    if start is not None:
        keep &= trades.day >= start.toordinal()
    if end is not None:
        keep &= trades.day <= end.toordinal()
    lender, borrower, amount = trades.lender[keep], trades.borrower[keep], trades.amount[keep]
    if not amount.size:
        raise InputError("no transactions fall inside the requested window")
    ends = np.column_stack((lender, borrower)).ravel()
    codes, first = np.unique(ends, return_index=True)
    codes = codes[np.argsort(first)]
    position = np.empty(len(trades.names), dtype=np.int64)
    position[codes] = np.arange(codes.size)
    n = codes.size
    pairs, first, slot = np.unique(
        position[lender] * n + position[borrower], return_index=True, return_inverse=True
    )
    totals = np.zeros(pairs.size)
    np.add.at(totals, slot, amount)
    order = np.argsort(first)  # the pairs as a row-by-row dict would insert them
    pairs = pairs[order]
    loans = dict(zip(zip((pairs // n).tolist(), (pairs % n).tolist()), totals[order].tolist()))
    return FinancialNetwork(tuple(trades.names[c] for c in codes.tolist()), loans)


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
    lender, borrower, amount = net.coo
    offending = np.flatnonzero((lender == borrower) | (amount <= 0))
    violations = []
    for i, j in zip(lender[offending].tolist(), borrower[offending].tolist()):
        if i == j:
            violations.append(f"self-loop on node {net.nodes[i]!r}")
        value = net.loans[(i, j)]
        if value <= 0:
            violations.append(
                f"nonpositive loan {net.nodes[i]!r}->{net.nodes[j]!r}: {value}"
            )
    touched = np.zeros(net.n_nodes, dtype=bool)
    touched[lender] = True
    touched[borrower] = True
    warnings = [f"isolated node {net.nodes[idx]!r}" for idx in np.flatnonzero(~touched).tolist()]
    return ValidationReport(tuple(violations), tuple(warnings))


def write_snapshot(net: FinancialNetwork, path) -> None:
    """Write an aggregated network snapshot (exact float round-trip)."""
    nodes = net.nodes
    lender, borrower, amount = net.coo
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# nodes={net.n_nodes} edges={net.n_edges}\n")
        handle.write("".join(f"# node {node}\n" for node in nodes))
        handle.write("".join(
            f"{nodes[i]},{nodes[j]},{a!r}\n"
            for i, j, a in zip(lender.tolist(), borrower.tolist(), amount.tolist())
        ))


def _snapshot_from_lines(lines: Iterable[str], source: str) -> FinancialNetwork:
    """Parse and check snapshot lines; see :func:`read_snapshot`."""
    declared: dict[str, None] = {}
    index: dict[str, int] = {}  # loan node ids in first-appearance order
    header = None
    seen: set[int] = set()  # lender << 32 | borrower of the loans so far
    no_rows = np.empty(0, dtype=np.int64)
    columns = [(no_rows, no_rows, np.empty(0))]
    for lineno, chunk_lines in _chunks(lines):
        chunk = _Chunk(
            source, lineno, chunk_lines, 3, index, "expected 3 fields", "unparseable amount"
        )
        for k in chunk.other:
            line = chunk.lines[k]
            if line.startswith("# node "):
                node = line[len("# node ") :]
                if node in declared:
                    chunk.fail(k, f"duplicate node {node!r}")
                declared[node] = None
            elif line.startswith("# nodes="):
                header = (lineno + k, line)
        for r, key in enumerate(((chunk.lender << 32) | chunk.borrower).tolist()):
            if key in seen:
                lender, borrower = chunk.columns[0][r], chunk.columns[1][r]
                chunk.fail(chunk.at[r], f"duplicate loan {lender!r}->{borrower!r}")
                break
            seen.add(key)
        chunk.raise_error()
        columns.append((chunk.lender, chunk.borrower, chunk.amount))
    nodes = [*declared, *(name for name in index if name not in declared)]
    position = {node: k for k, node in enumerate(nodes)}
    remap = np.array([position[name] for name in index], dtype=np.int64)
    lender, borrower, amount = map(np.concatenate, zip(*columns))
    loans = dict(zip(zip(remap[lender].tolist(), remap[borrower].tolist()), amount.tolist()))
    if header is not None:
        expected = f"# nodes={len(nodes)} edges={len(loans)}"
        if header[1] != expected:
            raise InputError(
                f"{source}:{header[0]}: header {header[1]!r} disagrees with the body "
                f"({expected[2:]})"
            )
    return FinancialNetwork(tuple(nodes), loans)


def read_snapshot(path) -> FinancialNetwork:
    """Read a snapshot written by :func:`write_snapshot`.

    Every loan amount must be finite and positive, no loan may join a
    node to itself or name an empty node id, no node or (lender,
    borrower) pair may appear twice, and a ``# nodes=N edges=E`` header
    must match the body. Violations raise an error naming the line.
    Loans are parsed as columns, like trades.
    """
    return _parse_file(path, _snapshot_from_lines)


def is_snapshot_file(path) -> bool:
    """True when the file starts with a snapshot header line."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(b"# nodes=")) == b"# nodes="
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
