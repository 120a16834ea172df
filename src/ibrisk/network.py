"""Weighted directed interbank lending networks.

Ingestion of transaction edge lists, aggregation over a date window,
strength/degree computation, validation, and snapshot file round-trips.
Loan amounts A[i, j] mean "node i lent this much to node j".
"""
from __future__ import annotations

import datetime as dt
import itertools
import logging
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class FinancialNetwork:
    """Immutable weighted directed lending network.

    ``nodes`` fixes the index order; loan k is ``amount[k]`` lent by node
    ``lender[k]`` to node ``borrower[k]``. The constructor stores these as
    read-only int64, int64 and float64 arrays sorted by (lender, borrower)
    and raises InputError for columns of different lengths, indices that
    are not integers in [0, N), self-loops, amounts that are not finite
    and positive, and a repeated pair. Equality compares every bit.
    """

    nodes: tuple[str, ...]
    lender: np.ndarray = ()
    borrower: np.ndarray = ()
    amount: np.ndarray = ()

    def __post_init__(self):
        lender, borrower = np.asarray(self.lender), np.asarray(self.borrower)
        amount = np.asarray(self.amount, dtype=np.float64)
        if not (lender.ndim == borrower.ndim == amount.ndim == 1
                and lender.size == borrower.size == amount.size):
            shapes = (lender.shape, borrower.shape, amount.shape)
            raise InputError(f"loan columns must be 1-D and of one length, got shapes {shapes}")
        if amount.size and not (lender.dtype.kind in "iu" and borrower.dtype.kind in "iu"):
            raise InputError("loan node indices must be integers")
        lender, borrower = lender.astype(np.int64), borrower.astype(np.int64)
        n = len(self.nodes)
        k = _first((lender < 0) | (lender >= n) | (borrower < 0) | (borrower >= n))
        if k is not None:
            raise InputError(f"loan {lender[k]}->{borrower[k]} has a node index outside [0, {n})")
        k = _first(lender == borrower)
        if k is not None:
            raise InputError(f"self-loop on node {self.nodes[lender[k]]!r} rejected")
        k = _first(~(np.isfinite(amount) & (amount > 0)))
        if k is not None:
            raise InputError(
                f"loan {self._pair(lender[k], borrower[k])}: amount must be finite "
                f"and strictly positive, got {amount[k]}"
            )
        order = np.lexsort((borrower, lender))
        lender, borrower, amount = lender[order], borrower[order], amount[order]
        k = _first((lender[1:] == lender[:-1]) & (borrower[1:] == borrower[:-1]))
        if k is not None:
            raise InputError(f"duplicate loan {self._pair(lender[k], borrower[k])}")
        for name, array in (("lender", lender), ("borrower", borrower), ("amount", amount)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _pair(self, lender: int, borrower: int) -> str:
        return f"{self.nodes[lender]!r}->{self.nodes[borrower]!r}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinancialNetwork):
            return NotImplemented
        return self.nodes == other.nodes and all(
            getattr(self, name).tobytes() == getattr(other, name).tobytes()
            for name in ("lender", "borrower", "amount")
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return self.amount.size

    def index_of(self, node_id: str) -> int:
        try:
            return self.nodes.index(node_id)
        except ValueError:
            raise InputError(f"unknown node id {node_id!r}") from None

    def matrix(self) -> np.ndarray:
        """Dense loan matrix A with A[i, j] = amount i lent to j."""
        a = np.zeros((self.n_nodes, self.n_nodes))
        a[self.lender, self.borrower] = self.amount
        return a

    def scaled(self, gamma: float) -> "FinancialNetwork":
        """Copy of the network with every loan multiplied by gamma > 0."""
        if gamma <= 0:
            raise InputError("scale factor must be positive")
        return FinancialNetwork(self.nodes, self.lender, self.borrower, self.amount * gamma)


@dataclass(frozen=True)
class NodeStrengths:
    """Per-node lending/borrowing totals and edge counts."""

    out_strength: np.ndarray  # total lent, S^L
    in_strength: np.ndarray  # total borrowed, S^B
    out_degree: np.ndarray
    in_degree: np.ndarray


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
    pairs, slot = np.unique(position[lender] * n + position[borrower], return_inverse=True)
    totals = np.zeros(pairs.size)
    np.add.at(totals, slot, amount)
    nodes = tuple(trades.names[c] for c in codes.tolist())
    return FinancialNetwork(nodes, pairs // n, pairs % n, totals)


def node_strengths(net: FinancialNetwork) -> NodeStrengths:
    """Out/in strengths (total lent/borrowed) and degrees per node.

    Each strength is summed one loan at a time in the network's canonical
    (lender, borrower) order, so its bits do not depend on input order.
    """
    n = net.n_nodes
    out_s = np.zeros(n)
    in_s = np.zeros(n)
    np.add.at(out_s, net.lender, net.amount)
    np.add.at(in_s, net.borrower, net.amount)
    out_k = np.bincount(net.lender, minlength=n)
    in_k = np.bincount(net.borrower, minlength=n)
    return NodeStrengths(out_s, in_s, out_k, in_k)


def validate_network(net: FinancialNetwork) -> tuple[str, ...]:
    """Warnings about a valid network: one per isolated node, which has
    no loan and so no balance sheet."""
    touched = np.zeros(net.n_nodes, dtype=bool)
    touched[net.lender] = True
    touched[net.borrower] = True
    return tuple(f"isolated node {net.nodes[idx]!r}" for idx in np.flatnonzero(~touched).tolist())


def write_snapshot(net: FinancialNetwork, path) -> None:
    """Write an aggregated network snapshot (exact float round-trip)."""
    nodes = net.nodes
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# nodes={net.n_nodes} edges={net.n_edges}\n")
        handle.write("".join(f"# node {node}\n" for node in nodes))
        handle.write("".join(
            f"{nodes[i]},{nodes[j]},{a!r}\n"
            for i, j, a in zip(net.lender.tolist(), net.borrower.tolist(), net.amount.tolist())
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
    if header is not None:
        expected = f"# nodes={len(nodes)} edges={amount.size}"
        if header[1] != expected:
            raise InputError(
                f"{source}:{header[0]}: header {header[1]!r} disagrees with the body "
                f"({expected[2:]})"
            )
    return FinancialNetwork(tuple(nodes), remap[lender], remap[borrower], amount)


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
