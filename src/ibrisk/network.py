"""Weighted directed interbank lending networks.

Ingestion of transaction edge lists over a date window, aggregation,
strength computation, validation, and snapshot file round-trips.
Loan amounts A[i, j] mean "node i lent this much to node j".
"""
from __future__ import annotations

import datetime as dt
import io
import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InputError

logger = logging.getLogger(__name__)


# A text file is parsed in blocks of READ_BLOCK characters and the rest of
# the last line; on 300k trades 64k peaked 3 MB below 16k and 9 MB below
# 256k, and ran fastest.
READ_BLOCK = 65536
# Kept trades are summed into the pair totals FOLD_ROWS at a time (see
# _PairTotals). On ingest-300k's window, summing each block alone ran 19%
# slower, and 131072 rows peaked 3.7 MiB higher; 32768 ran 10% slower on 1.2M trades.
FOLD_ROWS = 65536
WRITE_PIECE = 4096  # loans per formatted piece of a snapshot, so no string holds all


@dataclass(frozen=True)
class Trades:
    """Parsed trades as read-only columns, one row per trade line kept.

    Row k is a loan of ``amount[k]`` from ``names[lender[k]]`` to
    ``names[borrower[k]]`` on the day whose proleptic ordinal is
    ``day[k]``. ``names`` holds each node id once, in first-appearance
    order over every parsed row, kept or not (lender before borrower).
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
    are not integers in [0, N), self-loops, then the first repeated pair
    or amount not finite and positive in that order. Loans already in
    canonical order are not sorted. An array of the caller's that no sort
    or conversion replaced is copied unless it is read-only and owns its
    memory. Equality compares every bit.
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
        lender, borrower = (column.astype(np.int64, copy=False) for column in (lender, borrower))
        n = len(self.nodes)
        k = _first((lender < 0) | (lender >= n) | (borrower < 0) | (borrower >= n))
        if k is not None:
            raise InputError(f"loan {lender[k]}->{borrower[k]} has a node index outside [0, {n})")
        k = _first(lender == borrower)
        if k is not None:
            raise InputError(f"self-loop on node {self.nodes[lender[k]]!r} rejected")
        key = lender * n + borrower
        if not (key[1:] > key[:-1]).all():  # else in order, and no pair repeats
            order = np.argsort(key)  # keys tie only on a repeated pair
            del key  # free it before the gathers below
            lender, borrower, amount = lender[order], borrower[order], amount[order]
            k = _first((lender[1:] == lender[:-1]) & (borrower[1:] == borrower[:-1]))
            if k is not None:
                raise InputError(f"duplicate loan {self._pair(lender[k], borrower[k])}")
        k = _first(~(np.isfinite(amount) & (amount > 0)))
        if k is not None:
            raise InputError(
                f"loan {self._pair(lender[k], borrower[k])}: amount must be finite "
                f"and strictly positive, got {amount[k]}"
            )
        for name, array in (("lender", lender), ("borrower", borrower), ("amount", amount)):
            if array.base is not None or (array is getattr(self, name) and array.flags.writeable):
                array = array.copy()  # the caller's, which it may still write to
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
        if not gamma > 0:  # NaN as well
            raise InputError("scale factor must be positive")
        with np.errstate(over="ignore"):  # an inf amount fails in the constructor
            return FinancialNetwork(self.nodes, self.lender, self.borrower, self.amount * gamma)


@dataclass(frozen=True)
class NodeStrengths:
    """Per-node lending/borrowing totals."""

    out_strength: np.ndarray  # total lent, S^L
    in_strength: np.ndarray  # total borrowed, S^B


def _first(mask: np.ndarray) -> Optional[int]:
    """Offset of the first True entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


# A plain row has none of these bytes next to a comma or a line edge: the
# ASCII whitespace that str.strip removes, and any byte of a non-ASCII
# character, as some of those are whitespace too (U+00A0, U+3000).
_PADDING = np.zeros(256, dtype=bool)
_PADDING[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_PADDING[0x80:] = True
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_PIECE = (_NO_ROWS, _NO_ROWS, np.empty(0), _NO_ROWS)  # lender, borrower, amount, day
_UNSEEN = np.iinfo(np.int64).max


class _Index(dict):
    """Node ids to codes. A missing id takes the next code when looked up,
    so one pass over a block codes its ids in order of first appearance."""

    def __missing__(self, key: str) -> int:
        return self.setdefault(key, len(self))


class _Ordinals(dict):
    """Date texts to day ordinals, each parsed once; a bad date raises ValueError."""

    def __missing__(self, key: str) -> int:
        return self.setdefault(key, dt.date.fromisoformat(key).toordinal())


class _PairTotals:
    """Per-pair sums of trades taken in row order, folded in FOLD_ROWS rows
    at a time. ``keys`` holds each pair's ``lender << 32 | borrower`` in
    parse codes, ascending, then _UNSEEN, so every key has a place at or
    before the last. A pair's total starts at +0.0 and takes its rows'
    amounts by ``np.add.at`` in row order: the additions of ``np.bincount``
    over the whole table, so the same bits. ``first[c]`` is 2k if kept
    row k first names code c as lender, 2k + 1 as borrower, else _UNSEEN.
    """

    def __init__(self):
        self.keys, self.totals, self.first = np.array([_UNSEEN]), np.zeros(1), _NO_ROWS
        self.rows, self.pending, self.waiting = 0, [], 0

    def add(self, piece) -> None:  # a parsed piece's kept rows
        self.pending.append(piece[:3])
        self.waiting += len(piece[2])
        if self.waiting >= FOLD_ROWS:
            self.waiting = 0
            self.fold(*_joined(self.pending))

    def fold(self, lender, borrower, amount) -> None:
        """Add rows that follow every row taken so far. Beside them, a fold
        holds about four arrays of their length."""
        m, row = amount.size, 2 * self.rows
        grow = max(lender.max() + 1, borrower.max() + 1, self.first.size) - self.first.size
        self.first = np.concatenate((self.first, np.full(grow, _UNSEEN)))
        np.minimum.at(self.first, lender, np.arange(row, row + 2 * m, 2))
        np.minimum.at(self.first, borrower, np.arange(row + 1, row + 2 * m, 2))
        self.rows += m
        key = np.left_shift(lender, 32, dtype=np.int64)  # codes stay far below 2**31
        key |= borrower
        order = np.argsort(key)
        key = key[order]
        new = np.concatenate(([True], key[1:] != key[:-1]))
        key = key[new]  # the fold's pairs
        at = np.searchsorted(self.keys, key)
        fresh = self.keys[at] != key
        self.keys = np.insert(self.keys, at[fresh], key[fresh])
        self.totals = np.insert(self.totals, at[fresh], 0.0)
        at += np.cumsum(fresh) - fresh  # each pair's slot once the fresh ones are in
        slot = np.empty_like(order)
        slot[order] = at[np.cumsum(new) - 1]
        with np.errstate(over="ignore"):  # an inf total fails in the constructor
            np.add.at(self.totals, slot, amount)

    def network(self, names: tuple[str, ...]) -> FinancialNetwork:
        """The network of the trades taken, whose codes index ``names``."""
        if self.waiting:
            self.fold(*_joined(self.pending))
        if not self.rows:
            raise InputError("the input holds no trades")
        codes = np.argsort(self.first)  # codes that no kept row names sort last
        position, n = np.argsort(codes), np.count_nonzero(self.first < _UNSEEN)
        lender, borrower = position[self.keys[:-1] >> 32], position[self.keys[:-1] & 0xFFFFFFFF]
        nodes = tuple(names[c] for c in codes[:n].tolist())
        return FinancialNetwork(nodes, lender, borrower, self.totals[:-1])  # it sorts the pairs


def _plain_chunk(text: str, count: int, lineno: int, index: _Index, note,
                 ordinal: Optional[_Ordinals] = None):
    """Parse a block at once, or return None to leave it to :func:`_by_line`.

    Rows are trades given the ``ordinal`` cache of date texts, else loans.
    ``text`` holds ``count`` whole lines, each ended by its only newline.
    Each must be UTF-8 and a whole-line ``#`` comment or a plain row:
    fields joined by commas, with no ``_PADDING`` byte next to a comma or
    a line edge, so that ``str.strip`` changes no field. Once the fields
    pass every check of :func:`_by_line`, calls ``note`` for each ``#``
    line (the block starts at line ``lineno``) and returns the columns of
    :func:`_by_line`. New ids join ``index`` before the field checks,
    which is safe for trades and loans alike: every field check that
    fails is also an error of :func:`_by_line`, which raises on the block.
    """
    n_fields = 3 if ordinal is None else 4
    comments = []
    try:
        if "#" in text:
            text.encode("utf-8")
            lines = text.split("\n")
            comments = [(k, line.strip()) for k, line in enumerate(lines) if line[:1] == "#"]
            text = "\n".join([line for line in lines if line[:1] != "#"])
        data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    except UnicodeEncodeError:  # lone surrogates: undecodable bytes of the file
        return None
    n = count - len(comments)
    if n:
        sep = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
        edges = np.concatenate(([0], sep - 1, sep[:-1] + 1))
        if data[sep].tobytes() != b",,,\n"[-n_fields:] * n or _PADDING[data[edges]].any():
            return None
    fields = text[:-1].replace("\n", ",").split(",") if n else []
    ids = [""] * (2 * n)
    ids[0::2], ids[1::2] = fields[0::n_fields], fields[1::n_fields]
    codes = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=2 * n)
    try:
        amount = np.fromiter(map(float, fields[2::n_fields]), dtype=np.float64, count=n)
        day = () if ordinal is None else (
            np.fromiter(map(ordinal.__getitem__, fields[3::4]), dtype=np.int64, count=n),)
    except ValueError:
        return None
    if "" in index or (codes[0::2] == codes[1::2]).any() or not (
        (amount > 0) & (amount < np.inf)
    ).all():
        return None
    for k, line in comments:
        note(lineno + k, line)
    return codes[0::2].copy(), codes[1::2].copy(), amount, *day


def _by_line(lines: Iterable[str], lineno: int, source: str, index: _Index, note,
             ordinal: Optional[_Ordinals] = None):
    """Parse lines one at a time by the rules that alone define parse
    errors; raise InputError naming the first line that breaks one.

    Rows are trades (four fields, the last a date) given ``ordinal``, else
    loans (three fields), whose pair may not repeat among ``lines``. Calls
    ``note(line number, stripped line)`` for each blank or ``#`` line.
    Returns the lender and borrower codes into ``index``, the amounts and,
    for trades, the day ordinals.
    """
    n_fields = 3 if ordinal is None else 4
    rows, seen = [], set()

    def fault(message: str) -> InputError:
        return InputError(f"{source}:{lineno}: {message}")

    for lineno, line in enumerate(lines, lineno):
        line = line.strip()
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates: undecodable bytes of the file
            raise fault("not valid UTF-8 text") from None
        if not line or line[0] == "#":
            note(lineno, line)
            continue
        fields = list(map(str.strip, line.split(",")))
        if len(fields) != n_fields:
            raise fault(f"expected {n_fields} fields, got {len(fields)}")
        lender, borrower, text = fields[:3]
        if not (lender and borrower):
            raise fault("empty node id")
        try:
            amount = float(text)
        except ValueError:
            raise fault(f"unparseable amount {text!r}") from None
        if not 0 < amount < np.inf:
            raise fault(f"amount must be strictly positive, got {text}")
        if lender == borrower:
            raise fault(f"self-loop on node {lender!r} rejected")
        day = 0
        if ordinal is not None:
            try:
                day = ordinal[fields[3]]
            except ValueError:
                raise fault(f"unparseable date {fields[3]!r}") from None
        elif (lender, borrower) in seen:
            raise fault(f"duplicate loan {lender!r}->{borrower!r}")
        else:
            seen.add((lender, borrower))
        rows.append((index[lender], index[borrower], amount, day)[:n_fields])
    # Codes and day ordinals are far below 2**53, so float64 holds them exactly.
    lender, borrower, amount, *day = np.array(rows, dtype=np.float64).reshape(-1, n_fields).T
    return lender.astype(np.int64), borrower.astype(np.int64), amount.copy(), *(
        column.astype(np.int64) for column in day)


def _blocks(handle: io.TextIOBase):
    """A text file in blocks of whole lines, each ended by its only
    newline. CRLF and lone CR become newlines, as ``open`` makes them."""
    rest = ""  # readline may stop at the CR of a CRLF: its LF joins that block
    while block := rest + handle.read(READ_BLOCK) + handle.readline():
        rest = handle.read(1) if block[-1] == "\r" else ""
        block, rest = (block + rest, "") if rest == "\n" else (block, rest)
        if "\r" in block:
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        yield block if block[-1] == "\n" else block + "\n"


def _columns(lines, source: str, note, keep, ordinal: Optional[_Ordinals] = None,
             start: Optional[dt.date] = None, end: Optional[dt.date] = None) -> tuple[str, ...]:
    """Parse a text file by the blocks of :func:`_blocks`, each as columns
    by :func:`_plain_chunk` or else one line at a time by :func:`_by_line`;
    any other iterable of lines goes to :func:`_by_line` whole. Calls
    ``keep`` with each parsed piece's lender, borrower, amount and, for
    trades, day columns of its rows dated inside [start, end] (a bound of
    None is open), so a block's other rows are dropped before the next
    block is read. Returns the ids in first-appearance order over every
    row. Rows of which the window keeps none raise InputError.
    """
    index = _Index()
    low, high = (start or dt.date.min).toordinal(), (end or dt.date.max).toordinal()
    kept = 0

    def window(piece):
        nonlocal kept
        if start is not None or end is not None:
            rows = np.flatnonzero((piece[3] >= low) & (piece[3] <= high))
            piece = tuple(column.take(rows) for column in piece)  # twice as fast as masks
        kept += len(piece[0])
        keep(piece)

    if isinstance(lines, io.TextIOBase):
        lineno = 1
        for text in _blocks(lines):
            count = text.count("\n")
            window(_plain_chunk(text, count, lineno, index, note, ordinal) or _by_line(
                text.split("\n")[:-1], lineno, source, index, note, ordinal))
            lineno += count
    else:
        window(_by_line(lines, 1, source, index, note, ordinal))
    if index and not kept:  # every parsed row names two ids, and only a window drops rows
        raise InputError("no transactions fall inside the requested window")
    return tuple(index)


def _joined(pieces: list) -> list[np.ndarray]:
    """Join a list of column tuples into read-only columns, emptying the
    list so that each column's pieces are freed before the next is joined."""
    columns, arrays = list(zip(*pieces)), []
    pieces.clear()
    while columns:
        arrays.append(np.concatenate(columns.pop(0)))
        arrays[-1].flags.writeable = False
    return arrays


def _parse_trades(lines, source_name: str, keep, start: Optional[dt.date],
                  end: Optional[dt.date]) -> tuple[str, ...]:
    """Parse trade lines by :func:`_columns`, warning of each blank line."""

    def note(lineno: int, line: str) -> None:
        if not line:
            logger.warning("%s:%d: blank line skipped", source_name, lineno)

    return _columns(lines, source_name, note, keep, _Ordinals(), start, end)


def ingest_transactions(lines: Iterable[str], source_name: str = "<stream>",
                        start: Optional[dt.date] = None, end: Optional[dt.date] = None) -> Trades:
    """Parse a comma-separated transaction stream into a :class:`Trades`
    table of the trades dated inside [start, end] (a bound of None is open).

    Format per line: ``lender_id,borrower_id,amount,YYYY-MM-DD``.
    Comment lines (leading ``#``) are ignored; blank lines are skipped
    with a warning. :func:`_columns` parses and checks every line, also
    one outside the window, and any malformed line aborts with an error
    naming its line number. Trades none of which are in the window raise
    InputError; no trade at all gives an empty table.
    """
    pieces = [_NO_PIECE]
    trades = Trades(_parse_trades(lines, source_name, pieces.append, start, end), *_joined(pieces))
    logger.info("%s: ingested %d records", source_name, len(trades))
    return trades


def _parse_file(path, parse):
    """Run ``parse(handle, source)`` over a UTF-8 text file.

    Bytes that do not decode are kept as lone surrogates, which the
    parser rejects with their line number; ``OSError`` becomes InputError.
    """
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            return parse(handle, str(path))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def ingest_file(path, start: Optional[dt.date] = None, end: Optional[dt.date] = None) -> Trades:
    """Read a transaction edge-list file by :func:`ingest_transactions`."""
    return _parse_file(path, lambda handle, source: ingest_transactions(handle, source, start, end))


def aggregate_file(path, start: Optional[dt.date] = None,
                   end: Optional[dt.date] = None) -> FinancialNetwork:
    """``aggregate_window(ingest_file(path, start, end))``, the same bits,
    without the trade table: each block's kept trades go to the pair totals."""
    pairs = _PairTotals()
    return pairs.network(_parse_file(path, lambda handle, source: _parse_trades(
        handle, source, pairs.add, start, end)))


def aggregate_window(trades: Trades) -> FinancialNetwork:
    """Sum trade volumes per (lender, borrower) pair over a table whose
    date window, if any, :func:`ingest_file` applied while parsing.

    Node index order is first-appearance order over the trades (lender
    before borrower), which makes aggregation deterministic and
    permutation of volumes within a pair irrelevant; ids that only
    trades outside the window named are left out. Each pair is summed
    one trade at a time in row order, by :class:`_PairTotals`.
    """
    pairs = _PairTotals()
    for k in range(0, len(trades), FOLD_ROWS):
        pairs.fold(*(column[k : k + FOLD_ROWS]
                     for column in (trades.lender, trades.borrower, trades.amount)))
    return pairs.network(trades.names)


def node_strengths(net: FinancialNetwork) -> NodeStrengths:
    """Out/in strengths (total lent/borrowed) per node.

    Each strength is summed one loan at a time in the network's canonical
    (lender, borrower) order, so its bits do not depend on input order.
    """
    n = net.n_nodes
    return NodeStrengths(np.bincount(net.lender, weights=net.amount, minlength=n),
                         np.bincount(net.borrower, weights=net.amount, minlength=n))


def validate_network(net: FinancialNetwork) -> tuple[str, ...]:
    """Warnings about a valid network: one per isolated node, which has
    no loan and so no balance sheet."""
    touched = np.zeros(net.n_nodes, dtype=bool)
    touched[net.lender] = True
    touched[net.borrower] = True
    return tuple(f"isolated node {net.nodes[idx]!r}" for idx in np.flatnonzero(~touched).tolist())


def write_snapshot(net: FinancialNetwork, path) -> None:
    """Write a network snapshot (exact float round-trip), WRITE_PIECE loans at a time."""
    nodes = net.nodes
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# nodes={net.n_nodes} edges={net.n_edges}\n")
        handle.write("".join(f"# node {node}\n" for node in nodes))
        columns = (net.lender, net.borrower, net.amount)
        for k in range(0, net.n_edges, WRITE_PIECE):
            loans = zip(*(column[k : k + WRITE_PIECE].tolist() for column in columns))
            handle.write("".join(f"{nodes[i]},{nodes[j]},{a!r}\n" for i, j, a in loans))


def _snapshot_from_lines(lines: Iterable[str], source: str) -> FinancialNetwork:
    """Parse and check snapshot lines; see :func:`read_snapshot`."""
    declared: dict[str, None] = {}
    headers = []

    def note(lineno: int, line: str) -> None:
        if line.startswith("# node "):
            node = line[len("# node ") :]
            if node in declared:
                raise InputError(f"{source}:{lineno}: duplicate node {node!r}")
            declared[node] = None
        elif line.startswith("# nodes="):
            headers.append((lineno, line))

    pieces = [_NO_PIECE[:3]]
    ids = _columns(lines, source, note, pieces.append)
    lender, borrower, amount = _joined(pieces)
    position = {node: k for k, node in enumerate(dict.fromkeys([*declared, *ids]))}
    remap = np.array([position[name] for name in ids], dtype=np.int64)
    lender, borrower = np.take(remap, lender), np.take(remap, borrower)
    lender.flags.writeable = borrower.flags.writeable = False  # the constructor keeps them
    net = FinancialNetwork(tuple(position), lender, borrower, amount)
    expected = f"# nodes={len(position)} edges={amount.size}"
    if headers and headers[-1][1] != expected:
        raise InputError(
            f"{source}:{headers[-1][0]}: header {headers[-1][1]!r} disagrees with the body "
            f"({expected[2:]})"
        )
    return net


def read_snapshot(path) -> FinancialNetwork:
    """Read a snapshot written by :func:`write_snapshot`.

    Every loan amount must be finite and positive, no loan may join a
    node to itself or name an empty node id, no node or (lender,
    borrower) pair may appear twice, and a ``# nodes=N edges=E`` header
    must match the body. Violations raise an error naming the line.
    The file is read once by :func:`_columns`, like trades but with no
    day column, and loans written in canonical order are not sorted. Only
    after a fault is it read again, as a generator of its lines, one line
    at a time, which names the earliest.
    """
    try:
        return _parse_file(path, _snapshot_from_lines)
    except InputError:
        return _parse_file(path, lambda handle, source: _snapshot_from_lines(
            (line for line in handle), source))


def is_snapshot_file(path) -> bool:
    """True when the file starts with a snapshot header line."""
    return _parse_file(path, lambda handle, source: handle.read(8) == "# nodes=")
