"""Weighted directed interbank lending networks.

Ingestion of transaction edge lists, aggregation over a date window,
strength/degree computation, validation, and snapshot file round-trips.
Loan amounts A[i, j] mean "node i lent this much to node j".
"""
from __future__ import annotations

import datetime as dt
import io
import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InputError

logger = logging.getLogger(__name__)


# A text file is parsed in blocks of READ_BLOCK characters and the rest of
# the last line; on 300k trades 64k peaked 3 MB below 16k and 9 MB below
# 256k, and ran fastest. Other iterables join PARSE_CHUNK lines a block.
READ_BLOCK = 65536
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


# A plain row has none of these bytes next to a comma or a line edge: the
# ASCII whitespace that str.strip removes, and any byte of a non-ASCII
# character, as some of those are whitespace too (U+00A0, U+3000).
_PADDING = np.zeros(256, dtype=bool)
_PADDING[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_PADDING[0x80:] = True
_NO_ROWS = np.empty(0, dtype=np.int64)


def _codes(table: dict, keys: list, new) -> np.ndarray:
    """The values of ``keys`` in ``table``, adding each missing key in turn,
    in the order of first appearance, as ``new(key)``."""
    try:
        return np.fromiter(map(table.__getitem__, keys), dtype=np.int64, count=len(keys))
    except KeyError:
        for key in dict.fromkeys(keys):
            if key not in table:
                table[key] = new(key)
        return _codes(table, keys, new)


def _plain_chunk(text: str, count: int, lineno: int, index: dict[str, int], note,
                 ordinal: Optional[dict] = None):
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
    codes = _codes(index, ids, lambda name: len(index))
    day = np.zeros(n, dtype=np.int64)
    try:
        amount = np.fromiter(map(float, fields[2::n_fields]), dtype=np.float64, count=n)
        if ordinal is not None:
            day = _codes(ordinal, fields[3::4], lambda iso: dt.date.fromisoformat(iso).toordinal())
    except ValueError:
        return None
    if "" in index or (codes[0::2] == codes[1::2]).any() or not (
        (amount > 0) & (amount < np.inf)
    ).all():
        return None
    for k, line in comments:
        note(lineno + k, line)
    return codes[0::2], codes[1::2], amount, day


def _by_line(lines: Iterable[str], lineno: int, source: str, index: dict[str, int], note,
             ordinal: Optional[dict] = None, seen: Optional[set] = None):
    """Parse lines one at a time by the rules that alone define parse
    errors; raise InputError naming the first line that breaks one.

    Rows are trades (four fields, the last a date) given ``ordinal``, else
    loans (three fields), whose pair may not be in ``seen`` when that is
    given. Calls ``note(line number, stripped line)`` for each blank or
    ``#`` line. Returns the lender and borrower codes into ``index``, the
    amounts and the day ordinals, which are zeros for loans.
    """
    n_fields, fields_error, amount_error = (
        (3, "expected 3 fields", "unparseable amount") if ordinal is None
        else (4, "expected 4 fields, got {}", "unparseable amount {!r}")
    )
    rows = []

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
            raise fault(fields_error.format(len(fields)))
        lender, borrower, text = fields[:3]
        if not (lender and borrower):
            raise fault("empty node id")
        try:
            amount = float(text)
        except ValueError:
            raise fault(amount_error.format(text)) from None
        if not 0 < amount < np.inf:
            raise fault(f"amount must be strictly positive, got {text}")
        if lender == borrower:
            raise fault(f"self-loop on node {lender!r} rejected")
        day = 0
        if ordinal is not None:
            try:
                day = dt.date.fromisoformat(fields[3]).toordinal()
            except ValueError:
                raise fault(f"unparseable date {fields[3]!r}") from None
        elif seen is not None:
            if (lender, borrower) in seen:
                raise fault(f"duplicate loan {lender!r}->{borrower!r}")
            seen.add((lender, borrower))
        code = index.setdefault(lender, len(index))
        rows.append((code, index.setdefault(borrower, len(index)), amount, day))
    # Codes and day ordinals are far below 2**53, so float64 holds them exactly.
    lender, borrower, amount, day = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    return lender.astype(np.int64), borrower.astype(np.int64), amount, day.astype(np.int64)


def _blocks(lines):
    """``lines``, a text file or any other iterable of lines, in blocks
    ``(text, chunk)`` of whole lines: ``text`` ends each by its only
    newline, or is None when a line of the list ``chunk`` holds another.
    A file's CRLF and lone CR become newlines, as ``open`` makes them."""
    if isinstance(lines, io.TextIOBase):
        rest = ""  # readline may stop at the CR of a CRLF: its LF joins that block
        while block := rest + lines.read(READ_BLOCK) + lines.readline():
            rest = lines.read(1) if block[-1] == "\r" else ""
            block, rest = (block + rest, "") if rest == "\n" else (block, rest)
            if "\r" in block:
                block = block.replace("\r\n", "\n").replace("\r", "\n")
            yield (block if block[-1] == "\n" else block + "\n"), None
        return
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, PARSE_CHUNK)):
        text = "\n".join([line.removesuffix("\n") for line in chunk]) + "\n"
        yield (text if text.count("\n") == len(chunk) else None), chunk


def _columns(lines, source: str, note, ordinal: Optional[dict] = None,
             seen: Optional[set] = None):
    """Parse the blocks of :func:`_blocks`, each with text as columns by
    :func:`_plain_chunk` unless ``seen`` is given, else one line at a time
    by :func:`_by_line`. Returns the ids in first-appearance order and the
    lender, borrower, amount and day columns of every row, read-only.
    """
    index: dict[str, int] = {}
    columns = [(_NO_ROWS, _NO_ROWS, np.empty(0), _NO_ROWS)]
    lineno = 1
    for text, chunk in _blocks(lines):
        count = len(chunk) if chunk else text.count("\n")
        parsed = seen is None and text and _plain_chunk(text, count, lineno, index, note, ordinal)
        columns.append(parsed or _by_line(
            chunk or text.split("\n")[:-1], lineno, source, index, note, ordinal, seen))
        lineno += count
    arrays = [np.concatenate(column) for column in zip(*columns)]
    for array in arrays:
        array.flags.writeable = False
    return tuple(index), *arrays


def ingest_transactions(lines: Iterable[str], source_name: str = "<stream>") -> Trades:
    """Parse a comma-separated transaction stream into a :class:`Trades` table.

    Format per line: ``lender_id,borrower_id,amount,YYYY-MM-DD``.
    Comment lines (leading ``#``) are ignored; blank lines are skipped
    with a warning. Any malformed line aborts with an error naming the
    line number. Lines are parsed by :func:`_columns`.
    """

    def note(lineno: int, line: str) -> None:
        if not line:
            logger.warning("%s:%d: blank line skipped", source_name, lineno)

    trades = Trades(*_columns(lines, source_name, note, ordinal={}))
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
    if not len(trades):
        raise InputError("the input holds no trades")
    keep = np.ones(len(trades), dtype=bool)
    if start is not None:
        keep &= trades.day >= start.toordinal()
    if end is not None:
        keep &= trades.day <= end.toordinal()
    lender, borrower, amount = trades.lender[keep], trades.borrower[keep], trades.amount[keep]
    if not amount.size:
        raise InputError("no transactions fall inside the requested window")
    ends = np.column_stack((lender, borrower)).ravel()
    first = np.full(len(trades.names), ends.size)
    np.minimum.at(first, ends, np.arange(ends.size))
    codes = np.argsort(first)  # absent codes keep first == ends.size, so they sort last
    position = np.argsort(codes)
    n = np.count_nonzero(first < ends.size)
    pairs, slot = np.unique(position[lender] * n + position[borrower], return_inverse=True)
    totals = np.bincount(slot, weights=amount, minlength=pairs.size)
    nodes = tuple(trades.names[c] for c in codes[:n].tolist())
    return FinancialNetwork(nodes, pairs // n, pairs % n, totals)


def node_strengths(net: FinancialNetwork) -> NodeStrengths:
    """Out/in strengths (total lent/borrowed) and degrees per node.

    Each strength is summed one loan at a time in the network's canonical
    (lender, borrower) order, so its bits do not depend on input order.
    """
    n = net.n_nodes
    out_s = np.bincount(net.lender, weights=net.amount, minlength=n)
    in_s = np.bincount(net.borrower, weights=net.amount, minlength=n)
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


def _snapshot_from_lines(lines: Iterable[str], source: str, seen=None) -> FinancialNetwork:
    """Parse and check snapshot lines; see :func:`read_snapshot`. Without
    ``seen``, the constructor finds a repeated pair."""
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

    ids, lender, borrower, amount, _ = _columns(lines, source, note, seen=seen)
    position = {node: k for k, node in enumerate(dict.fromkeys([*declared, *ids]))}
    remap = np.array([position[name] for name in ids], dtype=np.int64)
    net = FinancialNetwork(tuple(position), remap[lender], remap[borrower], amount)
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
    The file is read once by :func:`_columns`, like trades; only after a
    fault is it read again one line at a time, which names the earliest.
    """
    try:
        return _parse_file(path, _snapshot_from_lines)
    except InputError:
        return _parse_file(path, lambda lines, source: _snapshot_from_lines(lines, source, set()))


def is_snapshot_file(path) -> bool:
    """True when the file starts with a snapshot header line."""
    return _parse_file(path, lambda handle, source: handle.read(8) == "# nodes=")
