import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ibrisk import (
    FinancialNetwork,
    InputError,
    aggregate_window,
    ingest_transactions,
    node_strengths,
    read_snapshot,
    validate_network,
    write_snapshot,
)
from ibrisk import cli, network
from ibrisk.experiments import SyntheticSpec, generate_synthetic

from loan_dicts import loans_of, network as network_of

D = dt.date(2000, 4, 3)

T3_LINES = [
    "# canonical 3-node fixture",
    "2,1,8.0,2000-04-03",
    "3,2,6.0,2000-04-03",
]


def test_ingest_basic():
    trades = ingest_transactions(["B1,B2,8.0,2000-04-03"])
    assert trades.names == ("B1", "B2")
    assert trades.lender.tolist() == [0]
    assert trades.borrower.tolist() == [1]
    assert trades.amount.tolist() == [8.0]
    assert trades.day.tolist() == [D.toordinal()]


def test_ingest_rejects_self_loop():
    with pytest.raises(InputError, match=":1.*self-loop"):
        ingest_transactions(["B1,B1,5.0,2000-04-03"])


def test_ingest_rejects_nonpositive_amount():
    with pytest.raises(InputError, match="positive"):
        ingest_transactions(["B1,B2,-3.0,2000-04-03"])
    with pytest.raises(InputError, match="positive"):
        ingest_transactions(["B1,B2,0,2000-04-03"])


def test_ingest_malformed_line_names_line_number():
    with pytest.raises(InputError, match=":2"):
        ingest_transactions(["B1,B2,8.0,2000-04-03", "garbage"])


def test_ingest_list_element_holding_a_newline_is_one_line():
    # Joined naively, this element would read as two trades.
    with pytest.raises(InputError) as info:
        ingest_transactions(["a,b,1,2020-01-01\nc,d,2,2020-01-02"])
    assert str(info.value) == "<stream>:1: expected 4 fields, got 7"


def test_ingest_skips_blank_lines_with_warning(caplog):
    lines = ["B1,B2,8.0,2000-04-03", "", "B2,B3,5.0,2000-04-03"]
    with caplog.at_level("WARNING"):
        records = ingest_transactions(lines)
    assert len(records) == 2
    assert any("blank" in message for message in caplog.messages)


def test_aggregate_sums_duplicate_pairs():
    trades = ingest_transactions(["B1,B2,3.0,2000-04-03", "B1,B2,5.0,2000-04-03"])
    net = aggregate_window(trades)
    assert loans_of(net) == {(0, 1): 8.0}


# Trades documents int64 codes, but a table built by hand may hold narrower
# ones: they must not wrap when shifted into a pair key.
def test_aggregate_window_of_int32_codes():
    trades = ingest_transactions(["a,b,1.0,2000-04-03", "b,c,2.0,2000-04-03", "a,c,3.0,2000-04-03"])
    narrow = network.Trades(trades.names, *(column.astype(np.int32)
                                            for column in (trades.lender, trades.borrower)),
                            trades.amount, trades.day)
    assert aggregate_window(narrow) == aggregate_window(trades)
    assert loans_of(aggregate_window(narrow)) == {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 3.0}


def test_aggregate_window_filters_dates():
    trades = ingest_transactions(["B1,B2,3.0,2000-04-01", "B1,B2,5.0,2000-05-01"],
                                 end=dt.date(2000, 4, 30))
    net = aggregate_window(trades)
    assert loans_of(net) == {(0, 1): 3.0}


def test_aggregate_empty_window_errors():
    with pytest.raises(InputError, match="window"):
        ingest_transactions(["B1,B2,3.0,2000-04-03"], start=dt.date(2001, 1, 1))


# Two trades of 1e308 sum past float64: the pair total is inf, which the
# constructor rejects, with no overflow warning first, window or not.
@pytest.mark.parametrize("start", [None, dt.date(2020, 1, 2)])
@pytest.mark.parametrize("aggregate", [
    network.aggregate_file,
    lambda path, start: aggregate_window(network.ingest_file(path, start)),
], ids=["aggregate_file", "aggregate_window"])
def test_overflowing_pair_total_is_an_input_error(tmp_path, aggregate, start):
    path = tmp_path / "trades.csv"
    path.write_text("a,b,1e308,2020-01-02\na,b,1e308,2020-01-03\nb,a,1.0,2020-01-02\n")
    with pytest.raises(InputError, match=r"^loan 'a'->'b': amount must be finite and strictly "
                                         r"positive, got inf$"):
        aggregate(path, start)


def test_aggregate_t3_fixture_file(t3):
    trades = ingest_transactions(T3_LINES)
    net = aggregate_window(trades)
    assert net.nodes == ("2", "1", "3")  # first-appearance order
    # Same loans up to the node relabeling: 2 lent 8 to 1, 3 lent 6 to 2.
    amounts = {
        (net.nodes[i], net.nodes[j]): a for (i, j), a in loans_of(net).items()
    }
    assert amounts == {("2", "1"): 8.0, ("3", "2"): 6.0}


def test_strengths_t3(t3):
    s = node_strengths(t3)
    assert s.out_strength.tolist() == [0.0, 8.0, 6.0]
    assert s.in_strength.tolist() == [8.0, 6.0, 0.0]


def test_strengths_single_edge():
    net = network_of(("1", "2"), {(0, 1): 5.0})
    s = node_strengths(net)
    assert s.out_strength.tolist() == [5.0, 0.0]
    assert s.in_strength.tolist() == [0.0, 5.0]


def test_strengths_empty_network():
    net = FinancialNetwork(("a", "b"))
    s = node_strengths(net)
    assert s.out_strength.tolist() == [0.0, 0.0]
    assert s.in_strength.tolist() == [0.0, 0.0]


def test_validate_t3_clean(t3):
    assert validate_network(t3) == ()


def test_validate_warns_on_isolated_node():
    net = network_of(("a", "b", "c"), {(0, 1): 1.0})
    assert validate_network(net) == ("isolated node 'c'",)


@pytest.mark.parametrize(
    "lender, borrower, amount, message",
    [
        pytest.param([0, 1], [1, 2], [1.0], "one length", id="length-mismatch"),
        pytest.param([[0]], [[1]], [[1.0]], "1-D", id="not-1d"),
        pytest.param([0], [3], [1.0], r"0->3 has a node index outside \[0, 3\)", id="big-index"),
        pytest.param([-1], [0], [1.0], "outside", id="negative-index"),
        pytest.param([0.0], [1.0], [1.0], "integers", id="float-index"),
        pytest.param([1, 0], [2, 0], [1.0, 1.0], "self-loop on node 'a'", id="self-loop"),
        pytest.param([0], [1], [0.0], "'a'->'b': amount must be finite and strictly positive, got 0.0",
                     id="zero"),
        pytest.param([0], [1], [-3.0], "strictly positive, got -3.0", id="negative"),
        pytest.param([0], [1], [math.nan], "strictly positive, got nan", id="nan"),
        pytest.param([0], [1], [math.inf], "strictly positive, got inf", id="inf"),
        # Two bad amounts: the first in (lender, borrower) order is named, so
        # an aggregated network's overflowing pair does not hang on parse order.
        pytest.param([1, 0], [0, 1], [math.inf, math.nan], "'a'->'b': .* got nan",
                     id="two-bad-amounts"),
        pytest.param([2, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0], "duplicate loan 'a'->'b'", id="duplicate"),
        # Two repeated pairs: the first in (lender, borrower) order is named.
        pytest.param([1, 1, 0, 0], [0, 0, 2, 2], [1.0, 2.0, 3.0, 4.0], "duplicate loan 'a'->'c'",
                     id="two-duplicates"),
    ],
)
def test_constructor_rejects_invalid_loans(lender, borrower, amount, message):
    with pytest.raises(InputError, match=message):
        FinancialNetwork(("a", "b", "c"), lender, borrower, amount)


def test_constructor_sorts_and_freezes_loans():
    lender, borrower, amount = np.array([2, 0, 0]), np.array([0, 2, 1]), np.array([1.0, 2.0, 3.0])
    net = FinancialNetwork(("a", "b", "c"), lender, borrower, amount)
    assert net.lender.tolist() == [0, 0, 2]
    assert net.borrower.tolist() == [1, 2, 0]
    assert net.amount.tolist() == [3.0, 2.0, 1.0]
    assert net.lender.dtype == net.borrower.dtype == np.int64
    assert not any(a.flags.writeable for a in (net.lender, net.borrower, net.amount))
    assert lender.flags.writeable and lender.tolist() == [2, 0, 0]  # the inputs are untouched
    assert net == network_of(("a", "b", "c"), {(0, 2): 2.0, (2, 0): 1.0, (0, 1): 3.0})
    assert net != FinancialNetwork(("a", "b", "c"), lender, borrower, amount * 2)
    assert net != FinancialNetwork(("a", "c", "b"), lender, borrower, amount)


def test_equality_with_another_type_and_nonpositive_scale(t3):
    assert t3.__eq__(object()) is NotImplemented
    assert (t3 == object()) is False
    for gamma in (0, math.nan):
        with pytest.raises(InputError, match="^scale factor must be positive$"):
            t3.scaled(gamma)
    # A factor that overflows an amount leaves the constructor to reject it.
    with pytest.raises(InputError, match="^loan '2'->'1': amount must be finite"):
        t3.scaled(1e308)


class Column(np.ndarray):
    """An ndarray subclass, which ``np.asarray`` turns into a view."""


# The constructor skips the sort of loans already in canonical order and
# converts int64 indices without a copy, yet it must neither freeze nor
# alias an array of the caller's that no sort or conversion replaced.
@pytest.mark.parametrize(
    "lender, borrower, dtype, kind",
    [
        pytest.param([0, 0, 2], [1, 2, 0], np.int64, np.ndarray, id="sorted-int64"),
        pytest.param([2, 0, 0], [0, 2, 1], np.int64, np.ndarray, id="unsorted-int64"),
        pytest.param([0, 0, 2], [1, 2, 0], np.int32, np.ndarray, id="sorted-int32"),
        pytest.param([0, 0, 2], [1, 2, 0], np.int64, Column, id="sorted-int64-subclass"),
    ],
)
def test_constructor_neither_freezes_nor_aliases_callers_arrays(lender, borrower, dtype, kind):
    lender, borrower = (np.array(column, dtype=dtype).view(kind) for column in (lender, borrower))
    amount = np.array([3.0, 2.0, 1.0]).view(kind)
    net = FinancialNetwork(("a", "b", "c"), lender, borrower, amount)
    before = FinancialNetwork(("a", "b", "c"), lender.copy(), borrower.copy(), amount.copy())
    assert all(array.flags.writeable for array in (lender, borrower, amount))
    lender[:], borrower[:], amount[:] = 1, 0, 9.0
    assert net == before


@given(
    st.permutations(
        [
            "B1,B2,3.0,2000-04-03",
            "B2,B3,4.0,2000-04-03",
            "B1,B2,5.0,2000-04-03",
            "B3,B1,2.0,2000-04-03",
        ]
    )
)
def test_aggregation_volume_is_permutation_invariant(lines):
    net = aggregate_window(ingest_transactions(lines))
    amounts = {
        (net.nodes[i], net.nodes[j]): a for (i, j), a in loans_of(net).items()
    }
    assert amounts == {("B1", "B2"): 8.0, ("B2", "B3"): 4.0, ("B3", "B1"): 2.0}


def test_total_lent_equals_total_borrowed(t3):
    s = node_strengths(t3)
    assert np.sum(s.out_strength) == pytest.approx(np.sum(s.in_strength), abs=0)


def test_snapshot_round_trip(tmp_path, t3):
    path = tmp_path / "net.csv"
    write_snapshot(t3, path)
    again = read_snapshot(path)
    assert again == t3
    # Byte-stable: writing the reread network reproduces the file.
    path2 = tmp_path / "net2.csv"
    write_snapshot(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_round_trip_preserves_isolated_nodes(tmp_path):
    net = network_of(("a", "b", "c"), {(0, 1): 1.25})
    path = tmp_path / "net.csv"
    write_snapshot(net, path)
    assert read_snapshot(path) == net


def is_utf8(text):
    """False for text holding lone surrogates: bytes of a file that did not decode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def per_record_ingest(lines, start, end):
    """Reference for ingest_transactions + aggregate_window: parse,
    check and sum one line at a time.

    Returns the blank-line warnings and either the ``InputError``
    message or the network's (nodes, loans).
    """
    warnings, records = [], []
    for lineno, raw in enumerate(lines, start=1):
        where = f"<stream>:{lineno}"
        line = raw.strip()
        if not is_utf8(line):
            return warnings, f"{where}: not valid UTF-8 text"
        if not line:
            warnings.append(f"<stream>:{lineno}: blank line skipped")
            continue
        if line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            return warnings, f"{where}: expected 4 fields, got {len(parts)}"
        lender, borrower, amount_text, date_text = parts
        if not lender or not borrower:
            return warnings, f"{where}: empty node id"
        try:
            amount = float(amount_text)
        except ValueError:
            return warnings, f"{where}: unparseable amount {amount_text!r}"
        if not math.isfinite(amount) or amount <= 0:
            return warnings, f"{where}: amount must be strictly positive, got {amount_text}"
        if lender == borrower:
            return warnings, f"{where}: self-loop on node {lender!r} rejected"
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            return warnings, f"{where}: unparseable date {date_text!r}"
        records.append((lender, borrower, amount, date))
    if not records:
        return warnings, "the input holds no trades"
    selected = [
        r for r in records if (start is None or r[3] >= start) and (end is None or r[3] <= end)
    ]
    if not selected:
        return warnings, "no transactions fall inside the requested window"
    index = {}
    for lender, borrower, _, _ in selected:
        for node in (lender, borrower):
            index.setdefault(node, len(index))
    loans = {}
    for lender, borrower, amount, _ in selected:
        key = (index[lender], index[borrower])
        loans[key] = loans.get(key, 0.0) + amount
    return warnings, (tuple(index), loans)


PADDING = st.sampled_from(["", " ", "\t", "  "])
BAD_TRADES = [
    "A,B,1.0",  # field count
    "A,B,1.0,2020-01-01,x",
    ",B,1,2020-01-01",  # empty id
    "A, ,1,2020-01-01",
    "A,B,zz,2020-01-01",  # amounts
    "A,B,nan,2020-01-01",
    "A,B,0,2020-01-01",
    "A,B,-1,2020-01-01",
    "C,C,1,2020-01-01",  # self-loop
    "A,B,1,2020-13-01",  # date
    ",,zz,2020-13-01",  # several faults on one line: the first check wins
    "C,C,-1,2020-13-01",
    "C,C,2,nope",
]


@st.composite
def trade_line(draw):
    lender, borrower = draw(st.lists(st.sampled_from("ABCD"), min_size=2, max_size=2, unique=True))
    amount = draw(
        st.sampled_from(["0.1", "0.2", "0.3", "1", "2.5", "1e-3"]) | st.floats(0.01, 1e6).map(repr)
    )
    date = draw(st.sampled_from(["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-05"]))
    fields = [draw(PADDING) + text + draw(PADDING) for text in (lender, borrower, amount, date)]
    return ",".join(fields) + draw(st.sampled_from(["", "\n"]))


# List elements that hold a newline before their end are one line each.
INNER_NEWLINES = ["A,B,1,2020-01-01\nC,D,2,2020-01-02", "A,B,1\n,2020-01-01", "\n\n"]


@st.composite
def trade_streams(draw):
    skipped = st.sampled_from(["", "  ", "\n", "# note", " # a,b"])
    lines = draw(st.lists(trade_line() | skipped | st.sampled_from(INNER_NEWLINES), max_size=14))
    for bad in draw(st.lists(st.sampled_from(BAD_TRADES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    lines=trade_streams(),
    start=st.sampled_from([None, dt.date(2020, 1, 2), dt.date(2020, 1, 3)]),
    end=st.sampled_from([None, dt.date(2020, 1, 2), dt.date(2020, 1, 4)]),
)
@example(  # D trades only outside the window: its code is absent from it
    lines=["D,A,1,2020-01-01", "A,B,2,2020-01-03", "B,C,3,2020-01-02", "C,D,4,2020-01-05"],
    start=dt.date(2020, 1, 2), end=dt.date(2020, 1, 4),
)
@example(  # one pair with many trades, whose sum depends on their order
    lines=["B,A,0.1,2020-01-02", "B,A,0.2,2020-01-03", "C,D,1e-3,2020-01-02"]
    + [f"B,A,{x},2020-01-0{d}" for x in ("0.3", "1e-3", "2.5", "0.1") for d in (2, 3, 5)],
    start=None, end=dt.date(2020, 1, 4),
)
@example(  # a window that keeps a single trade
    lines=["A,B,1,2020-01-01", "C,D,0.2,2020-01-02", "A,C,3,2020-01-03", "B,A,4,2020-01-05"],
    start=dt.date(2020, 1, 2), end=dt.date(2020, 1, 2),
)
@example(  # a malformed line dated outside the window still names its line
    lines=["A,B,1,2020-01-03", "", "C,D,zz,2020-01-01", "B,C,2,2020-01-03"],
    start=dt.date(2020, 1, 2), end=None,
)
@example(  # a window that keeps no trade, after a blank-line warning
    lines=["A,B,1,2020-01-01", "", "C,D,2,2020-01-05"],
    start=dt.date(2020, 1, 2), end=dt.date(2020, 1, 4),
)
def test_ingest_aggregate_matches_per_record_loop(lines, start, end, caplog):
    """Aggregating a table ingested with the window gives the per-record
    loop's outcome."""
    expected_warnings, expected = per_record_ingest(lines, start, end)
    caplog.clear()
    with caplog.at_level("WARNING", logger="ibrisk.network"):
        try:
            got = aggregate_window(ingest_transactions(lines, start=start, end=end))
        except InputError as exc:
            got = str(exc)
    assert caplog.messages == expected_warnings
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got == network_of(*expected)  # same nodes, pairs and amount bits
    if not isinstance(expected, str):  # names cover every parsed row, in the window or not
        names = ingest_transactions(lines).names
        assert ingest_transactions(lines, start=start, end=end).names == names


SNAPSHOT_LINES = [
    "# nodes=3 edges=2", "# nodes=2 edges=1", "# node a", "# node b", "# node c", "",
    "# other", "a,b,1.5", "b,c,0.25", "c,a,2", "b, a ,1e-3", "c,b,4",
]
BAD_LOANS = ["a,a,1", "a,,1", "a,b", "a,b,nan", "a,b,zz", "d,e,0"]


# Reading in blocks of 1-64 characters must give the network or the error
# of a read in one block, also for repeats that fall in different blocks.
@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(st.sampled_from(SNAPSHOT_LINES), max_size=10),
    bad=st.lists(st.tuples(st.integers(0, 10), st.sampled_from(BAD_LOANS)), max_size=1),
    block=st.integers(1, 64),
)
def test_snapshot_read_independent_of_chunking(tmp_path_factory, lines, bad, block):
    for position, line in bad:
        lines.insert(position, line)
    path = tmp_path_factory.getbasetemp() / "chunked-snapshot.csv"
    path.write_text("".join(line + "\n" for line in lines))

    def read():
        try:
            return read_snapshot(path)
        except InputError as exc:
            return str(exc)

    whole = read()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "READ_BLOCK", block)
        assert read() == whole


def per_record_snapshot(lines, source):
    """Reference for read_snapshot: parse and check one line at a time.

    Returns the ``InputError`` message or the network's (nodes, loans).
    """
    declared, ids, loans, header = {}, {}, {}, None
    for lineno, raw in enumerate(lines, start=1):
        where = f"{source}:{lineno}"
        line = raw.strip()
        if not is_utf8(line):
            return f"{where}: not valid UTF-8 text"
        if line.startswith("# node "):
            node = line[len("# node ") :]
            if node in declared:
                return f"{where}: duplicate node {node!r}"
            declared[node] = None
        elif line.startswith("# nodes="):
            header = (lineno, line)
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            return f"{where}: expected 3 fields, got {len(parts)}"
        lender, borrower, amount_text = parts
        if not lender or not borrower:
            return f"{where}: empty node id"
        try:
            amount = float(amount_text)
        except ValueError:
            return f"{where}: unparseable amount {amount_text!r}"
        if not math.isfinite(amount) or amount <= 0:
            return f"{where}: amount must be strictly positive, got {amount_text}"
        if lender == borrower:
            return f"{where}: self-loop on node {lender!r} rejected"
        if (lender, borrower) in loans:
            return f"{where}: duplicate loan {lender!r}->{borrower!r}"
        ids.update(dict.fromkeys((lender, borrower)))
        loans[lender, borrower] = amount
    nodes = [*declared, *(node for node in ids if node not in declared)]
    counts = f"nodes={len(nodes)} edges={len(loans)}"
    if header is not None and header[1] != "# " + counts:
        return f"{source}:{header[0]}: header {header[1]!r} disagrees with the body ({counts})"
    position = {node: k for k, node in enumerate(nodes)}
    return nodes, {(position[a], position[b]): amount for (a, b), amount in loans.items()}


# Byte strings put at a field edge: a BOM, CR, NUL, a byte that is not
# UTF-8, U+00A0 (whitespace to str.strip), tab and space.
EDGE_BYTES = [b"\xef\xbb\xbf", b"\r", b"\x00", b"\xff", b"\xc2\xa0", b"\t", b" "]
MUTATIONS = ["hash", "underscore", "edge", "duplicate", "blank", "no-newline"]
LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def mutated(draw, lines):
    """The byte lines of a file with up to four mutations: a '#' inside a
    line, '_' in an amount, EDGE_BYTES at a field edge, a duplicated or a
    blank line, or no newline at the end; each newline then becomes LF,
    CRLF or a lone CR."""
    lines = list(lines) or [b"\n"]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        if kind == "hash":
            at = draw(st.integers(0, len(line.rstrip(b"\n"))))
            lines[k] = line[:at] + b"#" + line[at:]
        elif kind == "underscore" and line.count(b",") >= 2:
            at = line.index(b",", line.index(b",") + 1) + 2  # after the amount's first byte
            lines[k] = line[:at] + b"_" + line[at:]
        elif kind == "edge":
            at = draw(st.sampled_from(
                [0, len(line.rstrip(b"\n"))]
                + [i + side for i, byte in enumerate(line) if byte == ord(",") for side in (0, 1)]
            ))
            lines[k] = line[:at] + draw(st.sampled_from(EDGE_BYTES)) + line[at:]
        elif kind == "duplicate":
            lines.insert(k, line)
        elif kind == "blank":
            lines.insert(k, draw(st.sampled_from([b"\n", b" \n"])))
        elif kind == "no-newline":
            lines[-1] = lines[-1].rstrip(b"\n")
    return [line[:-1] + draw(LINE_ENDS) if line[-1:] == b"\n" else line for line in lines]


NODE_IDS = ["A", "B", "n164", "é", "Ωx"]  # ASCII and non-ASCII ids
AMOUNTS = st.sampled_from(["10.5", "88.93", "3", "1e-3", "0.25"]) | st.floats(0.01, 1e6).map(repr)


@st.composite
def trade_file(draw):
    """A trades file in perfbench's shape, now and then with a bad id, amount or date."""
    lines = [b"# lender,borrower,amount,date\n"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 12))):
        lender, borrower = draw(st.permutations(NODE_IDS))[:2]
        amount = draw(AMOUNTS)
        date = draw(st.sampled_from(["2020-01-01", "2020-01-02", "2021-06-30"]))
        if draw(st.integers(0, 9)) == 0:
            lender, amount, date = draw(st.sampled_from(
                [("", amount, date), (borrower, amount, date), (lender, "0", date),
                 (lender, "nan", date), (lender, "1e400", date), (lender, amount, "2020-02-30")]
            ))
        lines.append(f"{lender},{borrower},{amount},{date}\n".encode())
    return draw(mutated(lines))


@st.composite
def snapshot_file(draw):
    """A snapshot as write_snapshot writes it, header and node lines first."""
    declared = draw(st.lists(st.sampled_from(NODE_IDS), unique=True, max_size=4))
    pairs = draw(st.lists(st.permutations(NODE_IDS).map(lambda ids: tuple(ids[:2])),
                          unique=True, max_size=8))
    nodes = dict.fromkeys([*declared, *(node for pair in pairs for node in pair)])
    lines = [f"# nodes={len(nodes)} edges={len(pairs)}\n"]
    lines += [f"# node {node}\n" for node in declared]
    lines += [f"{a},{b},{draw(AMOUNTS)}\n" for a, b in pairs]
    return draw(mutated([line.encode() for line in lines]))


def read_lines(path):
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return list(handle)


def outcome(parse, *args):
    try:
        return parse(*args)
    except InputError as exc:
        return str(exc)


def trade_bits(trades):
    if isinstance(trades, str):
        return trades
    columns = (trades.lender, trades.borrower, trades.amount, trades.day)
    return trades.names, *(column.tobytes() for column in columns)


# Each block of a file is parsed as columns or, at any doubt, one line at a
# time by the same rules, and a list of lines by that loop alone; either way
# the outcome is the per-record loop's. Tiny blocks end reads inside lines,
# also between the CR and LF of a CRLF.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=trade_file(), block=st.sampled_from([1, 7, 64, network.READ_BLOCK]))
def test_mutated_trades_match_per_record_loop(tmp_path_factory, data, block, caplog):
    path = tmp_path_factory.getbasetemp() / "mutated-trades.csv"
    path.write_bytes(b"".join(data))
    lines = read_lines(path)
    expected_warnings, expected = per_record_ingest(lines, None, None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "READ_BLOCK", block)
        caplog.clear()
        with caplog.at_level("WARNING", logger="ibrisk.network"):
            trades = outcome(ingest_transactions, lines)
        assert caplog.messages == expected_warnings
        caplog.clear()
        with caplog.at_level("WARNING", logger="ibrisk.network"):
            from_file = outcome(network.ingest_file, path)
        assert caplog.messages == [
            warning.replace("<stream>", str(path), 1) for warning in expected_warnings
        ]
        # A handle that keeps CRLF and lone CR splits lines as ingest_file
        # does, also one whose readline stops at the CR of a CRLF.
        for newline in ("", "\r"):
            with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as handle:
                raw = outcome(ingest_transactions, handle, str(path))
            assert trade_bits(raw) == trade_bits(from_file)
        patch.setattr(network, "_plain_chunk", lambda *args: None)
        assert trade_bits(trades) == trade_bits(outcome(ingest_transactions, lines))
        assert trade_bits(from_file) == trade_bits(outcome(ingest_transactions, lines, str(path)))
    if isinstance(expected, str):  # a bad line, or no rows to aggregate
        got = trades if isinstance(trades, str) else outcome(aggregate_window, trades)
        assert got == expected
    else:
        assert trades.names == tuple(expected[0])
        assert aggregate_window(trades) == network_of(*expected)


@settings(max_examples=200, deadline=None)
@given(data=snapshot_file(), block=st.sampled_from([1, 7, 64, network.READ_BLOCK]))
def test_mutated_snapshots_match_per_record_loop(tmp_path_factory, data, block):
    path = tmp_path_factory.getbasetemp() / "mutated-snapshot.csv"
    path.write_bytes(b"".join(data))
    expected = per_record_snapshot(read_lines(path), str(path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "READ_BLOCK", block)
        got = outcome(read_snapshot, path)
    assert got == (expected if isinstance(expected, str) else network_of(*expected))


def test_plain_files_never_reach_the_per_line_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    lender = rng.integers(1000, size=3000)
    borrower = (lender + rng.integers(1, 1000, size=3000)) % 1000
    amount = rng.lognormal(3.0, 1.0, size=3000) + 0.01
    day = rng.integers(730, size=3000)
    trades = tmp_path / "trades.csv"
    with open(trades, "w", encoding="utf-8") as handle:  # perfbench's trades file
        handle.write("# lender,borrower,amount,date\n")
        handle.writelines(
            f"n{i:03d},n{j:03d},{a:.2f},{dt.date(2023, 1, 1) + dt.timedelta(days=int(d))}\n"
            for i, j, a, d in zip(lender, borrower, amount, day)
        )
    net = generate_synthetic(SyntheticSpec(n_nodes=150))
    snapshot = tmp_path / "network.csv"
    write_snapshot(net, snapshot)

    def by_line(*args, **kwargs):
        raise AssertionError("a block went to the per-line loop")

    monkeypatch.setattr(network, "_by_line", by_line)
    for block in (1000, network.READ_BLOCK):  # 1000: blocks of only '# node' lines too
        monkeypatch.setattr(network, "READ_BLOCK", block)
        assert len(network.ingest_file(trades)) == 3000
        assert read_snapshot(snapshot) == net


# Under newline="\r" every block but the last ends at the CR of a CRLF,
# whose LF the next read would see as a blank line.
def test_crlf_file_read_with_cr_newline_matches_ingest_file(tmp_path, caplog):
    lines = ["# lender,borrower,amount,date"] + [
        f"n{k % 97:02d},m{k % 89:02d},{k + 0.5},2023-01-{k % 28 + 1:02d}" for k in range(10_000)
    ]
    path = tmp_path / "trades.csv"
    for last in (lines[-1], "n01,m02,1.0"):  # a good last line, then a bad one
        path.write_bytes("\r\n".join([*lines[:-1], last, ""]).encode())
        assert path.read_bytes().count(b"\n") == 10_001
        expected = outcome(network.ingest_file, path)
        caplog.clear()
        with caplog.at_level("WARNING", logger="ibrisk.network"):
            with open(path, encoding="utf-8", newline="\r") as handle:
                got = outcome(ingest_transactions, handle, str(path))
        assert caplog.messages == []
        assert trade_bits(got) == trade_bits(expected)
    assert got.startswith(f"{path}:10001: ")


def test_irregular_snapshot_reads_other_chunks_as_columns(tmp_path, monkeypatch):
    net = generate_synthetic(SyntheticSpec(n_nodes=150))
    snapshot = tmp_path / "network.csv"
    write_snapshot(net, snapshot)
    with open(snapshot, "a", encoding="utf-8") as handle:
        handle.write("\n")  # a blank line: its block alone goes to the per-line loop
    calls = []
    by_line = network._by_line

    def counted(*args, **kwargs):
        calls.append(args[1])  # the first line number of the block
        return by_line(*args, **kwargs)

    monkeypatch.setattr(network, "_by_line", counted)
    monkeypatch.setattr(network, "READ_BLOCK", 1000)
    assert read_snapshot(snapshot) == net
    assert len(calls) == 1


# The library path builds the table of the window's trades: each block's
# other rows are dropped as it goes, and aggregate_window sums the table a
# fold at a time, with about four arrays of a fold's length beside it.
# Reading 40k trades (in 4k-character blocks, so that a block's per-field
# strings stay small) with a window that keeps half of them, and summing
# those, peaks at 1.10x the whole table's columns under tracemalloc
# (aggregate_file, which builds no table, peaks at 0.99x). Building the
# whole table and filtering it reads 1.47x; keeping every column's pieces
# until all are joined, or building interleaved or full-size unique
# temporaries on top, reads 2.47x.
def test_ingest_and_aggregate_peak_memory(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    pair = rng.choice(200 * 199, 2000, replace=False)[rng.integers(2000, size=40_000)]
    lender, borrower = np.divmod(pair, 199)
    borrower += borrower >= lender
    amount = rng.lognormal(3.0, 1.0, size=40_000).round(2) + 0.01
    dates = [(dt.date(2023, 1, 1) + dt.timedelta(days=d)).isoformat() for d in range(730)]
    day = rng.integers(730, size=40_000)
    lines = [f"n{i},n{j},{a!r},{dates[d]}\n"
             for i, j, a, d in zip(lender.tolist(), borrower.tolist(), amount.tolist(), day.tolist())]
    path, inside = tmp_path / "trades.csv", tmp_path / "window.csv"
    path.write_text("".join(lines))
    inside.write_text("".join(line for line in lines if "2023-07-02" <= line[-11:-1] <= "2024-06-30"))
    monkeypatch.setattr(network, "READ_BLOCK", 4096)
    trades = network.ingest_file(path)
    table = sum(column.nbytes for column in (trades.lender, trades.borrower, trades.amount, trades.day))
    assert len(trades) == 40_000
    del trades
    tracemalloc.start()
    try:
        net = aggregate_window(network.ingest_file(path, dt.date(2023, 7, 2), dt.date(2024, 6, 30)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net == aggregate_window(network.ingest_file(inside))
    assert net.n_edges == 2000
    assert peak < 1.2 * table


@pytest.fixture(scope="module")
def synth_1000():
    return generate_synthetic(SyntheticSpec(n_nodes=1000))  # 39,581 loans


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cli_network(path, start=None, end=None):
    """The network of the CLI's edge-list path, or its InputError message."""
    config = {"input": str(path), "rng_seed": 0, "window_start": start and start.isoformat(),
              "window_end": end and end.isoformat()}
    return outcome(cli.load_network, config)


# Trades over at most 8 nodes, so that pairs repeat across folds.
PAIR_TRADES = st.lists(st.tuples(
    st.permutations("ABCDEFGH").map(lambda ids: tuple(ids[:2])),
    st.sampled_from(["0.1", "0.2", "0.3", "1", "2.5", "1e-3"]) | st.floats(0.01, 1e6).map(repr),
    st.sampled_from(["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-05"]),
), max_size=30)


# The CLI sums trades into pair totals a fold at a time, never building
# the table, yet gives the bits of aggregating the table and of the
# per-record loop: also with tiny blocks and folds, where one pair's
# trades fall in many folds. A start after the end is an empty window.
@settings(max_examples=100, deadline=None)
@given(trades=PAIR_TRADES,
       start=st.sampled_from([None, dt.date(2020, 1, 2), dt.date(2020, 1, 4)]),
       end=st.sampled_from([None, dt.date(2020, 1, 1), dt.date(2020, 1, 3)]),
       block=st.sampled_from([1, 16, 64]), fold=st.sampled_from([1, 2, 3, 7]))
@example(  # A->B's first and last trades in different folds
    trades=[(("A", "B"), "0.1", "2020-01-01"), (("C", "D"), "1", "2020-01-02"),
            (("B", "C"), "2", "2020-01-03"), (("A", "B"), "0.2", "2020-01-05")],
    start=None, end=None, block=16, fold=2,
)
@example(  # a sum that depends on the order of its trades, within and across folds
    trades=[(("B", "A"), x, "2020-01-02") for x in ("0.1", "0.2", "0.3") * 2],
    start=None, end=None, block=64, fold=3,
)
@example(  # D first appears outside the window, after C inside it
    trades=[(("D", "A"), "1", "2020-01-01"), (("B", "C"), "0.3", "2020-01-02"),
            (("A", "D"), "2.5", "2020-01-03"), (("B", "C"), "0.1", "2020-01-02")],
    start=dt.date(2020, 1, 2), end=None, block=1, fold=1,
)
def test_cli_edge_list_path_matches_table_and_per_record_loop(tmp_path_factory, trades, start,
                                                              end, block, fold):
    lines = [f"{lender},{borrower},{amount},{date}\n" for (lender, borrower), amount, date in trades]
    path = tmp_path_factory.getbasetemp() / "pair-trades.csv"
    path.write_text("".join(lines))
    expected = per_record_ingest(lines, start, end)[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "READ_BLOCK", block)
        patch.setattr(network, "FOLD_ROWS", fold)
        got = cli_network(path, start, end)
        table = outcome(lambda: aggregate_window(ingest_transactions(lines, start=start, end=end)))
    assert got == table == (expected if isinstance(expected, str) else network_of(*expected))


# The CLI's edge-list path holds a fold of kept trades and the pair
# totals, never the trade table, so four times the trades over the same
# pairs peaks no higher under tracemalloc.
def test_cli_ingest_peak_does_not_grow_with_the_trades(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    pair = rng.choice(200 * 199, 2000, replace=False)
    lender, borrower = np.divmod(pair, 199)
    borrower += borrower >= lender
    lines = [f"n{i},n{j},{k % 97 + 0.5!r},2023-01-{k % 28 + 1:02d}\n"
             for k, (i, j) in enumerate(zip(lender.tolist() * 20, borrower.tolist() * 20))]
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    small.write_text("".join(lines[:10_000]))
    large.write_text("".join(lines))
    monkeypatch.setattr(network, "READ_BLOCK", 4096)
    monkeypatch.setattr(network, "FOLD_ROWS", 4096)
    net, peak = traced_peak(lambda: cli_network(small))
    assert net.n_edges == 2000
    net, large_peak = traced_peak(lambda: cli_network(large))
    assert net == aggregate_window(network.ingest_file(large))
    assert large_peak < 1.2 * peak


# write_snapshot formats and writes WRITE_PIECE loans at a time, so its
# peak does not grow with the number of loans: 0.63 MiB under tracemalloc
# for the 39,581 loans of synth N=1000 (0.50 MiB for the 38,759 of
# perfbench's ingest-300k network). Formatting every loan line into one
# string, as one join, peaked at 5.27 MiB (4.74 MiB).
def test_write_snapshot_peak_memory_is_bounded(tmp_path, synth_1000):
    path = tmp_path / "net.csv"
    _, peak = traced_peak(lambda: write_snapshot(synth_1000, path))
    assert peak < 1 << 20
    assert read_snapshot(path) == synth_1000


# read_snapshot of a file in canonical loan order makes no dtype copy, no
# sort and no day column: synth N=1000 peaks at 2.27x its loan columns'
# bytes under tracemalloc (2.06 MiB for 0.91 MiB; 27.9 MiB for 13.5 MiB
# at N=4000). With int64 copies, a sort of sorted loans, remaps the
# constructor copied and a zero day column per loan it read 4.28x (54.9
# MiB at N=4000).
def test_read_snapshot_peak_memory_is_bounded(tmp_path, synth_1000):
    path = tmp_path / "net.csv"
    write_snapshot(synth_1000, path)
    net, peak = traced_peak(lambda: read_snapshot(path))
    assert net == synth_1000
    assert peak < 3.0 * sum(array.nbytes for array in (net.lender, net.borrower, net.amount))


# With its loan lines shuffled the same file takes the constructor's
# argsort: 2.68x the loan columns under tracemalloc with the sort key freed
# before the gathers, 3.01x with it held until the constructor ends.
def test_read_shuffled_snapshot_peak_memory_is_bounded(tmp_path, synth_1000):
    path = tmp_path / "net.csv"
    write_snapshot(synth_1000, path)
    lines = path.read_text().splitlines(keepends=True)
    head, loans = lines[:synth_1000.n_nodes + 1], lines[synth_1000.n_nodes + 1:]
    order = np.random.default_rng(0).permutation(len(loans))
    path.write_text("".join(head + [loans[k] for k in order]))
    net, peak = traced_peak(lambda: read_snapshot(path))
    assert net == synth_1000
    assert peak < 2.85 * sum(array.nbytes for array in (net.lender, net.borrower, net.amount))
