import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from ibrisk import network

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


def test_aggregate_window_filters_dates():
    trades = ingest_transactions(["B1,B2,3.0,2000-04-01", "B1,B2,5.0,2000-05-01"])
    net = aggregate_window(trades, end=dt.date(2000, 4, 30))
    assert loans_of(net) == {(0, 1): 3.0}


def test_aggregate_empty_window_errors():
    trades = ingest_transactions(["B1,B2,3.0,2000-04-03"])
    with pytest.raises(InputError, match="window"):
        aggregate_window(trades, start=dt.date(2001, 1, 1))


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
    assert s.out_degree.tolist() == [0, 1, 1]
    assert s.in_degree.tolist() == [1, 1, 0]


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
        pytest.param([2, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0], "duplicate loan 'a'->'b'", id="duplicate"),
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


def per_record_ingest(lines, start, end):
    """Reference for ingest_transactions + aggregate_window: parse,
    check and sum one line at a time.

    Returns the blank-line warnings and either the ``InputError``
    message or the network's (nodes, loans).
    """
    warnings, records = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            warnings.append(f"<stream>:{lineno}: blank line skipped")
            continue
        if line.startswith("#"):
            continue
        where = f"<stream>:{lineno}"
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


@st.composite
def trade_streams(draw):
    skipped = st.sampled_from(["", "  ", "\n", "# note", " # a,b"])
    lines = draw(st.lists(trade_line() | skipped, max_size=14))
    for bad in draw(st.lists(st.sampled_from(BAD_TRADES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


# Tiny chunks put bad lines and blank lines on chunk boundaries.
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    lines=trade_streams(),
    start=st.sampled_from([None, dt.date(2020, 1, 2), dt.date(2020, 1, 3)]),
    end=st.sampled_from([None, dt.date(2020, 1, 2), dt.date(2020, 1, 4)]),
    chunk=st.sampled_from([1, 2, 3, network.PARSE_CHUNK]),
)
def test_ingest_aggregate_matches_per_record_loop(lines, start, end, chunk, caplog):
    expected_warnings, expected = per_record_ingest(lines, start, end)
    caplog.clear()
    with pytest.MonkeyPatch.context() as patch, caplog.at_level("WARNING", logger="ibrisk.network"):
        patch.setattr(network, "PARSE_CHUNK", chunk)
        try:
            net = aggregate_window(ingest_transactions(lines), start, end)
        except InputError as exc:
            got = str(exc)
        else:
            got = net
    assert caplog.messages == expected_warnings
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got == network_of(*expected)  # same nodes, pairs and amount bits


SNAPSHOT_LINES = [
    "# nodes=3 edges=2", "# nodes=2 edges=1", "# node a", "# node b", "# node c", "",
    "# other", "a,b,1.5", "b,c,0.25", "c,a,2", "b, a ,1e-3", "c,b,4",
]
BAD_LOANS = ["a,a,1", "a,,1", "a,b", "a,b,nan", "a,b,zz", "d,e,0"]


# Reading in chunks of 1-3 lines must give the network or the error of
# a read in one chunk, also for repeats that fall in different chunks.
@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(st.sampled_from(SNAPSHOT_LINES), max_size=10),
    bad=st.lists(st.tuples(st.integers(0, 10), st.sampled_from(BAD_LOANS)), max_size=1),
    chunk=st.integers(1, 3),
)
def test_snapshot_read_independent_of_chunking(tmp_path_factory, lines, bad, chunk):
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
        patch.setattr(network, "PARSE_CHUNK", chunk)
        assert read() == whole
