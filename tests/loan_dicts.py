"""Networks to and from loan dicts {(lender index, borrower index): amount},
the form that ``oracle.py`` and hand-written fixtures use, and a
hypothesis strategy of small random networks."""
from hypothesis import strategies as st

from ibrisk import FinancialNetwork


def network(nodes, loans):
    """The network with these nodes and loans."""
    return FinancialNetwork(
        tuple(nodes),
        [i for i, _ in loans],
        [j for _, j in loans],
        list(loans.values()),
    )


def loans_of(net):
    """The network's loans as a dict in (lender, borrower) order."""
    pairs = zip(net.lender.tolist(), net.borrower.tolist())
    return dict(zip(pairs, net.amount.tolist()))


@st.composite
def small_networks(draw, max_nodes=5, amounts=st.floats(0.5, 10.0)):
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    loans = {pair: draw(amounts) for pair in sorted(chosen)}
    return network(tuple(str(k) for k in range(n)), loans)
