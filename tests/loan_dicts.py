"""Networks to and from loan dicts {(lender index, borrower index): amount},
the form that ``oracle.py`` and hand-written fixtures use."""
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
