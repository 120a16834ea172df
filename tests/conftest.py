import pytest

from loan_dicts import network

# Canonical 3-node fixture: node "2" lent 8 to node "1", node "3" lent
# 6 to node "2" (indices 1->0 and 2->1).
T3_NODES = ("1", "2", "3")
T3_LOANS = {(1, 0): 8.0, (2, 1): 6.0}


@pytest.fixture
def t3():
    return network(T3_NODES, T3_LOANS)
