"""Naive references beside ``oracle.py``, in its style: plain lists and
loops, independent of the engine."""


def naive_trace(n, loans, reserve, seed, payouts=None):
    """Distress snapshots of one cascade: h before round 1, then h after
    every round in which some link fired.

    The loop is ``oracle.naive_cascade``'s: links go borrower -> lender,
    each fires once, in the round after its source first has positive
    distress, and applies h_j = min(1, h_j + W * h_i_prev) in canonical
    (source, target) order.
    """
    payouts = payouts or {}
    links = sorted(
        (borrower, lender, amount - payouts.get(lender, 0.0) if borrower == seed else amount)
        for (lender, borrower), amount in loans.items()
    )
    h = [0.0] * n
    h[seed] = 1.0
    trace = [list(h)]
    used = set()
    while True:
        h_prev = list(h)
        eligible = [k for k in range(len(links)) if k not in used and h_prev[links[k][0]] > 0.0]
        if not eligible:
            return trace
        for k in eligible:
            src, dst, loss = links[k]
            if loss <= 0.0:
                weight = 0.0
            elif reserve[dst] == 0.0:
                weight = float("inf")
            else:
                weight = loss / reserve[dst]
            h[dst] = min(1.0, h[dst] + weight * h_prev[src])
            used.add(k)
        trace.append(list(h))
