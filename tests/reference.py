"""Naive references beside ``oracle.py``, in its style: plain lists and
loops, independent of the engine but for its calibration."""
from dataclasses import replace
from functools import cache

import numpy as np

from ibrisk import CalibrationParams, calibrate
from loan_dicts import loans_of
from oracle import naive_cascade, naive_payouts


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


def naive_point(loans, cal, rates, p_exo):
    """Every field of ``evaluate_point(cal, rates, p_exo)``, as a dict.

    Each seed's cascade is ``oracle.naive_cascade`` with the fund's
    ``naive_payouts``; the calibrated values come from ``cal``. Where the
    engine sums floats (each seed's impact dot, the mean impact, the
    market averages) this applies the same numpy call to its own values,
    so every field is bit-equal. ROI is NaN when ``rates`` is None.
    """
    n = cal.net.n_nodes
    reserve, fund = cal.reserve.tolist(), cal.fund_contribution.tolist()
    balance, external = cal.balance.tolist(), cal.external.tolist()
    lent = cal.strengths.out_strength.tolist()
    values = [x / float(np.sum(lent)) for x in lent] if loans else None
    down, impact = [], [0.0] * n  # without loans no value is at risk
    for seed in range(n):
        h, defaulted, _ = naive_cascade(n, loans, reserve, seed,
                                        payouts=naive_payouts(loans, fund, seed))
        down.append(defaulted)
        if loans:
            impact[seed] = float(np.array(h) @ np.array(values)) - values[seed]
    delta = [sum(1 for seed in range(n) if seed != i and i in down[seed]) for i in range(n)]
    p = [(1.0 + d) * p_exo for d in delta]
    nominal = adjusted = [float("nan")] * n
    weighted = unweighted = float("nan")
    if rates is not None:
        alpha = cal.params.alpha
        nominal = []
        for i in range(n):
            if alpha == 0.0 or rates.roi_e == rates.roi_f:  # the engine's exact collapse
                reserve_term = rates.roi_e * reserve[i]
            else:
                reserve_term = (rates.roi_e * (1.0 - alpha) * reserve[i]
                                + rates.roi_f * alpha * reserve[i])
            nominal.append((rates.roi_int * lent[i] + rates.roi_ext * external[i]
                            + reserve_term) / balance[i])
        adjusted = [nominal[i] * (1.0 - p[i]) - p[i] for i in range(n)]
        weighted = float(np.average(adjusted, weights=balance))
        unweighted = float(np.mean(adjusted))
    return {
        "cascade_risk_system": sum(delta) / (n * (n - 1)),
        "cascade_risk_nodes": [d / (n - 1) for d in delta],
        "delta": delta,
        "avg_debtrank": float(np.mean(impact)),
        "debtrank_nodes": impact,
        "roi_nominal": nominal,
        "roi_risk_adjusted": adjusted,
        "default_prob": p,
        "market_roi_weighted": weighted,
        "market_roi_unweighted": unweighted,
    }


def naive_sweep(net, params, varying, grid, rates, p_exo):
    """``sweep``'s rows as tuples: ``naive_point`` at ``params`` with its
    ``varying`` field set to each grid value, in grid order."""
    loans = loans_of(net)
    rows = []
    for value in grid:
        cal = calibrate(net, replace(params, **{varying: value}))
        point = naive_point(loans, cal, rates, p_exo)
        rows.append((varying, value, point["cascade_risk_system"], point["avg_debtrank"],
                     point["market_roi_weighted"], point["market_roi_unweighted"]))
    return rows


def naive_iso(net, eta0, grid, beta):
    """``iso_curve``'s points as tuples, or None when the base cascade risk
    is zero (``iso_curve`` raises then).

    Cascade risk at (eta, alpha) is ``naive_point``'s. The bisection is
    ``iso_curve``'s, with its tolerance written out as 1e-4, so that a
    change to the engine's stopping rule shows.
    """
    loans = loans_of(net)

    @cache
    def pc(eta, alpha):
        cal = calibrate(net, CalibrationParams(beta, eta, alpha))
        return naive_point(loans, cal, None, 0.001)["cascade_risk_system"]

    base = pc(eta0, 0.0)
    if base <= 0.0:
        return None
    points = []
    for d in grid:
        target = pc(eta0 * (1.0 + d), 0.0)
        if base <= target:
            points.append((d, 0.0, 0.0, target, base, False))
        elif pc(eta0, 1.0) > target:
            points.append((d, 1.0, 1.0, target, pc(eta0, 1.0), True))
        else:
            lo, hi = 0.0, 1.0
            while hi - lo > 1e-4:
                mid = 0.5 * (lo + hi)
                if pc(eta0, mid) <= target:
                    hi = mid
                else:
                    lo = mid
            points.append((d, lo, hi, target, pc(eta0, hi), False))
    return points
