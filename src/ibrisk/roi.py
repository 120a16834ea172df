"""Nominal and risk-adjusted return on investment per node.

Nominal ROI mixes the in-network rate, the external-asset rate and the
reserve rate, with an alpha-weighted split of the reserve between the
balance sheet and the rescue fund. Risk adjustment assumes total loss
of the investment and its return on default.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibratedNetwork
from .errors import ParameterError


@dataclass(frozen=True)
class RoiRates:
    """Per-horizon rates: in-network loans, external assets, reserve,
    rescue-fund share. Negative rates are allowed."""

    roi_int: float = 0.04
    roi_ext: float = 0.07
    roi_e: float = 0.03
    roi_f: float = 0.02

    def __post_init__(self):
        for name in ("roi_int", "roi_ext", "roi_e", "roi_f"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")


# Typical per-horizon rates for simulations.
DEFAULT_RATES = RoiRates()


def nominal_roi(cal: CalibratedNetwork, rates: RoiRates = DEFAULT_RATES) -> np.ndarray:
    """Per-node nominal ROI.

    [roi_int * lent + roi_ext * D + roi_e * (1 - alpha) * E
     + roi_f * alpha * E] / B, where D = B - lent - E; alpha = 0 is no fund.
    ParameterError names the first node of zero balance, else of ROI overflow.
    """
    lent = cal.strengths.out_strength
    balance = cal.balance
    zero = np.flatnonzero(balance == 0.0)
    if zero.size:
        raise ParameterError(f"node {cal.net.nodes[zero[0]]!r} has zero balance; ROI undefined")
    alpha = cal.params.alpha
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below
        if alpha == 0.0 or rates.roi_e == rates.roi_f:
            # Algebraic collapse keeps alpha-independence exact when the
            # fund earns the same rate as the reserve.
            reserve_term = rates.roi_e * cal.reserve
        else:
            reserve_term = (
                rates.roi_e * (1.0 - alpha) * cal.reserve
                + rates.roi_f * alpha * cal.reserve
            )
        roi = (rates.roi_int * lent + rates.roi_ext * cal.external + reserve_term) / balance
    bad = np.flatnonzero(~np.isfinite(roi))
    if bad.size:
        raise ParameterError(f"node {cal.net.nodes[bad[0]]!r}: ROI overflows float64")
    return roi


def risk_adjusted_roi(nominal: np.ndarray, default_prob: np.ndarray) -> np.ndarray:
    """ROI^RA = ROI^N * (1 - p) - p (total loss on default)."""
    nominal = np.asarray(nominal, dtype=np.float64)
    p = np.asarray(default_prob, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ParameterError("default probabilities must lie in [0, 1]")
    return nominal * (1.0 - p) - p
