"""Balance-sheet calibration and distress-propagation weights.

Per node: balance B = beta * max(borrowed, lent), reserve E = eta * B,
rescue-fund contribution F = alpha * E. A loan from lender j to
borrower i induces a propagation edge i -> j (a distressed borrower
damages its lenders) with weight A[j, i] / E[j].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ParameterError
from .network import FinancialNetwork, NodeStrengths, node_strengths


@dataclass(frozen=True)
class CalibrationParams:
    """Scalar knobs: balance multiplier, reserve fraction, fund tax rate."""

    beta: float
    eta: float
    alpha: float

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ParameterError(f"eta must be nonnegative, got {self.eta}")
        if not np.isfinite(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class CalibratedNetwork:
    """Network plus derived per-node balance, reserve and fund vectors,
    and the strengths they were derived from."""

    net: FinancialNetwork
    balance: np.ndarray
    reserve: np.ndarray
    fund_contribution: np.ndarray
    params: CalibrationParams
    strengths: NodeStrengths

    @property
    def total_fund(self) -> float:
        return float(np.sum(self.fund_contribution))

    def external_assets(self) -> np.ndarray:
        """Assets held outside the money market: D = B - lent - E."""
        return self.balance - self.strengths.out_strength - self.reserve


@dataclass(frozen=True)
class PropagationWeights:
    """Distress-propagation edges in canonical (src, dst) order.

    ``loss[k]`` is the underlying exposure A[dst, src]; ``weight[k]`` is
    loss / reserve[dst], with the zero-reserve convention below.
    """

    src: np.ndarray  # distressed borrower
    dst: np.ndarray  # its lender
    loss: np.ndarray
    weight: np.ndarray


def edge_weights(loss: np.ndarray, reserve: np.ndarray) -> np.ndarray:
    """Weight of each propagation edge, elementwise loss / reserve.

    A zero reserve means any positive loss defaults the lender, so the
    weight is +inf (the distress update caps it at 1). A zero loss
    (fully compensated exposure) propagates nothing. A reserve so small
    that the quotient overflows gives +inf as well.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weight = np.where(reserve == 0.0, np.inf, loss / reserve)
    return np.where(loss <= 0.0, 0.0, weight)


def calibrate(net: FinancialNetwork, params: CalibrationParams) -> CalibratedNetwork:
    """Derive balances, reserves and fund contributions from strengths.

    Fails when any node would end up with negative external assets,
    i.e. beta is too small for that node's money-market concentration.
    """
    strengths = node_strengths(net)
    balance = params.beta * np.maximum(strengths.in_strength, strengths.out_strength)
    reserve = params.eta * balance
    fund = params.alpha * reserve
    external = balance - strengths.out_strength - reserve
    bad = np.flatnonzero(external < 0)
    if bad.size:
        node = net.nodes[bad[0]]
        raise CalibrationError(
            f"node {node!r} has negative external assets "
            f"(D={external[bad[0]]:.6g}); beta={params.beta} is too small "
            "for its money-market concentration"
        )
    return CalibratedNetwork(net, balance, reserve, fund, params, strengths)


def propagation_weights(cal: CalibratedNetwork) -> PropagationWeights:
    """One propagation edge per loan, reversed relative to the loan."""
    net = cal.net
    order = np.lexsort((net.lender, net.borrower))
    src, dst, loss = net.borrower[order], net.lender[order], net.amount[order]
    return PropagationWeights(src, dst, loss, edge_weights(loss, cal.reserve[dst]))
