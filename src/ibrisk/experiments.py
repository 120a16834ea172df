"""Parameter sweeps, iso-curve searches, and synthetic test networks."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calibration import CalibratedNetwork, CalibrationParams, calibrate
from .contagion import run_ensemble
from .errors import InputError, ParameterError
from .network import FinancialNetwork
from .risk import (
    cascade_risk,
    conditional_default_matrix,
    debtrank_metric,
    default_probabilities,
)
from .roi import DEFAULT_RATES, RoiRates, nominal_roi, risk_adjusted_roi

# Default grids covering the practical parameter ranges; the small-eta
# region is where the fund has the strongest effect.
DEFAULT_ETA_GRID = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05)
DEFAULT_ALPHA_GRID = (0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0)
DEFAULT_ETA_INCREASE_GRID = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep over eta or alpha, the other held fixed."""

    varying: str  # "eta" or "alpha"
    grid: tuple[float, ...]
    fixed: float
    beta: float = 10.0
    rates: RoiRates = DEFAULT_RATES
    p_exo: float = 0.001

    def __post_init__(self):
        if self.varying not in ("eta", "alpha"):
            raise ParameterError(f"varying must be 'eta' or 'alpha', got {self.varying!r}")
        if len(self.grid) == 0:
            raise ParameterError("sweep grid is empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ParameterError("sweep grid must be strictly increasing")


@dataclass(frozen=True)
class SweepRow:
    param_name: str
    param_value: float
    cascade_risk: float
    avg_debtrank: float
    market_roi_ra_weighted: float
    market_roi_ra_unweighted: float


@dataclass(frozen=True)
class PointResult:
    """Full pipeline output at one (beta, eta, alpha) point."""

    cascade_risk_system: float
    cascade_risk_nodes: np.ndarray
    delta: np.ndarray
    avg_debtrank: float
    debtrank_nodes: np.ndarray
    roi_nominal: np.ndarray
    roi_risk_adjusted: np.ndarray
    default_prob: np.ndarray
    market_roi_weighted: float
    market_roi_unweighted: float


def evaluate_point(
    cal: CalibratedNetwork, rates: RoiRates = DEFAULT_RATES, p_exo: float = 0.001
) -> PointResult:
    """Run the full seed ensemble with the fund on ``cal``, and reduce.

    Impact is zero on an edgeless network; ROI is NaN when any node has
    zero balance.
    """
    n = cal.net.n_nodes
    ensemble = run_ensemble(cal)
    _, delta = conditional_default_matrix(ensemble)
    node_risk, system_risk = cascade_risk(delta, n)
    if np.sum(cal.strengths.out_strength) > 0:
        dr_nodes, dr_avg = debtrank_metric(ensemble, cal.strengths)
    else:  # edgeless network: no economic value at risk
        dr_nodes, dr_avg = np.zeros(n), 0.0
    p = default_probabilities(delta, p_exo)
    if np.all(cal.balance > 0):
        nominal = nominal_roi(cal, rates)
        adjusted = risk_adjusted_roi(nominal, p)
        weighted = float(np.average(adjusted, weights=cal.balance))
        unweighted = float(np.mean(adjusted))
    else:  # ROI is undefined for zero-balance nodes
        nominal = np.full(n, np.nan)
        adjusted = np.full(n, np.nan)
        weighted = unweighted = float("nan")
    return PointResult(
        cascade_risk_system=system_risk,
        cascade_risk_nodes=node_risk,
        delta=delta,
        avg_debtrank=dr_avg,
        debtrank_nodes=dr_nodes,
        roi_nominal=nominal,
        roi_risk_adjusted=adjusted,
        default_prob=p,
        market_roi_weighted=weighted,
        market_roi_unweighted=unweighted,
    )


def sweep(net: FinancialNetwork, spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the pipeline along the grid; rows come back in grid order."""
    rows = []
    for value in spec.grid:
        eta = value if spec.varying == "eta" else spec.fixed
        alpha = value if spec.varying == "alpha" else spec.fixed
        cal = calibrate(net, CalibrationParams(spec.beta, eta, alpha))
        point = evaluate_point(cal, spec.rates, spec.p_exo)
        rows.append(
            SweepRow(
                param_name=spec.varying,
                param_value=value,
                cascade_risk=point.cascade_risk_system,
                avg_debtrank=point.avg_debtrank,
                market_roi_ra_weighted=point.market_roi_weighted,
                market_roi_ra_unweighted=point.market_roi_unweighted,
            )
        )
    return rows


@dataclass(frozen=True)
class IsoPoint:
    """One iso-curve row: the alpha bracket replicating a reserve raise."""

    eta_rel_increase: float
    alpha_lo: float
    alpha_hi: float
    target_pc: float
    achieved_pc: float
    saturated: bool


def iso_curve(
    net: FinancialNetwork,
    eta0: float,
    eta_increase_grid: tuple[float, ...] = DEFAULT_ETA_INCREASE_GRID,
    beta: float = 10.0,
    *,
    alpha_tol: float = 1e-4,
) -> list[IsoPoint]:
    """Trade a relative reserve-requirement increase for a fund tax rate.

    For each relative increase d: the target is the cascade risk at
    (eta0 * (1 + d), alpha=0); the returned bracket [alpha_lo, alpha_hi]
    encloses the smallest alpha whose cascade risk at eta0 reaches the
    target. Cascade risk is a step function of alpha at finite N, so
    brackets, not exact roots, are the honest answer. Targets
    unreachable even at alpha = 1 are reported as saturated.
    """
    if any(d < 0 for d in eta_increase_grid):
        raise ParameterError("eta increases must be nonnegative")
    if any(b <= a for a, b in zip(eta_increase_grid, eta_increase_grid[1:])):
        raise ParameterError("eta increase grid must be strictly increasing")

    cache: dict[tuple[float, float], float] = {}

    def pc_at(eta: float, alpha: float) -> float:
        key = (eta, alpha)
        if key not in cache:
            ensemble = run_ensemble(calibrate(net, CalibrationParams(beta, eta, alpha)))
            delta = conditional_default_matrix(ensemble)[1]
            cache[key] = cascade_risk(delta, net.n_nodes)[1]
        return cache[key]

    base_pc = pc_at(eta0, 0.0)
    if base_pc <= 0.0:
        raise ParameterError(
            f"cascade risk at eta0={eta0}, alpha=0 is zero; nothing to trade off"
        )

    points = []
    for rel in eta_increase_grid:
        target = pc_at(eta0 * (1.0 + rel), 0.0)
        if base_pc <= target:
            points.append(IsoPoint(rel, 0.0, 0.0, target, base_pc, False))
            continue
        full_fund = pc_at(eta0, 1.0)
        if full_fund > target:
            points.append(IsoPoint(rel, 1.0, 1.0, target, full_fund, True))
            continue
        lo, hi = 0.0, 1.0  # pc(lo) > target >= pc(hi); pc nonincreasing
        while hi - lo > alpha_tol:
            mid = 0.5 * (lo + hi)
            if pc_at(eta0, mid) <= target:
                hi = mid
            else:
                lo = mid
        points.append(IsoPoint(rel, lo, hi, target, pc_at(eta0, hi), False))
    return points


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator knobs for heterogeneous core-periphery test networks."""

    n_nodes: int = 120
    density: float = 6.0
    heterogeneity: float = 2.3  # strength-distribution tail exponent
    core_fraction: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ParameterError("need at least 2 nodes")
        if not 0.0 < self.density <= self.n_nodes - 1:
            raise ParameterError(
                f"density {self.density} infeasible for N={self.n_nodes}"
            )
        if not self.heterogeneity > 1.0:  # also rejects NaN
            raise ParameterError(f"heterogeneity exponent must exceed 1, got {self.heterogeneity}")
        if not 0.0 < self.core_fraction <= 1.0:
            raise ParameterError("core fraction must be in (0, 1]")


# Directed core-core edge probability; high enough that >= 95% of core
# pairs end up connected in at least one direction.
_CORE_EDGE_PROB = 0.9


def generate_synthetic(spec: SyntheticSpec) -> FinancialNetwork:
    """Deterministic heavy-tailed directed network with a dense core.

    Node strengths are drawn from a discrete power law; edges appear
    with probability proportional to strength products (scaled to the
    requested density); each node's strength is split across its loans
    so the out-strength distribution keeps the heavy tail.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_nodes
    n_core = max(1, int(round(n * spec.core_fraction)))

    # Pareto-like strengths, largest assigned to the core block.
    u = rng.uniform(size=n)
    strengths = (1.0 - u) ** (-1.0 / (spec.heterogeneity - 1.0))
    strengths = np.sort(strengths)[::-1]

    product = np.outer(strengths, strengths)
    np.fill_diagonal(product, 0.0)
    scale = n * spec.density / product.sum()
    prob = np.minimum(1.0, scale * product)
    prob[:n_core, :n_core] = np.maximum(prob[:n_core, :n_core], _CORE_EDGE_PROB)
    np.fill_diagonal(prob, 0.0)

    adjacency = rng.uniform(size=(n, n)) < prob
    np.fill_diagonal(adjacency, False)
    # No fully isolated nodes: attach stragglers to the biggest hub so
    # every node has a balance sheet.
    for i in range(n):
        if not adjacency[i].any() and not adjacency[:, i].any():
            adjacency[i, 0 if i != 0 else 1] = True

    jitter = rng.uniform(0.5, 1.5, size=(n, n))
    nodes = tuple(f"n{k:03d}" for k in range(n))
    # Split the lender's strength across its loans proportionally to
    # borrower strength: exposures to small counterparties stay small
    # relative to the lender's reserve, as in real networks. Each row total
    # is a numpy sum of its own; a segmented sum would add in another order.
    lender, borrower = np.nonzero(adjacency)
    row_total = np.array([strengths[adjacency[i]].sum() for i in range(n)])
    shares = strengths[borrower] / row_total[lender]
    amount = strengths[lender] * shares * jitter[lender, borrower]
    return FinancialNetwork(nodes, lender, borrower, amount)
