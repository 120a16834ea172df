"""Distress-propagation cascades with a rescue fund.

A cascade starts from one seeded default. In each round every not yet
used propagation edge whose source carries positive distress fires
simultaneously, raising the target's distress by weight * source
distress (values read from the previous round), capped at 1. Fired
edges are discarded; the run stops when nothing can fire.

The rescue fund compensates the seed's lenders before propagation:
the first-round loss on each seed->lender edge is the exposure minus
the payout. The fund is the pool filled by the alpha tax, so it is
empty at alpha = 0 and then pays nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibratedNetwork, PropagationWeights, edge_weight, propagation_weights
from .errors import InputError, InvariantError

DEFAULT_TOLERANCE = 1e-12  # slack below 1.0 still counted as default


@dataclass(frozen=True)
class SeedSpec:
    """Seed node (index) and its initial distress, usually 1."""

    seed: int
    initial_distress: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.initial_distress <= 1.0:
            raise InputError(
                f"initial distress must be in (0, 1], got {self.initial_distress}"
            )


@dataclass(frozen=True)
class CascadeOutcome:
    """Result of one seeded cascade run."""

    seed: int
    initial_distress: float
    final_distress: np.ndarray
    defaulted: frozenset[int]
    steps: int
    trace: Optional[tuple[np.ndarray, ...]] = None


@dataclass(frozen=True)
class CascadeEnsemble:
    """One outcome per seed node, in node index order."""

    outcomes: tuple[CascadeOutcome, ...]
    n_nodes: int


def compute_rescue_payouts(cal: CalibratedNetwork, seed: int) -> np.ndarray:
    """Fund payouts to the seed's lenders.

    Every lender requests its full exposure to the seed. The seed's own
    contribution is consumed by the seed (which defaults anyway), so the
    pool available to lenders is the sum of everyone else's
    contributions; requests beyond the pool are rationed proportionally.
    """
    n = cal.net.n_nodes
    payouts = np.zeros(n)
    requests = np.zeros(n)
    for (i, j), amount in cal.net.loans.items():
        if j == seed:
            requests[i] = amount  # lender i's exposure to the seed
    total_requested = 0.0
    for i in range(n):
        total_requested += requests[i]
    if total_requested <= 0.0:
        return payouts
    available = 0.0
    for k in range(n):
        if k != seed:
            available += float(cal.fund_contribution[k])
    ratio = min(1.0, available / total_requested)
    for i in range(n):
        if requests[i] > 0.0:
            payouts[i] = requests[i] * ratio
    return payouts


def run_cascade(
    cal: CalibratedNetwork,
    seed: SeedSpec,
    *,
    weights: Optional[PropagationWeights] = None,
    record_trace: bool = False,
) -> CascadeOutcome:
    """Run one cascade from a single seeded default. Deterministic."""
    n = cal.net.n_nodes
    if n < 2:
        raise InputError("cascade needs at least 2 nodes")
    if not 0 <= seed.seed < n:
        raise InputError(f"unknown seed node index {seed.seed}")
    if weights is None:
        weights = propagation_weights(cal)
    src, dst = weights.src, weights.dst
    eff_weight = weights.weight
    payouts = compute_rescue_payouts(cal, seed.seed)
    if np.any(payouts > 0.0):
        eff_weight = eff_weight.copy()
        for k in np.flatnonzero(src == seed.seed):
            reduced = weights.loss[k] - payouts[dst[k]]
            eff_weight[k] = edge_weight(reduced, float(cal.reserve[dst[k]]))

    h = np.zeros(n)
    h[seed.seed] = seed.initial_distress
    used = np.zeros(weights.n_edges, dtype=bool)
    trace = [h.copy()] if record_trace else None
    steps = 0
    max_rounds = weights.n_edges + 1
    while True:
        firing = np.flatnonzero(~used & (h[src] > 0.0))
        if firing.size == 0:
            break
        # Accumulate in canonical edge order so results are reproducible
        # and match a per-edge sequential transcription of the update.
        h_next = h.copy()
        np.add.at(h_next, dst[firing], eff_weight[firing] * h[src[firing]])
        np.minimum(h_next, 1.0, out=h_next)
        used[firing] = True
        h = h_next
        steps += 1
        if record_trace:
            trace.append(h.copy())
        if steps > max_rounds:
            raise InvariantError("cascade failed to terminate")

    defaulted = frozenset(
        int(i) for i in np.flatnonzero(h >= 1.0 - DEFAULT_TOLERANCE)
    ) | {seed.seed}
    return CascadeOutcome(
        seed=seed.seed,
        initial_distress=seed.initial_distress,
        final_distress=h,
        defaulted=defaulted,
        steps=max(steps, 1),
        trace=tuple(trace) if record_trace else None,
    )


def run_ensemble(cal: CalibratedNetwork) -> CascadeEnsemble:
    """One full-distress cascade per seed node, assembled in node order."""
    weights = propagation_weights(cal)
    outcomes = tuple(
        run_cascade(cal, SeedSpec(seed=s, initial_distress=1.0), weights=weights)
        for s in range(cal.net.n_nodes)
    )
    return CascadeEnsemble(outcomes=outcomes, n_nodes=cal.net.n_nodes)
