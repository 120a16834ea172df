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

Distress never falls, so every edge fires exactly once: in the round
after its source's distress first turns positive. One kernel runs many
cascades together as a breadth-first frontier sweep over (seed, node)
pairs, expanding only the pairs that turned positive in the previous
round. Seeds are swept in blocks of about BLOCK_CELLS (seed, node)
cells, and a round's fired edges are expanded and scattered in pieces
of whole frontier pairs. Each target's increments are added in
canonical (source, target) edge order, one at a time, so every cascade
keeps the bits of a per-edge sequential transcription of the update.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibratedNetwork, PropagationWeights, edge_weights, propagation_weights
from .errors import InputError, InvariantError

DEFAULT_TOLERANCE = 1e-12  # slack below 1.0 still counted as default
# Peak memory depends on these, not on N squared: the kernel sweeps
# blocks of about BLOCK_CELLS (seed, node) cells, at least one seed's
# row, and scatters a round's increments in pieces of whole frontier
# pairs, at most SCATTER_PIECE + N - 1 fired edges.
BLOCK_CELLS = 65536
SCATTER_PIECE = 16384


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
    """One full-distress cascade per seed node; row j is seeded at node j."""

    final_distress: np.ndarray  # (seeds x nodes)
    steps: np.ndarray  # rounds per seed, at least 1
    defaulted: np.ndarray  # bool (seeds x nodes); each seed counts as defaulted
    n_nodes: int


def _requested(weights: PropagationWeights, n: int) -> np.ndarray:
    """Each node's lenders' total exposure to it, summed in lender order."""
    total = np.zeros(n)
    np.add.at(total, weights.src, weights.loss)
    return total


def _fund_ratios(fund: np.ndarray, requested: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Share min(1, available / requested) of each seed's lenders' requests paid.

    Every lender requests its full exposure to the seed. The seed's own
    contribution is consumed by the seed (which defaults anyway), so the
    pool available to lenders is everyone else's contribution, summed in
    node order with the seed's entry zeroed (adding zero is exact).
    Without requests nothing is paid.
    """
    pool = np.tile(fund, (len(seeds), 1))
    pool[np.arange(len(seeds)), seeds] = 0.0
    available = np.cumsum(pool, axis=1)[:, -1]  # sequential, unlike np.sum
    asked = requested[seeds]
    ratio = np.zeros(len(seeds))
    paid = asked > 0.0
    ratio[paid] = np.minimum(1.0, available[paid] / asked[paid])
    return ratio


def _payouts(loss: np.ndarray, ratio) -> np.ndarray:
    """Rationed payout on each exposure; only positive exposures request."""
    return np.where(loss > 0.0, loss * ratio, 0.0)


def compute_rescue_payouts(cal: CalibratedNetwork, seed: int) -> np.ndarray:
    """Fund payouts to the seed's lenders, indexed by lender.

    Requests beyond the pool are rationed proportionally (see
    :func:`_fund_ratios`).
    """
    n = cal.net.n_nodes
    weights = propagation_weights(cal)
    ratio = _fund_ratios(cal.fund_contribution, _requested(weights, n), np.array([seed]))
    mine = weights.src == seed
    payouts = np.zeros(n)
    payouts[weights.dst[mine]] = _payouts(weights.loss[mine], ratio[0])
    return payouts


def _sweep_block(
    h: np.ndarray,
    seeds: np.ndarray,
    psi: float,
    ratio: np.ndarray,
    cal: CalibratedNetwork,
    weights: PropagationWeights,
    offsets: np.ndarray,
    trace: Optional[list],
) -> np.ndarray:
    """Run the cascades of ``seeds`` in the zeroed rows of ``h``; return rounds.

    ``offsets`` are the CSR offsets of each source's edges in canonical
    order. The frontier holds the (row, node) pairs whose distress
    turned positive in the previous round, as flat ``row * N + node``
    indices in ascending order: sorted by (seed, source), so np.add.at
    meets each target cell's increments in source order. Each round's
    pairs are cut into pieces of whole pairs, cut after the pair whose
    last edge closes a stretch of SCATTER_PIECE fired edges; a piece's
    edges, cells and increments are its pairs' values repeated by their
    edge counts.
    """
    b, n = h.shape
    flat = h.reshape(-1)  # a view: h is a C-contiguous block of rows
    front = np.arange(b) * n + seeds
    flat[front] = psi
    spent = flat > 0.0
    if trace is not None:
        trace.append(h.copy())
    steps = np.zeros(b, dtype=np.int64)
    first_round = True
    while front.size:
        rows, nodes = np.divmod(front, n)
        source = flat[front]  # previous-round distress, read before any scatter
        starts = offsets[nodes]
        counts = offsets[nodes + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            break
        steps += np.bincount(rows[counts > 0], minlength=b) > 0
        if steps.max() > n:
            raise InvariantError("cascade failed to terminate")
        shift = starts - (ends - counts)  # edge id minus position among fired edges
        cut = np.flatnonzero(np.diff((ends - 1) // SCATTER_PIECE)) + 1
        for lo, hi in zip([0, *cut.tolist()], [*cut.tolist(), len(front)]):
            fired = counts[lo:hi]
            edge = np.arange(ends[lo] - fired[0], ends[hi - 1]) + np.repeat(shift[lo:hi], fired)
            target = weights.dst[edge]
            if first_round:  # only the seeds fire: their lenders get payouts
                loss = weights.loss[edge]
                weight = edge_weights(
                    loss - _payouts(loss, np.repeat(ratio[rows[lo:hi]], fired)),
                    cal.reserve[target],
                )
            else:
                weight = weights.weight[edge]
            weight *= np.repeat(source[lo:hi], fired)
            np.add.at(flat, np.repeat(rows[lo:hi] * n, fired) + target, weight)
        # One cap per round equals a cap after every increment: the
        # increments are nonnegative, so a sum that passes 1 stays there.
        np.minimum(flat, 1.0, out=flat)
        front = np.flatnonzero((flat > 0.0) & ~spent)
        spent[front] = True
        first_round = False
        if trace is not None:
            trace.append(h.copy())
    return np.maximum(steps, 1)


def _propagate(
    cal: CalibratedNetwork,
    weights: PropagationWeights,
    seeds: np.ndarray,
    psi: float,
    trace: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cascades from ``seeds``, one row each: (distress, rounds, default mask).

    ``trace``, passed for a single seed, collects the distress rows
    before the first round and after each round that fired an edge.
    """
    n = cal.net.n_nodes
    offsets = np.searchsorted(weights.src, np.arange(n + 1))
    requested = _requested(weights, n)
    h = np.zeros((len(seeds), n))
    steps = np.empty(len(seeds), dtype=np.int64)
    rows = max(1, BLOCK_CELLS // n)
    for lo in range(0, len(seeds), rows):
        block = seeds[lo : lo + rows]
        ratio = _fund_ratios(cal.fund_contribution, requested, block)
        steps[lo : lo + len(block)] = _sweep_block(
            h[lo : lo + len(block)], block, psi, ratio, cal, weights, offsets, trace
        )
    defaulted = h >= 1.0 - DEFAULT_TOLERANCE
    defaulted[np.arange(len(seeds)), seeds] = True
    return h, steps, defaulted


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
    trace = [] if record_trace else None
    h, steps, defaulted = _propagate(
        cal, weights, np.array([seed.seed]), seed.initial_distress, trace
    )
    return CascadeOutcome(
        seed=seed.seed,
        initial_distress=seed.initial_distress,
        final_distress=h[0],
        defaulted=frozenset(int(i) for i in np.flatnonzero(defaulted[0])),
        steps=int(steps[0]),
        trace=tuple(t[0] for t in trace) if record_trace else None,
    )


def run_ensemble(cal: CalibratedNetwork) -> CascadeEnsemble:
    """One full-distress cascade per seed node, rows in node order."""
    n = cal.net.n_nodes
    if n == 1:  # an empty network has no seeds and an empty ensemble
        raise InputError("cascade needs at least 2 nodes")
    h, steps, defaulted = _propagate(cal, propagation_weights(cal), np.arange(n), 1.0)
    return CascadeEnsemble(final_distress=h, steps=steps, defaulted=defaulted, n_nodes=n)
