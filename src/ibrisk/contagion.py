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

One driver builds every result, a CascadeEnsemble with one row per
seed: run_ensemble seeds every node, and run_cascade seeds one node and
also keeps the distress after each round.
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
class CascadeEnsemble:
    """One full-distress cascade per seed, one row each."""

    final_distress: np.ndarray  # (seeds x nodes)
    steps: np.ndarray  # rounds per seed, at least 1
    defaulted: np.ndarray  # bool (seeds x nodes); each seed counts as defaulted
    n_nodes: int
    # (seeds x nodes) distress before the first round and after each
    # round that fired an edge; recorded by run_cascade only.
    trace: Optional[tuple[np.ndarray, ...]] = None


def _requested(weights: PropagationWeights, n: int) -> np.ndarray:
    """Each node's lenders' total exposure to it, summed in lender order."""
    return np.bincount(weights.src, weights=weights.loss, minlength=n)


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
    flat[front] = 1.0
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


def _cascades(
    cal: CalibratedNetwork, seeds: np.ndarray, trace: Optional[list] = None
) -> CascadeEnsemble:
    """Cascades from ``seeds``, one row each.

    ``trace``, passed for a single seed block, collects the distress
    rows before the first round and after each round that fired an edge.
    """
    n = cal.net.n_nodes
    if n < 2:
        raise InputError("cascade needs at least 2 nodes")
    weights = propagation_weights(cal)
    offsets = np.searchsorted(weights.src, np.arange(n + 1))
    requested = _requested(weights, n)
    h = np.zeros((len(seeds), n))
    steps = np.empty(len(seeds), dtype=np.int64)
    rows = max(1, BLOCK_CELLS // n)
    for lo in range(0, len(seeds), rows):
        block = seeds[lo : lo + rows]
        ratio = _fund_ratios(cal.fund_contribution, requested, block)
        steps[lo : lo + len(block)] = _sweep_block(
            h[lo : lo + len(block)], block, ratio, cal, weights, offsets, trace
        )
    # A seed starts at 1 and distress never falls, so it counts as defaulted.
    return CascadeEnsemble(
        final_distress=h,
        steps=steps,
        defaulted=h >= 1.0 - DEFAULT_TOLERANCE,
        n_nodes=n,
        trace=None if trace is None else tuple(trace),
    )


def run_cascade(cal: CalibratedNetwork, seed: int) -> CascadeEnsemble:
    """One cascade from ``seed``: a one-row ensemble with its trace."""
    if not 0 <= seed < cal.net.n_nodes:
        raise InputError(f"unknown seed node index {seed}")
    return _cascades(cal, np.array([seed]), trace=[])


def run_ensemble(cal: CalibratedNetwork) -> CascadeEnsemble:
    """One full-distress cascade per seed node, rows in node order."""
    return _cascades(cal, np.arange(cal.net.n_nodes))
