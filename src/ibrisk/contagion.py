"""Distress-propagation cascades with a rescue fund.

A cascade starts from one seeded default. In each round every not yet
used propagation edge whose source carries positive distress fires
simultaneously, raising the target's distress by weight * source
distress (values read from the previous round), capped at 1. Fired
edges are discarded; the run stops when nothing can fire.

The rescue fund compensates the seed's lenders before propagation:
their requests, one exposure each, total the seed's in-strength, and
the first-round loss on each seed->lender edge is the exposure minus
the payout. The fund is the pool filled by the alpha tax, so it is
empty at alpha = 0 and then pays nothing.

Distress never falls, so every edge fires exactly once: in the round
after its source's distress first turns positive. One kernel runs many
cascades together as a breadth-first frontier sweep over (seed, node)
pairs, expanding only the pairs that turned positive in the previous
round. Seeds are swept in blocks of about BLOCK_CELLS (seed, node)
cells; a round's fired edges are gathered CHUNK slots at a time and
scattered in pieces of whole frontier pairs. Each target's increments
are added in canonical (source, target) edge order, one at a time, so
every cascade keeps the bits of a per-edge sequential transcription of
the update.

With no reserve (eta = 0) the result is fixed in advance: the fund,
alpha times the reserve, is empty and every weight is +inf, so a fired
edge defaults its target. A row is 1.0 on its seed's reachable set and
0.0 elsewhere, its steps 1 + the largest hop distance of a reached node
with lenders (at least 1): a breadth-first closure on packed bitsets.

One driver builds every result, a CascadeEnsemble with one row per
seed: run_ensemble seeds every node, and run_cascade seeds one node and
also keeps the distress after each round. Without a trace, a seed with
no lenders or whose lenders the fund pays in full (each first-round
loss is loss - loss * 1.0 = +0.0, of weight 0.0) fires nothing: the
driver sets its row to 1.0 at the seed, +0.0 elsewhere, in 1 step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibratedNetwork, PropagationWeights, edge_weights, propagation_weights
from .errors import InputError, InvariantError

DEFAULT_TOLERANCE = 1e-12  # slack below 1.0 still counted as default
# Peak kernel memory depends on these, not on N squared: a sweep takes
# blocks of about BLOCK_CELLS (seed, node) cells, at least one seed's
# row, and scatters in pieces of whole frontier pairs, at most
# SCATTER_PIECE + N + CHUNK - 2 fired slots (at zero reserve, gathers of
# BLOCK_CELLS * N / 8 bytes, beside N * N / 8 bytes of lender bits).
BLOCK_CELLS = 65536
SCATTER_PIECE = 16384
CHUNK = 4


@dataclass(frozen=True)
class CascadeEnsemble:
    """One full-distress cascade per seed, one row each."""

    final_distress: np.ndarray  # (seeds x nodes)
    steps: np.ndarray  # per seed the last round in which the row fired an edge, at least 1
    defaulted: np.ndarray  # bool (seeds x nodes); each seed counts as defaulted
    # (seeds x nodes) distress before the first round and after each
    # round that fired an edge; recorded by run_cascade only.
    trace: Optional[tuple[np.ndarray, ...]] = None


def _fund_ratios(cal: CalibratedNetwork, seeds: np.ndarray) -> np.ndarray:
    """Share min(1, available / requested) of each seed's lenders' requests paid.

    Every lender requests its full exposure to the seed, so the requests
    total the seed's in-strength. The seed's own contribution is
    consumed by the seed (which defaults anyway), so the pool available
    to lenders is the others', summed in node order with the seed's
    entry zeroed (adding zero is exact) down a (nodes x seeds+1) pool:
    numpy sums pairwise only along the contiguous axis, which the spare
    column keeps off axis 0. Without requests nothing is paid.
    """
    pool = np.repeat(cal.fund_contribution[:, None], len(seeds) + 1, axis=1)
    pool[seeds, np.arange(len(seeds))] = 0.0
    available = np.add.reduce(pool, axis=0)[:-1]
    asked = cal.strengths.in_strength[seeds]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(asked > 0.0, np.minimum(1.0, available / asked), 0.0)


def _one_seed(cal: CalibratedNetwork, seed: int) -> np.ndarray:
    """``[seed]``, or InputError when ``seed`` is no node index."""
    if not 0 <= seed < cal.net.n_nodes:
        raise InputError(f"unknown seed node index {seed}")
    return np.array([seed])


def compute_rescue_payouts(cal: CalibratedNetwork, seed: int) -> np.ndarray:
    """Fund payouts to the seed's lenders, indexed by lender: each
    exposure times the seed's fund ratio (see :func:`_fund_ratios`)."""
    net = cal.net
    ratio = _fund_ratios(cal, _one_seed(cal, seed))[0]
    mine = net.borrower == seed
    payouts = np.zeros(net.n_nodes)
    payouts[net.lender[mine]] = net.amount[mine] * ratio
    return payouts


def _chunk_tables(weights: PropagationWeights, n: int) -> tuple[np.ndarray, ...]:
    """Per node its first chunk of CHUNK slots and its number of chunks,
    then (chunks x CHUNK) tables of target, loss and weight: each
    source's edges in canonical order, its last chunk padded with slots
    (source, 0, 0). A source's own cell is positive once it fires, so a
    padded slot adds 0.0 * distress = 0.0 to a positive sum: no bit moves."""
    degree = np.bincount(weights.src, minlength=n)
    count = -(-degree // CHUNK)
    first = np.cumsum(count) - count
    slot = np.arange(len(weights.src)) + (first * CHUNK - (np.cumsum(degree) - degree))[weights.src]
    target = np.repeat(np.arange(n), count * CHUNK)
    loss, weight = np.zeros((2, target.size))
    target[slot], loss[slot], weight[slot] = weights.dst, weights.loss, weights.weight
    return first, count, *(x.reshape(-1, CHUNK) for x in (target, loss, weight))


@np.errstate(over="ignore")  # only a scatter sum can overflow: inf, capped to 1
def _sweep_block(h: np.ndarray, seeds: np.ndarray, ratio: np.ndarray, cal: CalibratedNetwork,
                 tables: tuple[np.ndarray, ...], trace: Optional[list]) -> np.ndarray:
    """Run the cascades of ``seeds`` at fund ``ratio`` in the zeroed rows of ``h``; return rounds.

    The frontier holds the (row, node) pairs whose distress turned
    positive in the previous round, as ascending flat ``row * N + node``
    indices: sorted by (seed, source), so np.add.at meets each target
    cell's increments in source order. A round runs in pieces of whole
    pairs, cut after the pair whose last slot closes a stretch of
    SCATTER_PIECE fired slots. A piece gathers its pairs' chunks of
    :func:`_chunk_tables` by np.take(axis=0), about 0.4 of the cost per
    slot of a 1-D gather by edge id, and repeats its pairs' cells and
    distress by their slot counts.
    """
    b, n = h.shape
    first, count, target_of, loss_of, weight_of = tables
    flat = h.reshape(-1)  # a view: h is a C-contiguous block of rows
    front = np.arange(b) * n + seeds
    flat[front] = 1.0
    spent = flat > 0.0
    if trace is not None:
        trace.append(h.copy())
    steps = np.ones(b, dtype=np.int64)
    rounds = 0
    while front.size:
        rows, nodes = np.divmod(front, n)
        source = flat[front]  # previous-round distress, read before any scatter
        counts = count[nodes]
        ends = np.cumsum(counts)
        if ends[-1] == 0:
            break
        rounds += 1
        if rounds > n:
            raise InvariantError("cascade failed to terminate")
        steps[rows[counts > 0]] = rounds  # rows fire in a prefix of the rounds
        shift = first[nodes] - (ends - counts)  # chunk id minus position among fired chunks
        del front, nodes  # free them: a dense block's frontier can span most of its cells
        cut = np.flatnonzero(np.diff((ends * CHUNK - 1) // SCATTER_PIECE)) + 1
        for lo, hi in zip([0, *cut.tolist()], [*cut.tolist(), len(counts)]):
            fired = counts[lo:hi]
            chunk = np.arange(ends[lo] - fired[0], ends[hi - 1]) + np.repeat(shift[lo:hi], fired)
            slots = fired * CHUNK
            target = np.take(target_of, chunk, axis=0).reshape(-1)
            if rounds == 1:  # only the seeds fire: their lenders get payouts
                loss = np.take(loss_of, chunk, axis=0).reshape(-1)
                loss = loss - loss * np.repeat(ratio[rows[lo:hi]], slots)
                weight = edge_weights(loss, cal.reserve[target])
            else:
                weight = np.take(weight_of, chunk, axis=0).reshape(-1)
            weight *= np.repeat(source[lo:hi], slots)
            np.add.at(flat, np.repeat(rows[lo:hi] * n, slots) + target, weight)
        # One cap per round equals a cap after every increment: the
        # increments are nonnegative, so a sum that passes 1 stays there.
        np.minimum(flat, 1.0, out=flat)
        front = np.flatnonzero((flat > 0.0) & ~spent)
        spent[front] = True
        if trace is not None:
            trace.append(h.copy())
    return steps


def _lender_words(cal: CalibratedNetwork) -> np.ndarray:
    """(words x nodes) uint64, column i the bitset of node i's lenders."""
    lender, n = cal.net.lender, cal.net.n_nodes
    bits = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)  # lender j: bit j % 8 of byte j // 8
    np.bitwise_or.at(bits, (cal.net.borrower, lender >> 3), (1 << (lender & 7)).astype(np.uint8))
    return bits.view(np.uint64).T.copy()


def _reach_block(h: np.ndarray, seeds: np.ndarray, _ratio: np.ndarray,
                 cal: CalibratedNetwork, words: np.ndarray, trace: Optional[list]) -> np.ndarray:
    """Zero-reserve cascades of ``seeds`` in the zeroed rows of ``h``; return rounds."""
    b, n = h.shape
    unpack = lambda w: np.unpackbits(w.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
    seen = np.zeros((b, len(words)), dtype=np.uint64)  # per row the reached nodes' bits
    seen.view(np.uint8)[np.arange(b), seeds >> 3] = 1 << (seeds & 7)
    steps, fresh, rows = np.ones(b, dtype=np.int64), seen, np.arange(b)
    for rounds in range(1, n + 2):  # round r fires from hop distance r - 1 < n
        if trace is not None:
            trace.append(unpack(seen).astype(float))
        # Fire last round's new nodes that have lenders (positive in-strength):
        # OR their lender words per row, gathered along each word's nodes.
        front, nodes = np.divmod(np.flatnonzero(unpack(fresh) & (cal.strengths.in_strength > 0)), n)
        if not nodes.size:
            break
        starts = np.flatnonzero(np.diff(front, prepend=-1))
        rows = rows[front[starts]]
        steps[rows] = rounds
        fresh = np.bitwise_or.reduceat(np.take(words, nodes, axis=1), starts, axis=1)
        fresh = np.ascontiguousarray(fresh.T) & ~seen[rows]
        seen[rows] |= fresh
    h[...] = unpack(seen)
    return steps


def _cascades(cal: CalibratedNetwork, seeds: np.ndarray,
              trace: Optional[list] = None) -> CascadeEnsemble:
    """Cascades from ``seeds``, one row each.

    ``trace``, passed for a single seed block, collects the distress
    rows before the first round and after each round that fired an edge.
    """
    n = cal.net.n_nodes
    if n < 2:
        raise InputError("cascade needs at least 2 nodes")
    reach = not cal.reserve.any()  # see the module docstring
    kernel = _reach_block if reach else _sweep_block
    tables = _lender_words(cal) if reach else _chunk_tables(propagation_weights(cal), n)
    rows = max(1, BLOCK_CELLS // n)
    ratio = np.concatenate([_fund_ratios(cal, seeds[lo:lo + rows])
                            for lo in range(0, len(seeds), rows)])
    live = np.flatnonzero((ratio < 1.0) & (cal.strengths.in_strength[seeds] > 0.0)
                          | (trace is not None))
    h = np.zeros((len(seeds), n))
    h[np.arange(len(seeds)), seeds] = 1.0
    steps = np.ones(len(seeds), dtype=np.int64)
    for lo in range(0, len(live), rows):
        pick = live[lo:lo + rows]
        block = np.zeros((len(pick), n))
        steps[pick] = kernel(block, seeds[pick], ratio[pick], cal, tables, trace)
        h[pick] = block
    # A seed starts at 1 and distress never falls, so it counts as defaulted.
    return CascadeEnsemble(
        final_distress=h,
        steps=steps,
        defaulted=h >= 1.0 - DEFAULT_TOLERANCE,
        trace=None if trace is None else tuple(trace),
    )


def run_cascade(cal: CalibratedNetwork, seed: int) -> CascadeEnsemble:
    """One cascade from ``seed``: a one-row ensemble with its trace."""
    return _cascades(cal, _one_seed(cal, seed), trace=[])


def run_ensemble(cal: CalibratedNetwork) -> CascadeEnsemble:
    """One full-distress cascade per seed node, rows in node order."""
    return _cascades(cal, np.arange(cal.net.n_nodes))
