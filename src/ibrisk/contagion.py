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

One driver builds every result, a CascadeEnsemble with one row per
seed: run_ensemble seeds every node, and run_cascade seeds one node and
also keeps the distress after each round. It runs round 1, in which
only the seeds fire, from the loans: a lender's cell is min(1, w) for
the weight w of its loss, the per-edge 0.0 + w * 1.0 bit for bit, as
loans are unique pairs. Rows with a distressed lender go on to a kernel.

Distress never falls, so every edge fires exactly once: in the round
after its source's distress first turns positive. One kernel runs many
cascades together as a breadth-first frontier sweep over (seed, node)
pairs, expanding only the pairs that turned positive in the previous
round. Seeds are swept in blocks of about BLOCK_CELLS (seed, node)
cells. A round pushes: it gathers its fired edges CHUNK slots at a time
and scatters them in pieces of whole frontier pairs. A dense round pulls
instead, as direction-optimizing BFS does: each target gathers its own
cell and every source, an idle one at +0.0, and sums them down axis 0,
one term at a time, as numpy does on any axis but the contiguous one,
which a spare zero column keeps apart. Either way each target's
increments are added in canonical (source, target) edge order, one at a
time (w * 0.0 = +0.0 adds nothing), so every cascade keeps the bits of a
per-edge sequential transcription of the update. A +inf weight keeps
every round push, since inf * 0.0 is NaN.

With no reserve (eta = 0) every weight is +inf, so a fired edge
defaults its target: a row is 1.0 on its seed, the lenders round 1
distressed and all they reach, its steps the last round that fired an
edge: a breadth-first closure on packed bitsets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
# A round of b rows pulls if b * S >= PULL_MIN, S the chunk tables' slots,
# and PUSH_SLOT cells a fired slot exceed the b * (S + N) cells a pull reads.
PUSH_SLOT = 2.5
PULL_MIN = 1 << 20


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


def _chunk_tables(weights: PropagationWeights, n: int) -> tuple:
    """Per node its first chunk of CHUNK slots and its number of chunks,
    then (chunks x CHUNK) tables of target and weight: each source's
    edges in canonical order, its last chunk padded with slots
    (source, 0). A source's own cell is positive once it fires, so a
    padded slot adds 0.0 * distress = 0.0 to a positive sum: no bit moves."""
    degree = np.bincount(weights.src, minlength=n)
    count = -(-degree // CHUNK)
    first = np.cumsum(count) - count
    slot = np.arange(len(weights.src)) + (first * CHUNK - (np.cumsum(degree) - degree))[weights.src]
    target = np.repeat(np.arange(n), count * CHUNK)
    weight = np.zeros(target.size)
    target[slot], weight[slot] = weights.dst, weights.weight
    return first, count, target.reshape(-1, CHUNK), weight.reshape(-1, CHUNK)


def _pull_tables(cal: CalibratedNetwork) -> list:
    """Per in-degree d, pieces of about N rows of (d+1 x targets) indices
    into the pull array and (d+1 x targets x 1) weights: row 0 each
    target's own cell at 1.0, then its sources in ascending order, offset
    by N. Empty if a weight is +inf. Read from the loans of ``cal.net``."""
    net, n = cal.net, cal.net.n_nodes
    degree = np.bincount(net.lender, minlength=n)  # a loan's lender is its edge's target
    edge = np.argsort(degree[net.lender], kind="stable")  # loans come in (target, source) order
    dst, src = net.lender[edge], net.borrower[edge] + n
    weight = edge_weights(net.amount[edge], cal.reserve[dst])  # propagation_weights' bits
    pieces, groups = [], np.unique(degree[dst], return_index=True, return_counts=True)
    for d, lo, size in zip(*(group.tolist() for group in groups)):  # size = d * targets
        index = np.concatenate([dst[None, lo:lo + size:d], src[lo:lo + size].reshape(-1, d).T])
        scale = np.concatenate([np.ones((1, size // d)), weight[lo:lo + size].reshape(-1, d).T])
        step = max(1, n // (d + 1))  # targets a piece, so about N rows
        pieces += [(index[:, k:k + step], scale[:, k:k + step, None])
                   for k in range(0, size // d, step)]
    return pieces if np.isfinite(weight).all() else []


@np.errstate(over="ignore")  # only a scatter sum can overflow: inf, capped to 1
def _sweep_block(h: np.ndarray, seeds: np.ndarray, tables: tuple,
                 trace: Optional[list]) -> np.ndarray:
    """Run the cascades of ``seeds`` from round 2 on in the rows of ``h``; return rounds.

    The frontier holds the (row, node) pairs whose distress turned
    positive in the previous round, as ascending flat ``row * N + node``
    indices: sorted by (seed, source), so np.add.at meets each target
    cell's increments in source order. A push round runs in pieces of
    whole pairs, cut after the pair whose last slot closes a stretch of
    SCATTER_PIECE fired slots. A piece gathers its pairs' chunks of
    :func:`_chunk_tables` by np.take(axis=0) and repeats its pairs' cells
    and distress by their slot counts. A pull round works on ``ext``, the
    (2N x b+1) array of ``h.T`` over the frontier's distress, and writes
    each piece's sums back to its targets' rows (``pull`` caches :func:`_pull_tables`).
    """
    b, n = h.shape
    first, count, target_of, weight_of, pull = tables
    flat = h.reshape(-1)  # a view: h is a C-contiguous block of rows
    spent, steps = np.zeros(flat.size, dtype=bool), np.ones(b, dtype=np.int64)
    spent[np.arange(b) * n + seeds] = True  # the seeds fired in round 1
    for rounds in range(2, n + 2):
        front = np.flatnonzero((flat > 0.0) & ~spent)
        spent[front] = True
        rows, nodes = np.divmod(front, n)
        source = flat[front]  # previous-round distress, read before any scatter
        counts = count[nodes]
        if not counts.any():
            break
        if rounds > n:
            raise InvariantError("cascade failed to terminate")
        steps[rows[counts > 0]] = rounds  # rows fire in a prefix of the rounds
        ends = np.cumsum(counts)
        if (b * target_of.size >= PULL_MIN and PUSH_SLOT * CHUNK * ends[-1] > b * (target_of.size + n)
                and (pieces := pull())):  # none at +inf
            ext = np.zeros((2 * n, b + 1))  # h.T, the frontier's distress, a spare zero column
            ext[:n, :b], ext[n + nodes, rows] = h.T, source
            for index, weight in pieces:
                cells = np.take(ext, index, axis=0)
                cells *= weight
                ext[index[0]] = np.add.reduce(cells, axis=0)
            h[...] = ext[:n, :b].T
        else:
            shift = first[nodes] - (ends - counts)  # chunk id minus position among fired chunks
            del front, nodes  # free them: a dense block's frontier can span most of its cells
            cut = np.flatnonzero(np.diff((ends * CHUNK - 1) // SCATTER_PIECE)) + 1
            for lo, hi in zip([0, *cut.tolist()], [*cut.tolist(), len(counts)]):
                fired = counts[lo:hi]
                chunk = np.arange(ends[lo] - fired[0], ends[hi - 1]) + np.repeat(shift[lo:hi], fired)
                slots = fired * CHUNK
                target = np.take(target_of, chunk, axis=0).reshape(-1)
                weight = np.take(weight_of, chunk, axis=0).reshape(-1)
                weight *= np.repeat(source[lo:hi], slots)
                np.add.at(flat, np.repeat(rows[lo:hi] * n, slots) + target, weight)
        # One cap per round equals a cap after every increment: the
        # increments are nonnegative, so a sum that passes 1 stays there.
        np.minimum(flat, 1.0, out=flat)
        if trace is not None:
            trace.append(h.copy())
    return steps


def _lender_words(cal: CalibratedNetwork) -> np.ndarray:
    """(words x nodes) uint64, column i the bitset of node i's lenders."""
    lender, n = cal.net.lender, cal.net.n_nodes
    bits = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)  # lender j: bit j % 8 of byte j // 8
    np.bitwise_or.at(bits, (cal.net.borrower, lender >> 3), (1 << (lender & 7)).astype(np.uint8))
    return bits.view(np.uint64).T.copy()


def _reach_block(h: np.ndarray, seeds: np.ndarray, words: np.ndarray,
                 trace: Optional[list]) -> np.ndarray:
    """Zero-reserve cascades of ``seeds`` from round 2 on in the rows of ``h``; return rounds."""
    b, n = h.shape
    unpack = lambda w: np.unpackbits(w.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
    pack = lambda m: np.packbits(m, axis=1, bitorder="little").view(np.uint64)
    fresh = np.pad(h > 0.0, ((0, 0), (0, 64 * len(words) - n)))  # bool, then bits
    seen = pack(fresh)  # per row the reached nodes' bits
    fresh[np.arange(b), seeds] = False  # the seeds fired in round 1
    steps, fresh, rows = np.ones(b, dtype=np.int64), pack(fresh), np.arange(b)
    for rounds in range(2, n + 2):  # round r fires from hop distance r - 1 < n
        # Fire last round's new nodes that have lenders: OR their lender words
        # per row, gathered along each word's nodes.
        front, nodes = np.divmod(np.flatnonzero(unpack(fresh) & words.any(axis=0)), n)
        if not nodes.size:
            break
        starts = np.flatnonzero(np.diff(front, prepend=-1))
        rows = rows[front[starts]]
        steps[rows] = rounds
        fresh = np.bitwise_or.reduceat(np.take(words, nodes, axis=1), starts, axis=1)
        fresh = np.ascontiguousarray(fresh.T) & ~seen[rows]
        seen[rows] |= fresh
        if trace is not None:
            trace.append(unpack(seen).astype(float))
    h[...] = unpack(seen)
    return steps


def _first_round(cal: CalibratedNetwork, seeds: np.ndarray, ratio: np.ndarray,
                 trace: Optional[list]) -> tuple[np.ndarray, np.ndarray]:
    """Distress after round 1 of the distinct ``seeds`` at fund ``ratio``,
    and the rows in which it distressed a lender; extends ``trace``."""
    net, n = cal.net, cal.net.n_nodes
    row = np.full(n, -1)
    row[seeds] = np.arange(len(seeds))
    mine = np.flatnonzero(row[net.borrower] >= 0)  # the seeds' loans
    row, lender, loss = row[net.borrower[mine]], net.lender[mine], net.amount[mine]
    weight = edge_weights(loss - loss * ratio[row], cal.reserve[lender])
    h = np.zeros((len(seeds), n))
    h[np.arange(len(seeds)), seeds] = 1.0
    h[row, lender] = np.minimum(1.0, weight)
    if trace is not None:  # one seed: before round 1, and after it if it fired an edge
        trace += [np.eye(1, n, seeds[0])] + [h.copy()] * bool(row.size)
    return h, np.flatnonzero(np.bincount(row[weight > 0.0], minlength=len(seeds)))


def _cascades(cal: CalibratedNetwork, seeds: np.ndarray,
              trace: Optional[list] = None) -> CascadeEnsemble:
    """Cascades from the distinct ``seeds``, one row each. ``trace``, passed
    for a single seed, collects the distress rows before the first round
    and after each round that fired an edge."""
    n = cal.net.n_nodes
    if n < 2:
        raise InputError("cascade needs at least 2 nodes")
    rows = max(1, BLOCK_CELLS // n)
    ratio = np.concatenate([_fund_ratios(cal, seeds[lo:lo + rows])
                            for lo in range(0, len(seeds), rows)])
    h, live = _first_round(cal, seeds, ratio, trace)
    reach = not cal.reserve.any()  # see the module docstring
    kernel = _reach_block if reach else _sweep_block
    if live.size:  # the kernel's tables, only when a row goes on to it
        tables = _lender_words(cal) if reach else (  # the pull tables built once, if ever
            *_chunk_tables(propagation_weights(cal), n), cache(lambda: _pull_tables(cal)))
    steps = np.ones(len(seeds), dtype=np.int64)
    for lo in range(0, len(live), rows):
        pick = live[lo:lo + rows]
        block = h[pick]
        steps[pick] = kernel(block, seeds[pick], tables, trace)
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
