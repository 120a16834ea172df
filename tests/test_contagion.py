import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibrisk import (
    CalibrationParams,
    FinancialNetwork,
    InputError,
    calibrate,
    compute_rescue_payouts,
    SyntheticSpec,
    conditional_default_matrix,
    generate_synthetic,
    run_cascade,
    run_ensemble,
)
from ibrisk import contagion

from loan_dicts import loans_of, network, small_networks
from oracle import naive_cascade, naive_payouts
from reference import naive_trace

PARAMS = CalibrationParams(beta=10.0, eta=0.05, alpha=0.0)
PARAMS_FUND = CalibrationParams(beta=10.0, eta=0.05, alpha=1.0)


def _defaults(ens):
    """Default set of the first seed's cascade."""
    return set(np.flatnonzero(ens.defaulted[0]).tolist())


def test_rescue_payouts_rationed(t3):
    cal = calibrate(t3, PARAMS_FUND)
    # Seed 1 (index 0): lender 2 requests 8, pool is F_2 + F_3 = 7.
    payouts = compute_rescue_payouts(cal, 0)
    assert payouts.tolist() == [0.0, 7.0, 0.0]


def test_rescue_payouts_full_when_pool_suffices(t3):
    cal = calibrate(t3, PARAMS_FUND)
    # Seed 2 (index 1): lender 3 requests 6 <= pool 7, paid in full.
    payouts = compute_rescue_payouts(cal, 1)
    assert payouts.tolist() == [0.0, 0.0, 6.0]


def test_rescue_payouts_zero_without_tax(t3):
    cal = calibrate(t3, PARAMS)
    assert not np.any(compute_rescue_payouts(cal, 0))


def test_cascade_t3_no_fund_full_contagion(t3):
    cal = calibrate(t3, PARAMS)
    outcome = run_cascade(cal, 0)
    assert outcome.final_distress[0].tolist() == [1.0, 1.0, 1.0]
    assert _defaults(outcome) == {0, 1, 2}
    assert outcome.steps[0] == 2
    # Step 1 defaults node 2 via weight 2, step 2 defaults node 3.
    assert outcome.trace[1][0].tolist() == [1.0, 1.0, 0.0]


def test_cascade_t3_fund_stops_contagion(t3):
    cal = calibrate(t3, PARAMS_FUND)
    outcome = run_cascade(cal, 0)
    # Payout 7 leaves a loss of 1 on node 2: h_2 = 1/4, h_3 = 0.25 * 2.
    assert outcome.final_distress[0].tolist() == [1.0, 0.25, 0.5]
    assert _defaults(outcome) == {0}


def test_cascade_seed_without_lenders(t3):
    cal = calibrate(t3, PARAMS)
    outcome = run_cascade(cal, 2)
    assert _defaults(outcome) == {2}
    assert outcome.steps[0] == 1


@pytest.mark.parametrize("run", [run_cascade, compute_rescue_payouts], ids=lambda run: run.__name__)
@pytest.mark.parametrize("seed", [3, -1])
def test_cascade_unknown_seed(t3, seed, run):
    cal = calibrate(t3, PARAMS_FUND)
    with pytest.raises(InputError, match=f"unknown seed node index {seed}"):
        run(cal, seed)


def test_ensemble_default_sets(t3):
    cal = calibrate(t3, PARAMS)
    ens = run_ensemble(cal)
    assert [np.flatnonzero(row).tolist() for row in ens.defaulted] == [[0, 1, 2], [1, 2], [2]]


def test_ensemble_default_sets_with_fund(t3):
    cal = calibrate(t3, PARAMS_FUND)
    ens = run_ensemble(cal)
    assert [np.flatnonzero(row).tolist() for row in ens.defaulted] == [[0], [1], [2]]


def test_edgeless_network_only_seed_defaults():
    net = FinancialNetwork(("a", "b"))
    cal = calibrate(net, PARAMS)
    ens = run_ensemble(cal)
    assert [np.flatnonzero(row).tolist() for row in ens.defaulted] == [[0], [1]]


@pytest.mark.parametrize("nodes", [(), ("a",)])
def test_ensemble_needs_two_nodes(nodes):
    cal = calibrate(FinancialNetwork(nodes), PARAMS)
    with pytest.raises(InputError, match="at least 2 nodes"):
        run_ensemble(cal)


def test_zero_reserve_defaults_on_any_loss(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.0, alpha=0.0))
    outcome = run_cascade(cal, 0)
    assert _defaults(outcome) == {0, 1, 2}


def _random_network(rng):
    n = int(rng.integers(2, 6))
    nodes = tuple(str(k) for k in range(n))
    loans = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                loans[(i, j)] = float(rng.integers(1, 9))
    return network(nodes, loans)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_matches_naive_oracle(alpha):
    rng = np.random.default_rng(42)
    for _ in range(40):
        net = _random_network(rng)
        loans = loans_of(net)
        eta = float(rng.choice([0.0, 0.02, 0.05]))
        cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
        for seed in range(net.n_nodes):
            engine = run_cascade(cal, seed)
            payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
            h, defaulted, steps = naive_cascade(
                net.n_nodes, loans, cal.reserve.tolist(), seed, payouts=payouts
            )
            assert engine.final_distress[0].tolist() == h
            assert _defaults(engine) == defaulted
            assert engine.steps[0] == steps


# A tiny eta can overflow loss / reserve to an infinite weight, which
# the cap at 1 handles like a zero reserve; the oracle agrees. The
# 40-node example sums a pool long enough that pairwise summation
# would change its bits.
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(),
    eta=st.floats(0.0, 0.2),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@example(net=generate_synthetic(SyntheticSpec(n_nodes=40)), eta=0.05, alpha=0.01)
def test_fund_path_matches_oracle_property(net, eta, alpha):
    # alpha = 0 empties the fund: the cascade is the oracle's without
    # payouts, so no separate fund switch is needed.
    loans = loans_of(net)
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    for seed in range(net.n_nodes):
        engine = run_cascade(cal, seed)
        payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
        expected = np.zeros(net.n_nodes)
        expected[list(payouts)] = list(payouts.values())
        assert compute_rescue_payouts(cal, seed).tobytes() == expected.tobytes()
        h, defaulted, steps = naive_cascade(
            net.n_nodes, loans, cal.reserve.tolist(), seed,
            payouts=payouts if alpha > 0.0 else None,
        )
        assert engine.final_distress[0].tolist() == h
        assert _defaults(engine) == defaulted
        assert engine.steps[0] == steps


# The kernel sweeps blocks of BLOCK_CELLS cells (here 1-3 seed rows),
# gathers edges in chunks of CHUNK slots (1-5, padded to the width) and
# scatters a round in pieces of whole frontier pairs cut every
# SCATTER_PIECE fired slots; tiny values split both inside a round,
# which must not change a single bit.
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(max_nodes=7),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.02)),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    block=st.integers(1, 3),
    piece=st.integers(1, 3),
    chunk=st.integers(1, 5),
)
def test_ensemble_matches_oracle_property(net, eta, alpha, block, piece, chunk):
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contagion, "BLOCK_CELLS", block * net.n_nodes)
        patch.setattr(contagion, "SCATTER_PIECE", piece)
        patch.setattr(contagion, "CHUNK", chunk)
        ens = run_ensemble(cal)
    assert ens.final_distress.shape == ens.defaulted.shape == (net.n_nodes, net.n_nodes)
    loans = loans_of(net)
    for seed in range(net.n_nodes):
        payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
        h, defaulted, steps = naive_cascade(
            net.n_nodes, loans, cal.reserve.tolist(), seed, payouts=payouts
        )
        assert ens.final_distress[seed].tolist() == h
        assert set(np.flatnonzero(ens.defaulted[seed]).tolist()) == defaulted
        assert ens.steps[seed] == steps


# Hub 0 borrows from lenders 1-4, so with pieces cut every 2 fired
# slots its pair is wider than a piece. Lenders 1 and 2 borrow from no
# one: in the round after seed 0 the frontier (seed 0; nodes 1-4) opens
# with two pairs that fire no edge, then 3 and 4 pass distress to 5.
HUB_LOANS = {(1, 0): 4.0, (2, 0): 3.0, (3, 0): 5.0, (4, 0): 2.5, (5, 3): 6.0, (5, 4): 1.5}


# Each (eta, alpha) leaves the hub's lenders a loss, so its cascade
# takes both rounds. With a fund, seeds 3 and 4 share a first-round
# piece and get different payout ratios (0.525 and 1 at 0.1, 0.1).
@pytest.mark.parametrize("eta, alpha", [(0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.3, 0.05)])
def test_ensemble_hub_wider_than_piece_matches_oracle(monkeypatch, eta, alpha):
    net = network(tuple(str(k) for k in range(6)), HUB_LOANS)
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    monkeypatch.setattr(contagion, "SCATTER_PIECE", 2)
    hub_chunks = contagion._chunk_tables(contagion.propagation_weights(cal), net.n_nodes)[1][0]
    assert hub_chunks * contagion.CHUNK >= 2 * contagion.SCATTER_PIECE  # two pieces' worth
    ens = run_ensemble(cal)
    for seed in range(net.n_nodes):
        payouts = naive_payouts(HUB_LOANS, cal.fund_contribution.tolist(), seed)
        h, defaulted, steps = naive_cascade(
            net.n_nodes, HUB_LOANS, cal.reserve.tolist(), seed, payouts=payouts
        )
        assert ens.final_distress[seed].tolist() == h
        assert set(np.flatnonzero(ens.defaulted[seed]).tolist()) == defaulted
        assert ens.steps[seed] == steps
    assert ens.steps[0] == 2  # the hub's cascade reaches node 5


@pytest.mark.parametrize("eta", [0.0, 0.005])
def test_ensemble_invariant_under_block_size(monkeypatch, eta):
    # 7 * 60 leaves a remainder block of 4 rows; 60 * 60 is one block.
    cal = calibrate(generate_synthetic(SyntheticSpec(n_nodes=60)), CalibrationParams(10.0, eta, 0.01))
    reference = run_ensemble(cal)
    for cells in (1, 60, 7 * 60, 60 * 60):
        monkeypatch.setattr(contagion, "BLOCK_CELLS", cells)
        ens = run_ensemble(cal)
        assert ens.final_distress.tobytes() == reference.final_distress.tobytes()
        assert ens.steps.tolist() == reference.steps.tolist()
        assert ens.defaulted.tolist() == reference.defaulted.tolist()


def _bfs_depths(net, seed):
    """Hop distance from the seed to every node it reaches along
    propagation edges (borrower -> lender)."""
    lenders = {}
    for lender, borrower in zip(net.lender.tolist(), net.borrower.tolist()):
        lenders.setdefault(borrower, []).append(lender)
    depth = {seed: 0}
    layer = [seed]
    while layer:
        following = []
        for node in layer:
            for lender in lenders.get(node, ()):
                if lender not in depth:
                    depth[lender] = depth[node] + 1
                    following.append(lender)
        layer = following
    return depth


@settings(max_examples=100, deadline=None)
@given(net=small_networks(max_nodes=7), alpha=st.sampled_from([0.0, 0.5, 1.0]))
def test_eta_zero_defaults_reachable_set(net, alpha):
    # No reserve: any positive loss defaults the lender, and the fund
    # (a share of the reserve) is empty. A row fires edges in round d + 1
    # from each reached node at hop distance d that has lenders, and
    # counts at least one round.
    ens = run_ensemble(calibrate(net, CalibrationParams(beta=10.0, eta=0.0, alpha=alpha)))
    borrowers = set(net.borrower.tolist())
    for seed in range(net.n_nodes):
        depth = _bfs_depths(net, seed)
        assert set(np.flatnonzero(ens.defaulted[seed]).tolist()) == set(depth)
        assert set(ens.final_distress[seed].tolist()) <= {0.0, 1.0}
        assert ens.steps[seed] == max([1] + [1 + d for node, d in depth.items() if node in borrowers])


def _swept(cal, seeds, trace=None):
    """final_distress and steps of ``seeds`` from the edge-by-edge kernel,
    swept on every row in blocks of BLOCK_CELLS cells as ``_cascades``
    does, whatever the reserves. Round 1 is built loan by loan: each
    lender of a seed gets min(1, weight) of its exposure less the
    oracle's payout, as ``naive_cascade`` weighs a loss."""
    n = cal.net.n_nodes
    loans, reserve = loans_of(cal.net), cal.reserve.tolist()
    h = np.zeros((len(seeds), n))
    for row, seed in enumerate(seeds.tolist()):
        h[row, seed] = 1.0
        payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
        for (lender, borrower), amount in loans.items():
            if borrower == seed:
                loss, held = amount - payouts.get(lender, 0.0), reserve[lender]
                weight = 0.0 if loss <= 0.0 else math.inf if held == 0.0 else loss / held
                h[row, lender] = min(1.0, weight)
    if trace is not None:  # one seed: before round 1, and after it if it fired
        trace += [np.eye(1, n, seeds[0])] + [h.copy()] * (seeds[0] in cal.net.borrower)
    tables = contagion._chunk_tables(contagion.propagation_weights(cal), n)
    rows = max(1, contagion.BLOCK_CELLS // n)
    steps = [contagion._sweep_block(h[lo:lo + rows], seeds[lo:lo + rows], tables, trace)
             for lo in range(0, len(seeds), rows)]
    return h, np.concatenate(steps)


# With no reserve the reachability closure replaces the edge-by-edge
# kernel, which must give the same bits: 130 nodes take three 64-bit
# words per bitset, and the hub network has seeds without lenders.
@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("cells", [lambda n: 1, lambda n: 7 * n, None],
                         ids=["cells1", "cells7n", "default"])
@pytest.mark.parametrize("net", [
    generate_synthetic(SyntheticSpec(n_nodes=60)),
    generate_synthetic(SyntheticSpec(n_nodes=130)),
    network(tuple(str(k) for k in range(6)), HUB_LOANS),
], ids=["synth60", "synth130", "hub"])
def test_zero_reserve_closure_matches_sweep(monkeypatch, net, cells, alpha):
    n = net.n_nodes
    if cells is not None:
        monkeypatch.setattr(contagion, "BLOCK_CELLS", cells(n))
    cal = calibrate(net, CalibrationParams(10.0, 0.0, alpha))
    ens = run_ensemble(cal)
    h, steps = _swept(cal, np.arange(n))
    assert ens.final_distress.tobytes() == h.tobytes()
    assert ens.steps.tolist() == steps.tolist()
    assert ens.defaulted.tolist() == (h >= 1.0 - contagion.DEFAULT_TOLERANCE).tolist()
    for seed in range(0, n, 7):
        one, trace = run_cascade(cal, seed), []
        _swept(cal, np.array([seed]), trace)
        assert [x.tobytes() for x in one.trace] == [x.tobytes() for x in trace]


@pytest.mark.parametrize("eta, used, unused", [
    (0.0, "_reach_block", "_sweep_block"),
    (0.005, "_sweep_block", "_reach_block"),
])
def test_kernel_chosen_by_reserves(monkeypatch, eta, used, unused):
    calls = []

    def spy(name):
        kernel = getattr(contagion, name)

        def run(*args):
            calls.append(name)
            return kernel(*args)
        monkeypatch.setattr(contagion, name, run)

    spy(used)
    spy(unused)
    cal = calibrate(generate_synthetic(SyntheticSpec(n_nodes=60)), CalibrationParams(10.0, eta, 0.01))
    run_ensemble(cal)
    run_cascade(cal, 0)
    assert calls and set(calls) == {used}


# The driver runs round 1 itself, and only rows with a distressed lender
# go on to a kernel; every row must keep the bits of the kernel swept on
# all rows after round 1 built loan by loan. The t3 examples have a seed
# without lenders, a fully funded one and a rationed one, there with
# ratio 7 / 8, here 140 * 0.0571 / 8 = 0.99925.
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(max_nodes=8),
    eta=st.one_of(st.sampled_from([0.0, 0.1, 0.5]), st.floats(0.0, 0.5)),
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    cells=st.sampled_from([lambda n: 1, lambda n: 7 * n, lambda n: contagion.BLOCK_CELLS]),
)
@example(net=network(("1", "2", "3"), {(1, 0): 8.0, (2, 1): 6.0}), eta=0.05, alpha=1.0,
         cells=lambda n: 1)
@example(net=network(("1", "2", "3"), {(1, 0): 8.0, (2, 1): 6.0}), eta=0.0571, alpha=1.0,
         cells=lambda n: 7 * n)
def test_settled_seeds_match_sweep_property(net, eta, alpha, cells):
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contagion, "BLOCK_CELLS", cells(net.n_nodes))
        ens = run_ensemble(cal)
        h, steps = _swept(cal, np.arange(net.n_nodes))
    assert ens.final_distress.tobytes() == h.tobytes()
    assert ens.steps.tolist() == steps.tolist()
    assert ens.defaulted.tolist() == (h >= 1.0 - contagion.DEFAULT_TOLERANCE).tolist()


def test_settled_seeds_skip_the_kernel(monkeypatch):
    rows, kernel = [], contagion._sweep_block

    def spy(h, *args):
        rows.append(len(h))
        return kernel(h, *args)
    monkeypatch.setattr(contagion, "_sweep_block", spy)
    # Round 1 distresses no lender of 792 of 1,000 seeds (fully funded or
    # without lenders); the other 208 fill 4 blocks of at most 65 rows.
    net = generate_synthetic(SyntheticSpec(n_nodes=1000))
    ens = run_ensemble(calibrate(net, CalibrationParams(10.0, 0.005, 0.01)))
    assert rows == [65, 65, 65, 13]
    assert (ens.steps == 1).sum() == 792
    # At alpha 1 the fund pays every seed's lenders in full: no kernel runs,
    # and run_cascade keeps the snapshots before and after round 1.
    net = generate_synthetic(SyntheticSpec(n_nodes=300))
    cal = calibrate(net, CalibrationParams(10.0, 0.05, 1.0))
    ens = run_ensemble(cal)
    assert rows == [65, 65, 65, 13]
    assert ens.final_distress.tobytes() == np.eye(300).tobytes()
    assert ens.steps.tolist() == [1] * 300
    one = run_cascade(cal, 0)
    assert rows[4:] == []
    assert [x.tobytes() for x in one.trace] == [np.eye(300)[:1].tobytes()] * 2


# When round 1 leaves no row for a kernel, as at alpha 1 where the fund
# pays every seed's lenders in full, _cascades builds no kernel table;
# the rows keep the bits of the sweep kernel run on every row.
def test_no_live_row_builds_no_kernel_tables(monkeypatch):
    calls = []
    for name in ("propagation_weights", "_chunk_tables", "_lender_words"):
        def spy(*args, name=name, build=getattr(contagion, name)):
            calls.append(name)
            return build(*args)
        monkeypatch.setattr(contagion, name, spy)
    net = generate_synthetic(SyntheticSpec(n_nodes=1000))
    run_ensemble(calibrate(net, CalibrationParams(10.0, 0.005, 0.01)))
    assert calls == ["propagation_weights", "_chunk_tables"]
    cal = calibrate(net, CalibrationParams(10.0, 0.05, 1.0))
    ens = run_ensemble(cal)
    assert calls == ["propagation_weights", "_chunk_tables"]
    seeds = np.arange(net.n_nodes)
    h, _ = contagion._first_round(cal, seeds, contagion._fund_ratios(cal, seeds), None)
    tables = contagion._chunk_tables(contagion.propagation_weights(cal), net.n_nodes)
    steps = contagion._sweep_block(h, seeds, tables, None)
    assert ens.final_distress.tobytes() == h.tobytes()
    assert ens.steps.tolist() == steps.tolist()


# run_cascade takes the driver's path of run_ensemble: its row, steps and
# defaults keep the bits of the seed's ensemble row, and its trace holds
# the rows before round 1, after it when the seed has lenders, and after
# each later round that fired, the last one the final row.
@settings(max_examples=100, deadline=None)
@given(
    net=small_networks(max_nodes=8),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    cells=st.sampled_from([lambda n: 1, lambda n: 7 * n, lambda n: contagion.BLOCK_CELLS]),
)
def test_run_cascade_matches_ensemble_row_property(net, eta, alpha, cells):
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contagion, "BLOCK_CELLS", cells(net.n_nodes))
        ens = run_ensemble(cal)
        ones = [run_cascade(cal, seed) for seed in range(net.n_nodes)]
    borrowers = set(net.borrower.tolist())
    for seed, one in enumerate(ones):
        assert one.final_distress.tobytes() == ens.final_distress[seed:seed + 1].tobytes()
        assert one.steps.tolist() == ens.steps[seed:seed + 1].tolist()
        assert one.defaulted.tolist() == ens.defaulted[seed:seed + 1].tolist()
        assert len(one.trace) == one.steps[0] + (seed in borrowers)
        assert one.trace[0].tobytes() == np.eye(1, net.n_nodes, seed).tobytes()
        assert one.trace[-1].tobytes() == one.final_distress.tobytes()


# run_cascade's trace holds the same snapshots as the naive loop, bit for
# bit, for every seed. The t3 examples hold a seed without lenders (node
# '3') and, at alpha 1, a fully funded one (node '2'); one adds an
# isolated node, and one has no reserve, where every weight is infinite.
@settings(max_examples=100, deadline=None)
@given(
    net=small_networks(max_nodes=8),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
)
@example(net=network(("1", "2", "3"), {(1, 0): 8.0, (2, 1): 6.0}), eta=0.05, alpha=1.0)
@example(net=network(("1", "2", "3", "zz"), {(1, 0): 8.0, (2, 1): 6.0}), eta=0.05, alpha=0.5)
@example(net=network(("1", "2", "3"), {(1, 0): 8.0, (2, 1): 6.0}), eta=0.0, alpha=0.0)
def test_trace_matches_naive_trace_property(net, eta, alpha):
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    loans = loans_of(net)
    for seed in range(net.n_nodes):
        payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
        expected = naive_trace(net.n_nodes, loans, cal.reserve.tolist(), seed, payouts)
        trace = run_cascade(cal, seed).trace
        assert np.concatenate(trace).tobytes() == np.array(expected).tobytes()


# At eta 1e-310 the reserves are subnormal and loss / reserve overflows
# to inf; a cell's sum of infinite increments overflows in the scatter,
# which is capped to 1 like any sum past it and must raise no warning.
def test_tiny_eta_scatter_overflow_is_silent():
    net = generate_synthetic(SyntheticSpec(n_nodes=50))
    cal = calibrate(net, CalibrationParams(10.0, 1e-310, 0.01))
    assert cal.reserve.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = run_ensemble(cal)
    loans = loans_of(net)
    for seed in range(net.n_nodes):
        payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
        h, _, steps = naive_cascade(net.n_nodes, loans, cal.reserve.tolist(), seed, payouts=payouts)
        assert ens.final_distress[seed].tolist() == h
        assert ens.steps[seed] == steps


def _force_pull(patch):
    """Make every round of the edge kernel pull, unless a weight is +inf;
    return the list of tables that _pull_tables builds."""
    built, build = [], contagion._pull_tables
    patch.setattr(contagion, "PULL_MIN", 0)
    patch.setattr(contagion, "PUSH_SLOT", math.inf)
    patch.setattr(contagion, "_pull_tables", lambda *args: built.append(build(*args)) or built[-1])
    return built


# Pull rounds fold each target's own cell and its sources in ascending
# order down axis 0, which must keep the oracle's bits in every row, in
# blocks of 1-3 rows, and in run_cascade's snapshots. The last example's
# seed 0 ends with other bits if a pull adds sources in descending order.
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(max_nodes=8),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.02)),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    block=st.integers(1, 3),
)
@example(net=network(("1", "2", "3"), {(1, 0): 8.0, (2, 1): 6.0}), eta=0.02, alpha=0.0, block=1)
@example(net=network(tuple("abcde"), {(i, j): i + 2.0 * j + 1 for i in range(5) for j in range(5)
                                      if i != j}), eta=0.01, alpha=0.5, block=2)
@example(net=network(tuple("01234"), {(0, 1): 6.0, (1, 0): 1.0, (1, 2): 9.0, (1, 3): 3.0, (2, 1): 2.0,
                                      (2, 3): 9.0, (3, 1): 2.0, (4, 1): 9.0, (4, 3): 1.0}),
         eta=0.02, alpha=0.0, block=1)
def test_forced_pull_matches_oracle_property(net, eta, alpha, block):
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    with pytest.MonkeyPatch.context() as patch:
        _force_pull(patch)
        patch.setattr(contagion, "BLOCK_CELLS", block * net.n_nodes)
        ens = run_ensemble(cal)
        traces = [run_cascade(cal, seed).trace for seed in range(net.n_nodes)]
    loans = loans_of(net)
    for seed in range(net.n_nodes):
        payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
        h, defaulted, steps = naive_cascade(
            net.n_nodes, loans, cal.reserve.tolist(), seed, payouts=payouts
        )
        assert ens.final_distress[seed].tobytes() == np.array(h).tobytes()
        assert set(np.flatnonzero(ens.defaulted[seed]).tolist()) == defaulted
        assert ens.steps[seed] == steps
        expected = naive_trace(net.n_nodes, loans, cal.reserve.tolist(), seed, payouts)
        assert np.concatenate(traces[seed]).tobytes() == np.array(expected).tobytes()


# Node 8 lent 1 to the seed 0 and to each of its lenders 1-7, so in round
# 2 of a one-row block it alone folds 9 terms: its own cell, the spent
# seed's +0.0 and 7 increments. A (9 x 1 x 1) array would be summed
# pairwise along its one contiguous axis, which changes the bits here;
# the spare zero column keeps the sum sequential.
def test_pull_of_a_wide_target_keeps_sequential_bits(monkeypatch):
    loans = {**{(i, 0): float(i) for i in range(1, 8)}, **{(8, i): 1.0 for i in range(8)}}
    net = network(tuple(str(k) for k in range(9)), loans)
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=0.5, alpha=0.0))
    built = _force_pull(monkeypatch)
    monkeypatch.setattr(contagion, "BLOCK_CELLS", net.n_nodes)
    ens, one = run_ensemble(cal), run_cascade(cal, 0)
    assert [index.shape for index, _ in built[0]][-1] == (9, 1)  # node 8 alone
    h, _, steps = naive_cascade(net.n_nodes, loans, cal.reserve.tolist(), 0)
    assert 0.0 < h[8] < 1.0 and steps == 2
    assert one.final_distress.tobytes() == ens.final_distress[:1].tobytes() == np.array([h]).tobytes()
    assert [x.tobytes() for x in one.trace] == [
        np.array([x]).tobytes() for x in naive_trace(net.n_nodes, loans, cal.reserve.tolist(), 0)
    ]


# At eta 1e-310 weights overflow to +inf, and inf * 0.0 is NaN: the pull
# of an idle source would poison its target, so every round stays push.
def test_infinite_weight_keeps_push(monkeypatch):
    net = generate_synthetic(SyntheticSpec(n_nodes=50))
    cal = calibrate(net, CalibrationParams(10.0, 1e-310, 0.01))
    assert np.isinf(contagion.propagation_weights(cal).weight).any()
    built = _force_pull(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = run_ensemble(cal)
    assert built == [[]]
    loans = loans_of(net)
    for seed in range(net.n_nodes):
        payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
        h, _, steps = naive_cascade(net.n_nodes, loans, cal.reserve.tolist(), seed, payouts=payouts)
        assert ens.final_distress[seed].tobytes() == np.array(h).tobytes()
        assert ens.steps[seed] == steps


# With the default selection, pull tables are built at most once per
# ensemble, on the first dense round: never at N=180, where b * S stays
# below PULL_MIN, and once at N=1000, for the second rounds of the three
# full 65-row blocks; the thin remainder block of 13 rows pushes.
@pytest.mark.parametrize("n, builds", [(180, 0), (1000, 1)])
def test_default_selection_builds_pull_tables_once(monkeypatch, n, builds):
    calls, build = [], contagion._pull_tables
    monkeypatch.setattr(contagion, "_pull_tables", lambda *args: calls.append(args) or build(*args))
    net = generate_synthetic(SyntheticSpec(n_nodes=n))
    run_ensemble(calibrate(net, CalibrationParams(10.0, 0.005, 0.01)))
    assert len(calls) == builds


# Integer amounts sum exactly in any order, so relabelling the nodes
# can change no strength bit, and the integer delta must follow them.
@settings(max_examples=100, deadline=None)
@given(
    net=small_networks(max_nodes=7, amounts=st.integers(1, 9).map(float)),
    eta=st.sampled_from([0.0, 0.01, 0.02, 0.05]),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    data=st.data(),
)
def test_relabelling_permutes_delta_and_strengths(net, eta, alpha, data):
    perm = np.array(data.draw(st.permutations(range(net.n_nodes))))  # node k becomes perm[k]
    nodes = tuple(net.nodes[k] for k in np.argsort(perm).tolist())
    relabelled = FinancialNetwork(nodes, perm[net.lender], perm[net.borrower], net.amount)

    def named(x):
        return {(x.nodes[i], x.nodes[j]): a for (i, j), a in loans_of(x).items()}

    assert named(relabelled) == named(net)
    params = CalibrationParams(beta=10.0, eta=eta, alpha=alpha)
    base, moved = calibrate(net, params), calibrate(relabelled, params)
    for name in ("out_strength", "in_strength"):
        moved_values, values = getattr(moved.strengths, name), getattr(base.strengths, name)
        assert moved_values[perm].tolist() == values.tolist()
    _, delta = conditional_default_matrix(run_ensemble(base))
    _, moved_delta = conditional_default_matrix(run_ensemble(moved))
    assert moved_delta[perm].tolist() == delta.tolist()


def test_monotone_in_alpha(t3):
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = _random_network(rng)
        for seed in range(net.n_nodes):
            previous = None
            for alpha in [0.0, 0.25, 0.5, 0.75, 1.0]:
                cal = calibrate(net, CalibrationParams(10.0, 0.02, alpha))
                h = run_cascade(cal, seed).final_distress[0]
                if previous is not None:
                    assert np.all(h <= previous + 1e-15)
                previous = h


def test_monotone_in_eta():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = _random_network(rng)
        for seed in range(net.n_nodes):
            previous = None
            for eta in [0.0, 0.005, 0.01, 0.02, 0.05]:
                cal = calibrate(net, CalibrationParams(10.0, eta, 0.5))
                h = run_cascade(cal, seed).final_distress[0]
                if previous is not None:
                    assert np.all(h <= previous + 1e-15)
                previous = h


# iso_curve's bisection assumes cascade risk never rises with alpha;
# per node, neither a larger fund nor a larger reserve may add a default,
# and no seed's run may gain a defaulted node.
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(max_nodes=7),
    etas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.2)), min_size=3, max_size=3),
    alphas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
)
# 56 of its 60 seeds are rationed, and delta moves with both eta and alpha.
@example(net=generate_synthetic(SyntheticSpec(n_nodes=60)), etas=[0.002, 0.01, 0.005],
         alphas=[0.001, 0.01, 0.003])
def test_delta_nonincreasing_in_alpha_and_eta_property(net, etas, alphas):
    def outcome(eta, alpha):
        ensemble = run_ensemble(calibrate(net, CalibrationParams(10.0, eta, alpha)))
        return conditional_default_matrix(ensemble)[1], ensemble.defaulted

    eta_lo, eta_hi, eta = sorted(etas[:2]) + etas[2:]
    alpha_lo, alpha_hi, alpha = sorted(alphas[:2]) + alphas[2:]
    for (delta_lo, mask_lo), (delta_hi, mask_hi) in [
        (outcome(eta, alpha_lo), outcome(eta, alpha_hi)),
        (outcome(eta_lo, alpha), outcome(eta_hi, alpha)),
    ]:
        assert np.all(delta_hi <= delta_lo)
        assert not np.any(mask_hi & ~mask_lo)


def test_steps_bounded_by_link_count(t3):
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = _random_network(rng)
        cal = calibrate(net, CalibrationParams(10.0, 0.02, 0.0))
        for seed in range(net.n_nodes):
            outcome = run_cascade(cal, seed)
            assert outcome.steps[0] <= max(1, net.n_edges)


def test_distress_nondecreasing_and_capped(t3):
    cal = calibrate(t3, PARAMS)
    outcome = run_cascade(cal, 0)
    for before, after in zip(outcome.trace, outcome.trace[1:]):
        assert np.all(after >= before)
        assert np.all(after <= 1.0)


def test_deterministic(t3):
    cal = calibrate(t3, PARAMS_FUND)
    a = run_cascade(cal, 0)
    b = run_cascade(cal, 0)
    assert a.final_distress.tolist() == b.final_distress.tolist()
    assert a.defaulted.tolist() == b.defaulted.tolist()
