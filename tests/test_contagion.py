import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibrisk import (
    CalibrationParams,
    FinancialNetwork,
    InputError,
    SeedSpec,
    calibrate,
    compute_rescue_payouts,
    run_cascade,
    run_ensemble,
)
from ibrisk import contagion

from oracle import naive_cascade, naive_payouts

PARAMS = CalibrationParams(beta=10.0, eta=0.05, alpha=0.0)
PARAMS_FUND = CalibrationParams(beta=10.0, eta=0.05, alpha=1.0)


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
    outcome = run_cascade(cal, SeedSpec(0), record_trace=True)
    assert outcome.final_distress.tolist() == [1.0, 1.0, 1.0]
    assert outcome.defaulted == {0, 1, 2}
    assert outcome.steps == 2
    # Step 1 defaults node 2 via weight 2, step 2 defaults node 3.
    assert outcome.trace[1].tolist() == [1.0, 1.0, 0.0]


def test_cascade_t3_fund_stops_contagion(t3):
    cal = calibrate(t3, PARAMS_FUND)
    outcome = run_cascade(cal, SeedSpec(0))
    # Payout 7 leaves a loss of 1 on node 2: h_2 = 1/4, h_3 = 0.25 * 2.
    assert outcome.final_distress.tolist() == [1.0, 0.25, 0.5]
    assert outcome.defaulted == {0}


def test_cascade_seed_without_lenders(t3):
    cal = calibrate(t3, PARAMS)
    outcome = run_cascade(cal, SeedSpec(2))
    assert outcome.defaulted == {2}
    assert outcome.steps == 1


def test_cascade_unknown_seed(t3):
    cal = calibrate(t3, PARAMS)
    with pytest.raises(InputError):
        run_cascade(cal, SeedSpec(7))


def test_seed_counts_as_defaulted_for_partial_distress(t3):
    cal = calibrate(t3, PARAMS)
    outcome = run_cascade(cal, SeedSpec(0, initial_distress=0.25))
    assert 0 in outcome.defaulted


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


def test_zero_reserve_defaults_on_any_loss(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.0, alpha=0.0))
    outcome = run_cascade(cal, SeedSpec(0))
    assert outcome.defaulted == {0, 1, 2}


def _random_network(rng):
    n = int(rng.integers(2, 6))
    nodes = tuple(str(k) for k in range(n))
    loans = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                loans[(i, j)] = float(rng.integers(1, 9))
    return FinancialNetwork(nodes, loans)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_matches_naive_oracle(alpha):
    rng = np.random.default_rng(42)
    for _ in range(40):
        net = _random_network(rng)
        eta = float(rng.choice([0.0, 0.02, 0.05]))
        cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
        for seed in range(net.n_nodes):
            engine = run_cascade(cal, SeedSpec(seed))
            payouts = naive_payouts(net.loans, cal.fund_contribution.tolist(), seed)
            h, defaulted, steps = naive_cascade(
                net.n_nodes, net.loans, cal.reserve.tolist(), seed, payouts=payouts
            )
            assert engine.final_distress.tolist() == h
            assert engine.defaulted == defaulted
            assert engine.steps == steps


@st.composite
def small_networks(draw, max_nodes=5):
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    loans = {pair: draw(st.floats(0.5, 10.0)) for pair in sorted(chosen)}
    return FinancialNetwork(tuple(str(k) for k in range(n)), loans)


# A tiny eta can overflow loss / reserve to an infinite weight, which
# the cap at 1 handles like a zero reserve; the oracle agrees.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(),
    eta=st.floats(0.0, 0.2),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_fund_path_matches_oracle_property(net, eta, alpha):
    # alpha = 0 empties the fund: the cascade is the oracle's without
    # payouts, so no separate fund switch is needed.
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    for seed in range(net.n_nodes):
        engine = run_cascade(cal, SeedSpec(seed))
        payouts = None
        if alpha > 0.0:
            payouts = naive_payouts(net.loans, cal.fund_contribution.tolist(), seed)
        h, defaulted, steps = naive_cascade(
            net.n_nodes, net.loans, cal.reserve.tolist(), seed, payouts=payouts
        )
        assert engine.final_distress.tolist() == h
        assert engine.defaulted == defaulted
        assert engine.steps == steps


# The kernel sweeps SEED_BLOCK seeds together and scatters a round in
# pieces of SCATTER_PIECE fired edges; tiny values split both inside a
# round, which must not change a single bit.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(max_nodes=7),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.02)),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    block=st.integers(1, 3),
    piece=st.integers(1, 3),
)
def test_ensemble_matches_oracle_property(net, eta, alpha, block, piece):
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=eta, alpha=alpha))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contagion, "SEED_BLOCK", block)
        patch.setattr(contagion, "SCATTER_PIECE", piece)
        ens = run_ensemble(cal)
    assert ens.final_distress.shape == ens.defaulted.shape == (net.n_nodes, net.n_nodes)
    for seed in range(net.n_nodes):
        payouts = naive_payouts(net.loans, cal.fund_contribution.tolist(), seed)
        h, defaulted, steps = naive_cascade(
            net.n_nodes, net.loans, cal.reserve.tolist(), seed, payouts=payouts
        )
        assert ens.final_distress[seed].tolist() == h
        assert set(np.flatnonzero(ens.defaulted[seed]).tolist()) == defaulted
        assert ens.steps[seed] == steps


def _bfs_depths(net, seed):
    """Hop distance from the seed to every node it reaches along
    propagation edges (borrower -> lender)."""
    lenders = {}
    for lender, borrower in net.loans:
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
    # (a share of the reserve) is empty.
    ens = run_ensemble(calibrate(net, CalibrationParams(beta=10.0, eta=0.0, alpha=alpha)))
    for seed in range(net.n_nodes):
        depth = _bfs_depths(net, seed)
        assert set(np.flatnonzero(ens.defaulted[seed]).tolist()) == set(depth)
        assert ens.steps[seed] <= 1 + max(depth.values())


def test_monotone_in_alpha(t3):
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = _random_network(rng)
        for seed in range(net.n_nodes):
            previous = None
            for alpha in [0.0, 0.25, 0.5, 0.75, 1.0]:
                cal = calibrate(net, CalibrationParams(10.0, 0.02, alpha))
                h = run_cascade(cal, SeedSpec(seed)).final_distress
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
                h = run_cascade(cal, SeedSpec(seed)).final_distress
                if previous is not None:
                    assert np.all(h <= previous + 1e-15)
                previous = h


def test_steps_bounded_by_link_count(t3):
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = _random_network(rng)
        cal = calibrate(net, CalibrationParams(10.0, 0.02, 0.0))
        for seed in range(net.n_nodes):
            outcome = run_cascade(cal, SeedSpec(seed))
            assert outcome.steps <= max(1, len(net.loans))


def test_distress_nondecreasing_and_capped(t3):
    cal = calibrate(t3, PARAMS)
    outcome = run_cascade(cal, SeedSpec(0), record_trace=True)
    for before, after in zip(outcome.trace, outcome.trace[1:]):
        assert np.all(after >= before)
        assert np.all(after <= 1.0)


def test_deterministic(t3):
    cal = calibrate(t3, PARAMS_FUND)
    a = run_cascade(cal, SeedSpec(0))
    b = run_cascade(cal, SeedSpec(0))
    assert a.final_distress.tolist() == b.final_distress.tolist()
    assert a.defaulted == b.defaulted
