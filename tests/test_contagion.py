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

from loan_dicts import loans_of, network
from oracle import naive_cascade, naive_payouts

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


@st.composite
def small_networks(draw, max_nodes=5, amounts=st.floats(0.5, 10.0)):
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    loans = {pair: draw(amounts) for pair in sorted(chosen)}
    return network(tuple(str(k) for k in range(n)), loans)


# A tiny eta can overflow loss / reserve to an infinite weight, which
# the cap at 1 handles like a zero reserve; the oracle agrees. The
# 40-node example sums a pool long enough that pairwise summation
# would change its bits.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
    # (a share of the reserve) is empty.
    ens = run_ensemble(calibrate(net, CalibrationParams(beta=10.0, eta=0.0, alpha=alpha)))
    for seed in range(net.n_nodes):
        depth = _bfs_depths(net, seed)
        assert set(np.flatnonzero(ens.defaulted[seed]).tolist()) == set(depth)
        assert ens.steps[seed] <= 1 + max(depth.values())


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
    for name in ("out_strength", "in_strength", "out_degree", "in_degree"):
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
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    net=small_networks(max_nodes=7),
    etas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.2)), min_size=3, max_size=3),
    alphas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
)
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
