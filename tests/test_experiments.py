import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibrisk import (
    CalibrationError,
    CalibrationParams,
    FinancialNetwork,
    InputError,
    IsoPoint,
    ParameterError,
    RoiRates,
    SyntheticSpec,
    calibrate,
    evaluate_point,
    experiments,
    generate_synthetic,
    iso_curve,
    node_strengths,
    sweep,
)
from ibrisk.experiments import DEFAULT_ALPHA_GRID, DEFAULT_ETA_GRID

from loan_dicts import loans_of, network, small_networks
from reference import naive_iso, naive_point, naive_sweep

T3 = network(("1", "2", "3"), {(1, 0): 8.0, (2, 1): 6.0})
T3_ISOLATED = network(("1", "2", "3", "zz"), {(1, 0): 8.0, (2, 1): 6.0})


def test_sweep_alpha_t3(t3):
    rows = sweep(t3, CalibrationParams(10.0, 0.05, 0.0), "alpha", (0.0, 1.0))
    assert [row.cascade_risk for row in rows] == [0.5, 0.0]
    assert [row.param_value for row in rows] == [0.0, 1.0]


def test_sweep_eta_monotone(t3):
    rows = sweep(t3, CalibrationParams(10.0, 0.0, 0.0), "eta", DEFAULT_ETA_GRID)
    risks = [row.cascade_risk for row in rows]
    assert all(b <= a for a, b in zip(risks, risks[1:]))


def test_sweep_edgeless_all_zero():
    net = FinancialNetwork(("a", "b", "c"))
    rows = sweep(net, CalibrationParams(10.0, 0.0, 0.0), "eta", (0.0, 0.01, 0.05), rates=None)
    assert all(row.cascade_risk == 0.0 for row in rows)
    assert all(row.avg_debtrank == 0.0 for row in rows)


# With rates given, ROI is undefined at a zero balance (an isolated node):
# the point fails before its seed ensemble runs.
def test_zero_balance_fails_before_ensemble(monkeypatch):
    def no_ensemble(cal):
        raise AssertionError("the seed ensemble ran")

    monkeypatch.setattr(experiments, "run_ensemble", no_ensemble)
    net = FinancialNetwork(("a", "b", "c"), lender=[0], borrower=[1], amount=[5.0])
    params = CalibrationParams(10.0, 0.005, 0.0)
    with pytest.raises(ParameterError, match="^node 'c' has zero balance; ROI undefined$"):
        evaluate_point(calibrate(net, params))
    with pytest.raises(ParameterError, match="^node 'c' has zero balance; ROI undefined$"):
        sweep(net, params, "alpha", DEFAULT_ALPHA_GRID)


# A rate whose ROI overflows float64 at t3's node '2' (it lends 8) fails
# in nominal_roi, before the seed ensemble, with no numpy warning.
def test_roi_overflow_fails_before_ensemble(t3, monkeypatch):
    def no_ensemble(cal):
        raise AssertionError("the seed ensemble ran")

    monkeypatch.setattr(experiments, "run_ensemble", no_ensemble)
    cal = calibrate(t3, CalibrationParams(10.0, 0.05, 0.0))
    with pytest.raises(ParameterError, match="^node '2': ROI overflows float64$"):
        evaluate_point(cal, RoiRates(roi_int=1e308))


# evaluate_point keeps the bits of plain loops over the naive oracle. In
# t3, node '3' is a seed without lenders and, at alpha 1, node '2' a fully
# funded one; one example adds an isolated node, one has eta 0.
@settings(max_examples=100, deadline=None)
@given(
    net=small_networks(max_nodes=8),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    rates=st.none() | st.just(RoiRates(roi_f=0.03))
    | st.builds(RoiRates, *[st.floats(-1.0, 1.0)] * 4),
    p_exo=st.floats(1e-6, 0.125),  # (1 + delta) * p_exo <= 1 for N <= 8
)
@example(net=network(("1", "2", "3", "zz"), {(1, 0): 8.0, (2, 1): 6.0}), eta=0.05,
         alpha=0.5, rates=None, p_exo=0.001)
@example(net=T3, eta=0.05, alpha=1.0, rates=RoiRates(), p_exo=0.001)
@example(net=T3, eta=0.0, alpha=0.0, rates=RoiRates(), p_exo=0.001)
def test_evaluate_point_matches_naive_point_property(net, eta, alpha, rates, p_exo):
    cal = calibrate(net, CalibrationParams(10.0, eta, alpha))
    if rates is not None and not cal.balance.all():  # ROI undefined at an isolated node
        with pytest.raises(ParameterError, match="zero balance; ROI undefined$"):
            evaluate_point(cal, rates, p_exo)
        return
    point = evaluate_point(cal, rates, p_exo)
    for name, value in naive_point(loans_of(net), cal, rates, p_exo).items():
        assert np.asarray(getattr(point, name)).tobytes() == np.asarray(value).tobytes(), name


def _bits(row):
    """A sweep row or iso point with each float as its bytes."""
    return tuple(np.float64(x).tobytes() if isinstance(x, float) else x for x in row)


def _grids(top):
    values = st.sampled_from([0.0, top]) | st.floats(0.0, top)
    return st.lists(values, min_size=1, max_size=3, unique=True).map(sorted).map(tuple)


# sweep keeps the bits of naive_point at each grid value. In t3, node '3'
# is a seed without lenders and, at eta 0.05 and alpha 1, node '2' a fully
# funded one; one example adds an isolated node, one sweeps eta from 0.
@settings(max_examples=50, deadline=None)
@given(
    net=small_networks(max_nodes=8),
    varying=st.sampled_from(["eta", "alpha"]),
    eta_grid=_grids(0.5),
    alpha_grid=_grids(1.0),
    eta=st.floats(0.0, 0.5),
    alpha=st.floats(0.0, 1.0),
    rates=st.none() | st.builds(RoiRates, *[st.floats(-1.0, 1.0)] * 4),
    p_exo=st.floats(1e-6, 0.125),  # (1 + delta) * p_exo <= 1 for N <= 8
)
@example(net=T3, varying="alpha", eta_grid=(0.0,), alpha_grid=(0.0, 0.5, 1.0), eta=0.05,
         alpha=0.0, rates=RoiRates(), p_exo=0.001)
@example(net=T3, varying="eta", eta_grid=(0.0, 0.05), alpha_grid=(0.0,), eta=0.0, alpha=1.0,
         rates=RoiRates(), p_exo=0.001)
@example(net=T3_ISOLATED, varying="alpha", eta_grid=(0.0,), alpha_grid=(0.0, 1.0), eta=0.05,
         alpha=0.0, rates=None, p_exo=0.001)
def test_sweep_matches_naive_sweep_property(net, varying, eta_grid, alpha_grid, eta, alpha,
                                            rates, p_exo):
    params = CalibrationParams(10.0, eta, alpha)
    grid = eta_grid if varying == "eta" else alpha_grid
    if rates is not None and not calibrate(net, params).balance.all():  # an isolated node
        with pytest.raises(ParameterError, match="zero balance; ROI undefined$"):
            sweep(net, params, varying, grid, rates, p_exo)
        return
    rows = sweep(net, params, varying, grid, rates, p_exo)
    expected = naive_sweep(net, params, varying, grid, rates, p_exo)
    assert [_bits(astuple(row)) for row in rows] == [_bits(row) for row in expected]


# iso_curve keeps the bits of the same bisection over naive_point's
# cascade risk; eta0 (1 + d) <= 0.88 stays feasible at beta 10. Examples:
# an isolated node, a bisection (t3 at eta 0.05, a 150% raise), eta 0, and
# a saturated point (t3 at eta 0.01, a 1000% raise). t3's node '3' is a
# seed without lenders, and at eta 0.05 alpha 1 funds seed '2' fully.
@settings(max_examples=100, deadline=None)
@given(
    net=small_networks(max_nodes=8),
    eta0=st.sampled_from([0.0, 0.01, 0.05]) | st.floats(0.0, 0.08),
    grid=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3, unique=True).map(sorted).map(tuple),
)
@example(net=T3_ISOLATED, eta0=0.05, grid=(0.0, 1.5))
@example(net=T3, eta0=0.05, grid=(0.1, 1.5))
@example(net=T3, eta0=0.0, grid=(0.0, 1.0))
@example(net=T3, eta0=0.01, grid=(0.0, 1.0, 10.0))
def test_iso_curve_matches_naive_iso_property(net, eta0, grid):
    expected = naive_iso(net, eta0, grid, 10.0)
    if expected is None:
        with pytest.raises(ParameterError, match="is zero; nothing to trade off$"):
            iso_curve(net, eta0, grid)
        return
    points = iso_curve(net, eta0, grid)
    assert [_bits(astuple(point)) for point in points] == [_bits(point) for point in expected]


def test_zero_balance_roi_is_nan_without_rates():
    net = FinancialNetwork(("a", "b", "c"), lender=[0], borrower=[1], amount=[5.0])
    point = evaluate_point(calibrate(net, CalibrationParams(10.0, 0.005, 0.0)), None)
    assert np.isnan(point.roi_nominal).all() and np.isnan(point.roi_risk_adjusted).all()
    assert np.isnan(point.market_roi_weighted) and np.isnan(point.market_roi_unweighted)
    assert point.delta.tolist() == [1, 0, 0]  # b's default takes its lender a down


def test_sweep_rejects_bad_grid(t3):
    params = CalibrationParams(10.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        sweep(t3, params, "eta", (0.01, 0.01))
    with pytest.raises(ParameterError):
        sweep(t3, params, "rho", (0.01,))


def test_sweep_rejects_empty_grid(t3):
    with pytest.raises(ParameterError, match="^sweep grid is empty$"):
        sweep(t3, CalibrationParams(10.0, 0.0, 0.0), "eta", ())


def test_sweep_dr_tracks_cascade_risk(t3):
    net = generate_synthetic(SyntheticSpec(n_nodes=60, rng_seed=5))
    rows = sweep(net, CalibrationParams(10.0, 0.005, 0.0), "alpha", DEFAULT_ALPHA_GRID)
    pc = np.array([row.cascade_risk for row in rows])
    dr = np.array([row.avg_debtrank for row in rows])
    # Both nonincreasing, hence nonnegative rank correlation.
    assert np.all(np.diff(pc) <= 0)
    assert np.all(np.diff(dr) <= 1e-15)


def test_iso_zero_increase_maps_to_zero_alpha(t3):
    points = iso_curve(t3, eta0=0.05, eta_increase_grid=(0.0,), beta=10.0)
    assert points[0].alpha_lo == points[0].alpha_hi == 0.0
    assert points[0].achieved_pc == points[0].target_pc == 0.5


def test_iso_flat_region_needs_no_tax(t3):
    # Small eta raises keep every T3 weight above 1, so the target stays
    # at the base cascade risk and alpha = 0 suffices.
    points = iso_curve(t3, eta0=0.05, eta_increase_grid=(0.1, 0.2), beta=10.0)
    for point in points:
        assert point.target_pc == 0.5
        assert point.alpha_hi == 0.0


def test_iso_bracket_when_target_drops(t3):
    # Raising eta by 150% lifts E_2 to 10 > 8: seed-1 contagion stops and
    # the target falls to 0. At eta0 the last default to clear is node 3
    # in the seed-1 run (h_3 = 2 * (8 - 7 alpha) / 4 < 1), so the
    # matching alpha is 6/7.
    points = iso_curve(t3, eta0=0.05, eta_increase_grid=(1.5,), beta=10.0)
    point = points[0]
    assert not point.saturated
    assert point.alpha_lo <= 6 / 7 <= point.alpha_hi + 1e-4
    assert point.achieved_pc <= point.target_pc
    assert point.alpha_hi - point.alpha_lo <= 1e-4


def test_iso_saturated_when_full_fund_misses_target(t3):
    # A 1000% reserve raise clears every cascade; a full fund leaves p^C at 0.5.
    points = iso_curve(t3, 0.01, (0.0, 1.0, 10.0))
    assert points[2] == IsoPoint(10.0, 1.0, 1.0, 0.0, 0.5, True)


# A NaN or infinite increase fails before the base ensemble, so the error
# names the increases, not an eta the caller never gave.
@pytest.mark.parametrize("bad, message", [(math.nan, "nonnegative"), (math.inf, "finite")])
def test_iso_rejects_nan_and_infinite_increases_before_ensemble(t3, monkeypatch, bad, message):
    def no_ensemble(cal):
        raise AssertionError("the seed ensemble ran")

    monkeypatch.setattr(experiments, "run_ensemble", no_ensemble)
    with pytest.raises(ParameterError, match=f"^eta increases must be {message}$"):
        iso_curve(t3, 0.05, (0.0, bad))


# Every target point is calibrated before the first ensemble, so a raise
# that overflows a reserve or leaves negative external assets fails first,
# with the error a run that reached that target's ensembles would give.
@pytest.mark.parametrize("net, eta0, grid, error, message", [
    (network(("a", "b"), {(0, 1): 100.0}), 0.005, (0.0, 1e308), InputError,
     "^node 'a': reserve overflows float64$"),
    (T3, 0.05, (0.0, 100.0), CalibrationError, "^node '1' has negative external assets"),
])
def test_iso_calibrates_every_target_before_ensemble(net, eta0, grid, error, message,
                                                      monkeypatch):
    def no_ensemble(cal):
        raise AssertionError("the seed ensemble ran")

    monkeypatch.setattr(experiments, "run_ensemble", no_ensemble)
    with pytest.raises(error, match=message):
        iso_curve(net, eta0, grid)


# The search calibrates each (eta, alpha) point it visits once, targets
# included, and runs that calibration's one ensemble: one calibration per
# ensemble, though the base point is also the target of a zero raise.
def test_iso_calibrates_each_point_once(monkeypatch):
    calibrated, ensembled = [], []

    def spy_calibrate(net, params, calibrate=experiments.calibrate):
        calibrated.append(params)
        return calibrate(net, params)

    def spy_ensemble(cal, run_ensemble=experiments.run_ensemble):
        ensembled.append(cal.params)
        return run_ensemble(cal)

    monkeypatch.setattr(experiments, "calibrate", spy_calibrate)
    monkeypatch.setattr(experiments, "run_ensemble", spy_ensemble)
    net = generate_synthetic(SyntheticSpec(n_nodes=60, rng_seed=2))
    points = iso_curve(net, eta0=0.005, eta_increase_grid=(0.0, 0.5, 1.0, 2.0))
    assert len(points) == 4
    assert len(calibrated) == len(ensembled) == len(set(ensembled))
    assert set(calibrated) == set(ensembled)


def test_iso_alpha_nondecreasing_on_synthetic():
    net = generate_synthetic(SyntheticSpec(n_nodes=60, rng_seed=2))
    points = iso_curve(net, eta0=0.005, eta_increase_grid=(0.0, 0.5, 1.0, 2.0))
    alphas = [p.alpha_hi for p in points]
    assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
    for p in points:
        if not p.saturated:
            assert p.achieved_pc <= p.target_pc


def test_iso_requires_positive_base_risk():
    net = FinancialNetwork(("a", "b", "c"))
    with pytest.raises(ParameterError):
        iso_curve(net, eta0=0.05, eta_increase_grid=(0.1,))


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_nodes=80, rng_seed=123)
    assert generate_synthetic(spec) == generate_synthetic(spec)


def test_synthetic_different_seed_differs():
    a = generate_synthetic(SyntheticSpec(n_nodes=80, rng_seed=1))
    b = generate_synthetic(SyntheticSpec(n_nodes=80, rng_seed=2))
    assert a != b


def test_synthetic_core_density():
    net = generate_synthetic(SyntheticSpec(n_nodes=120, core_fraction=0.2, rng_seed=0))
    n_core = 24
    loans = loans_of(net)
    connected = 0
    pairs = 0
    for i in range(n_core):
        for j in range(i + 1, n_core):
            pairs += 1
            if (i, j) in loans or (j, i) in loans:
                connected += 1
    assert connected / pairs >= 0.95


def test_synthetic_heterogeneity():
    net = generate_synthetic(SyntheticSpec(rng_seed=0))
    out = node_strengths(net).out_strength
    positive = out[out > 0]
    assert positive.max() / np.median(positive) > 10


def test_synthetic_no_self_loops_positive_weights():
    net = generate_synthetic(SyntheticSpec(n_nodes=50, rng_seed=9))
    for (i, j), amount in loans_of(net).items():
        assert i != j
        assert amount > 0


def test_synthetic_snapshot_round_trip(tmp_path):
    from ibrisk import read_snapshot, write_snapshot

    net = generate_synthetic(SyntheticSpec(n_nodes=30, density=3.0, rng_seed=4))
    path = tmp_path / "net.csv"
    write_snapshot(net, path)
    assert read_snapshot(path) == net


def test_synthetic_rejects_infeasible_density():
    with pytest.raises(ParameterError):
        SyntheticSpec(n_nodes=10, density=20.0)
