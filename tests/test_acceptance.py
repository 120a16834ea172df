"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import time

import numpy as np
import pytest

from ibrisk import (
    CalibrationParams,
    RoiRates,
    SyntheticSpec,
    calibrate,
    cascade_risk,
    cascade_risk_general,
    compute_rescue_payouts,
    conditional_default_matrix,
    debtrank_metric,
    default_probabilities,
    generate_synthetic,
    iso_curve,
    node_strengths,
    risk_adjusted_roi,
    run_cascade,
    run_ensemble,
)
from ibrisk.experiments import DEFAULT_ALPHA_GRID, DEFAULT_ETA_GRID, evaluate_point

from loan_dicts import network
from oracle import naive_cascade, naive_payouts

BETA = 10.0
P_EXO = 0.001
RATES = RoiRates()
TOL = 1e-12


def _report(name, started):
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - started:.2f}s)")


@pytest.fixture(scope="module")
def synthetic_networks():
    """20 heterogeneous networks spanning the realistic size range."""
    rng = np.random.default_rng(2024)
    nets = []
    for k in range(20):
        n = int(rng.integers(100, 181))
        nets.append(generate_synthetic(SyntheticSpec(n_nodes=n, rng_seed=1000 + k)))
    return nets


@pytest.fixture(scope="module")
def grid_results(synthetic_networks):
    """Cascade risk and mean impact over the full (eta, alpha) grid."""
    results = []
    for net in synthetic_networks:
        pc = np.empty((len(DEFAULT_ETA_GRID), len(DEFAULT_ALPHA_GRID)))
        dr = np.empty_like(pc)
        for a, eta in enumerate(DEFAULT_ETA_GRID):
            for b, alpha in enumerate(DEFAULT_ALPHA_GRID):
                cal = calibrate(net, CalibrationParams(BETA, eta, alpha))
                point = evaluate_point(cal, RATES, P_EXO)
                pc[a, b] = point.cascade_risk_system
                dr[a, b] = point.avg_debtrank
        results.append((pc, dr))
    return results


def test_criterion_1_t3_oracle_suite(t3):
    started = time.perf_counter()
    cal0 = calibrate(t3, CalibrationParams(BETA, 0.05, 0.0))
    _, delta0 = conditional_default_matrix(run_ensemble(cal0))
    assert delta0.tolist() == [0, 1, 2]
    assert abs(cascade_risk(delta0, 3)[1] - 0.5) <= TOL

    cal1 = calibrate(t3, CalibrationParams(BETA, 0.05, 1.0))
    _, delta1 = conditional_default_matrix(run_ensemble(cal1))
    assert delta1.tolist() == [0, 0, 0]
    assert abs(cascade_risk(delta1, 3)[1]) <= TOL

    payouts = compute_rescue_payouts(cal1, 0)
    assert abs(payouts[1] - 7.0) <= TOL

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("1 (T3 oracle suite)", started)


def test_criterion_2_brute_force_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        loans = {
            (i, j): float(rng.integers(1, 9))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.5
        }
        net = network(tuple(str(k) for k in range(n)), loans)
        eta = float(rng.choice([0.0, 0.01, 0.05]))
        for alpha in (0.0, 0.5, 1.0):
            cal = calibrate(net, CalibrationParams(BETA, eta, alpha))
            for seed in range(n):
                engine = run_cascade(cal, seed)
                payouts = naive_payouts(loans, cal.fund_contribution.tolist(), seed)
                h, defaulted, steps = naive_cascade(
                    n, loans, cal.reserve.tolist(), seed, payouts=payouts
                )
                assert engine.final_distress[0].tolist() == h
                assert set(np.flatnonzero(engine.defaulted[0]).tolist()) == defaulted
                assert engine.steps[0] == steps
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("2 (brute-force equivalence, 200 networks)", started)


def test_criterion_3_monotonicity_suite(grid_results):
    started = time.perf_counter()
    for pc, dr in grid_results:
        # Down each eta column at fixed alpha, and along each alpha row
        # at fixed eta, risk and mean impact must not increase.
        assert np.all(np.diff(pc, axis=0) <= 0)
        assert np.all(np.diff(pc, axis=1) <= 0)
        assert np.all(np.diff(dr, axis=0) <= 0)
        assert np.all(np.diff(dr, axis=1) <= 0)
    _report("3 (monotonicity on 20 synthetic networks)", started)


def test_criterion_4_eta_zero_degeneracy(synthetic_networks, t3):
    started = time.perf_counter()
    for net in [t3] + synthetic_networks[:5]:
        values = []
        for alpha in DEFAULT_ALPHA_GRID:
            cal = calibrate(net, CalibrationParams(BETA, 0.0, alpha))
            _, delta = conditional_default_matrix(run_ensemble(cal))
            values.append(cascade_risk(delta, net.n_nodes)[1])
        assert all(v == values[0] for v in values)
    _report("4 (eta=0 degeneracy)", started)


def test_criterion_5_scale_invariance(synthetic_networks, t3):
    started = time.perf_counter()
    for net in [t3, synthetic_networks[0], synthetic_networks[1]]:
        strengths = node_strengths(net)
        for eta, alpha in [(0.005, 0.0), (0.005, 0.01), (0.02, 0.5)]:
            cal = calibrate(net, CalibrationParams(BETA, eta, alpha))
            ens = run_ensemble(cal)
            q, delta = conditional_default_matrix(ens)
            pc = cascade_risk(delta, net.n_nodes)[1]
            dr = debtrank_metric(ens, strengths)[1]
            for gamma in (0.1, 10.0, 1000.0):
                scaled_net = net.scaled(gamma)
                scal = calibrate(scaled_net, CalibrationParams(BETA, eta, alpha))
                sens = run_ensemble(scal)
                _, sdelta = conditional_default_matrix(sens)
                assert sdelta.tolist() == delta.tolist()
                assert cascade_risk(sdelta, net.n_nodes)[1] == pc
                for a, b in zip(sens.defaulted, ens.defaulted):
                    assert a.tolist() == b.tolist()
                sdr = debtrank_metric(sens, node_strengths(scaled_net))[1]
                assert abs(sdr - dr) <= TOL
        # Heterogeneous exogenous vector scaling leaves the general
        # cascade risk unchanged within 1e-12.
        rng = np.random.default_rng(5)
        p_exo = rng.uniform(0.0005, 0.002, size=net.n_nodes)
        cal = calibrate(net, CalibrationParams(BETA, 0.005, 0.0))
        q, _ = conditional_default_matrix(run_ensemble(cal))
        base = cascade_risk_general(q, p_exo)
        for gamma in (0.1, 10.0, 1000.0):
            scaled = cascade_risk_general(q, gamma * p_exo)
            assert np.max(np.abs(scaled - base)) <= TOL
    _report("5 (scale invariance)", started)


def test_criterion_6_roi_consistency(synthetic_networks):
    started = time.perf_counter()
    # (a) With roi_e = roi_f the nominal ROI is exactly alpha-independent.
    matched = RoiRates(roi_int=0.04, roi_ext=0.07, roi_e=0.03, roi_f=0.03)
    net = synthetic_networks[0]
    from ibrisk import nominal_roi

    base = None
    for alpha in DEFAULT_ALPHA_GRID:
        cal = calibrate(net, CalibrationParams(BETA, 0.005, alpha))
        roi_n = nominal_roi(cal, matched)
        if base is None:
            base = roi_n
        else:
            assert roi_n.tolist() == base.tolist()

    # (b) Pipeline risk-adjusted ROI equals the direct fund-aware
    # recomputation term by term, and improves with alpha whenever the
    # cascade-risk drop outweighs the reserve-rate drag.
    eta = 0.005
    for net in synthetic_networks[:5]:
        strengths = node_strengths(net)
        previous = None
        for alpha in DEFAULT_ALPHA_GRID:
            cal = calibrate(net, CalibrationParams(BETA, eta, alpha))
            ens = run_ensemble(cal)
            _, delta = conditional_default_matrix(ens)
            p = default_probabilities(delta, P_EXO)
            pipeline = risk_adjusted_roi(nominal_roi(cal, RATES), p)
            lent = strengths.out_strength
            d = cal.balance - lent - cal.reserve
            direct_nominal = (
                RATES.roi_int * lent
                + RATES.roi_ext * d
                + RATES.roi_e * (1 - alpha) * cal.reserve
                + RATES.roi_f * alpha * cal.reserve
            ) / cal.balance
            direct = direct_nominal * (1 - (1 + delta) * P_EXO) - (1 + delta) * P_EXO
            assert np.max(np.abs(pipeline - direct)) <= TOL

            pc = cascade_risk(delta, net.n_nodes)[1]
            mean_ra = float(np.mean(pipeline))
            if previous is not None:
                prev_alpha, prev_pc, prev_ra = previous
                drag = (RATES.roi_e - RATES.roi_f) * eta * (alpha - prev_alpha)
                mean_p_drop = P_EXO * (net.n_nodes - 1) * (prev_pc - pc)
                if mean_p_drop >= drag:
                    assert mean_ra >= prev_ra - TOL
            previous = (alpha, pc, mean_ra)
    _report("6 (ROI consistency)", started)


def test_criterion_7_iso_curve_sanity(synthetic_networks):
    started = time.perf_counter()
    checked = 0
    for net in synthetic_networks[:2]:
        eta0 = 0.005
        cal = calibrate(net, CalibrationParams(BETA, eta0, 0.0))
        _, delta = conditional_default_matrix(run_ensemble(cal))
        if cascade_risk(delta, net.n_nodes)[1] <= 0:
            continue
        points = iso_curve(net, eta0, (0.0, 0.5, 1.0, 2.0, 4.0), BETA)
        assert points[0].alpha_lo == points[0].alpha_hi == 0.0  # no raise, no tax
        alphas = [p.alpha_hi for p in points]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))
        for p in points:
            if not p.saturated:
                assert p.achieved_pc <= p.target_pc
        checked += 1
    assert checked > 0
    _report("7 (iso-curve sanity)", started)


def test_criterion_8_strict_dr_reduction(synthetic_networks):
    started = time.perf_counter()
    checked = 0
    for net in synthetic_networks[:5]:
        strengths = node_strengths(net)
        for eta in (0.001, 0.005, 0.01):
            cal0 = calibrate(net, CalibrationParams(BETA, eta, 0.0))
            ens0 = run_ensemble(cal0)
            _, delta0 = conditional_default_matrix(ens0)
            if cascade_risk(delta0, net.n_nodes)[1] <= 0:
                continue
            dr0 = debtrank_metric(ens0, strengths)[1]
            cal1 = calibrate(net, CalibrationParams(BETA, eta, 0.01))
            ens1 = run_ensemble(cal1)
            dr1 = debtrank_metric(ens1, strengths)[1]
            assert dr1 < dr0
            checked += 1
    assert checked > 0
    _report("8 (strict impact reduction at alpha=0.01)", started)


def test_monotonicity_runtime_budget(grid_results):
    # grid_results is computed once for criterion 3; this guard re-runs
    # one network's grid to confirm the per-network cost stays well
    # inside the 5-minute budget for all 20.
    started = time.perf_counter()
    net = generate_synthetic(SyntheticSpec(n_nodes=180, rng_seed=999))
    for eta in DEFAULT_ETA_GRID:
        for alpha in DEFAULT_ALPHA_GRID:
            evaluate_point(calibrate(net, CalibrationParams(BETA, eta, alpha)), RATES, P_EXO)
    per_network = time.perf_counter() - started
    assert per_network * 20 < 300.0
