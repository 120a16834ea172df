import numpy as np
import pytest

from ibrisk import (
    CalibrationParams,
    ParameterError,
    RoiRates,
    calibrate,
    cascade_risk,
    conditional_default_matrix,
    default_probabilities,
    evaluate_point,
    nominal_roi,
    risk_adjusted_roi,
    run_ensemble,
)

from loan_dicts import network

RATES = RoiRates()  # typical simulation rates


def test_nominal_roi_t3_node2_no_fund(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=0.0))
    roi_n = nominal_roi(cal, RATES)
    # Node 2: lent 8, D = 80 - 8 - 4 = 68, reserve 4.
    expected = (0.04 * 8 + 0.07 * 68 + 0.03 * 4) / 80
    assert roi_n[1] == pytest.approx(expected, rel=1e-15)
    assert roi_n[1] == pytest.approx(0.065, rel=1e-12)


def test_nominal_roi_t3_node2_full_fund(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=1.0))
    roi_n = nominal_roi(cal, RATES)
    expected = (0.32 + 4.76 + 0.08) / 80
    assert roi_n[1] == pytest.approx(expected, rel=1e-15)
    assert roi_n[1] == pytest.approx(0.0645, rel=1e-12)


def test_nominal_roi_pure_external_node():
    # No lending and eta = 0: the whole balance earns the external rate.
    net = network(("L", "B"), {(0, 1): 5.0})
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=0.0, alpha=0.0))
    roi_n = nominal_roi(cal, RATES)
    assert roi_n[1] == pytest.approx(RATES.roi_ext, rel=1e-15)


def test_nominal_roi_rejects_zero_balance():
    net = network(("a", "b", "c"), {(0, 1): 5.0})
    cal = calibrate(net, CalibrationParams(beta=10.0, eta=0.0, alpha=0.0))
    with pytest.raises(ParameterError, match="'c'"):
        nominal_roi(cal, RATES)


def test_risk_adjusted_arithmetic():
    assert risk_adjusted_roi(np.array([0.06455]), np.array([0.002]))[0] == (
        pytest.approx(0.06455 * 0.998 - 0.002, abs=0)
    )


def test_risk_adjusted_limits():
    assert risk_adjusted_roi(np.array([0.05]), np.array([0.0]))[0] == 0.05
    assert risk_adjusted_roi(np.array([0.05]), np.array([1.0]))[0] == -1.0
    with pytest.raises(ParameterError):
        risk_adjusted_roi(np.array([0.05]), np.array([1.5]))


def test_risk_adjusted_decreasing_in_p():
    p = np.linspace(0.0, 1.0, 11)
    values = risk_adjusted_roi(np.full_like(p, 0.05), p)
    assert np.all(np.diff(values) < 0)


def test_alpha_independent_when_rates_match(t3):
    rates = RoiRates(roi_int=0.04, roi_ext=0.07, roi_e=0.025, roi_f=0.025)
    for alpha in (0.0, 0.3, 1.0):
        cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=alpha))
        roi_n = nominal_roi(cal, rates)
        if alpha == 0.0:
            base = roi_n
        else:
            assert roi_n.tolist() == base.tolist()


def test_pipeline_matches_direct_fund_formula(t3):
    # Recompose the fund-aware risk-adjusted ROI term by term.
    alpha, p_exo = 1.0, 0.001
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=alpha))
    ens = run_ensemble(cal)
    _, delta = conditional_default_matrix(ens)
    p = default_probabilities(delta, p_exo)
    pipeline = risk_adjusted_roi(nominal_roi(cal, RATES), p)
    lent = np.array([0.0, 8.0, 6.0])
    d = cal.balance - lent - cal.reserve
    nominal = (
        RATES.roi_int * lent
        + RATES.roi_ext * d
        + RATES.roi_e * (1 - alpha) * cal.reserve
        + RATES.roi_f * alpha * cal.reserve
    ) / cal.balance
    direct = nominal * (1 - (1 + delta) * p_exo) - (1 + delta) * p_exo
    assert np.allclose(pipeline, direct, rtol=1e-12, atol=0.0)


def test_evaluate_point_roi_aggregates(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=0.0))
    point = evaluate_point(cal, RATES, 0.001)
    assert point.default_prob.tolist() == [0.001, 0.002, 0.003]
    unweighted = point.market_roi_unweighted
    weighted = point.market_roi_weighted
    assert unweighted == pytest.approx(float(np.mean(point.roi_risk_adjusted)), abs=0)
    assert weighted == pytest.approx(
        float(np.sum(point.roi_risk_adjusted * cal.balance) / np.sum(cal.balance)),
        rel=1e-15,
    )
    assert np.all(point.roi_risk_adjusted <= point.roi_nominal)
    assert np.all(cal.external_assets() >= 0)
