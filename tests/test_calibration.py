import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ibrisk import (
    CalibrationError,
    CalibrationParams,
    ParameterError,
    calibrate,
    node_strengths,
    propagation_weights,
)

from loan_dicts import network


def test_params_validate_ranges():
    CalibrationParams(beta=10.0, eta=0.05, alpha=0.5)
    with pytest.raises(ParameterError):
        CalibrationParams(beta=0.0, eta=0.05, alpha=0.0)
    with pytest.raises(ParameterError):
        CalibrationParams(beta=10.0, eta=-0.01, alpha=0.0)
    with pytest.raises(ParameterError):
        CalibrationParams(beta=10.0, eta=0.05, alpha=1.5)


def test_calibrate_t3_no_fund(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=0.0))
    assert cal.balance.tolist() == [80.0, 80.0, 60.0]
    assert cal.reserve.tolist() == [4.0, 4.0, 3.0]
    assert cal.fund_contribution.tolist() == [0.0, 0.0, 0.0]


def test_calibrate_t3_full_fund(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=1.0))
    assert cal.fund_contribution.tolist() == [4.0, 4.0, 3.0]
    assert float(np.sum(cal.fund_contribution)) == 11.0


def test_zero_eta_means_no_reserve_no_fund(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.0, alpha=1.0))
    assert not np.any(cal.reserve)
    assert not np.any(cal.fund_contribution)


def test_calibration_infeasible_beta_names_node():
    # A pure lender with beta < 1/(1 - eta) ends up with D < 0.
    net = network(("L", "B"), {(0, 1): 10.0})
    with pytest.raises(CalibrationError, match="'L'"):
        calibrate(net, CalibrationParams(beta=1.0, eta=0.05, alpha=0.0))


def test_external_assets_nonnegative(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=0.0))
    d = cal.external
    assert np.all(d >= 0)
    assert d.tolist() == [80.0 - 4.0, 80.0 - 8.0 - 4.0, 60.0 - 6.0 - 3.0]


def test_propagation_weights_t3(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=0.0))
    w = propagation_weights(cal)
    # Loan 2->1 of 8 becomes edge 1->2 with weight 8/E_2 = 2; loan 3->2
    # of 6 becomes edge 2->3 with weight 6/E_3 = 2.
    assert list(zip(w.src.tolist(), w.dst.tolist())) == [(0, 1), (1, 2)]
    assert w.weight.tolist() == [2.0, 2.0]


def test_zero_reserve_gives_infinite_weight(t3):
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.0, alpha=0.0))
    w = propagation_weights(cal)
    assert np.all(np.isinf(w.weight))


def test_weights_scale_free_power_of_two(t3):
    # Power-of-two scaling is lossless in floating point, so weights
    # must match bit for bit.
    cal = calibrate(t3, CalibrationParams(beta=10.0, eta=0.05, alpha=0.0))
    scaled = calibrate(t3.scaled(4.0), CalibrationParams(beta=10.0, eta=0.05, alpha=0.0))
    assert propagation_weights(cal).weight.tolist() == propagation_weights(scaled).weight.tolist()


@given(st.sampled_from([0.1, 0.5, 3.0, 10.0, 1000.0]))
def test_weights_homogeneous_in_loan_scale(gamma):
    net = network(
        ("a", "b", "c", "d"),
        {(0, 1): 3.0, (1, 2): 1.5, (2, 0): 7.25, (3, 1): 2.0, (1, 3): 0.75},
    )
    params = CalibrationParams(beta=10.0, eta=0.02, alpha=0.0)
    base = propagation_weights(calibrate(net, params)).weight
    scaled = propagation_weights(calibrate(net.scaled(gamma), params)).weight
    assert np.allclose(base, scaled, rtol=1e-12, atol=0.0)


def test_weights_nonincreasing_in_eta(t3):
    etas = [0.01, 0.02, 0.03, 0.05]
    series = [
        propagation_weights(calibrate(t3, CalibrationParams(10.0, eta, 0.0))).weight
        for eta in etas
    ]
    for lo, hi in zip(series, series[1:]):
        assert np.all(hi <= lo)


def test_total_fund_identity(t3):
    beta, eta, alpha = 7.0, 0.03, 0.4
    cal = calibrate(t3, CalibrationParams(beta, eta, alpha))
    strengths = node_strengths(t3)
    expected = alpha * eta * beta * float(
        np.sum(np.maximum(strengths.in_strength, strengths.out_strength))
    )
    assert float(np.sum(cal.fund_contribution)) == pytest.approx(expected, rel=1e-15)
