import numpy as np
import pytest

from ibrisk import (
    CalibrationParams,
    FinancialNetwork,
    InvariantError,
    ParameterError,
    calibrate,
    cascade_risk,
    cascade_risk_general,
    conditional_default_matrix,
    debtrank_metric,
    default_probabilities,
    node_strengths,
    run_ensemble,
    systemic_probabilities,
)
from ibrisk.contagion import CascadeEnsemble

PARAMS = CalibrationParams(beta=10.0, eta=0.05, alpha=0.0)
PARAMS_FUND = CalibrationParams(beta=10.0, eta=0.05, alpha=1.0)


def _t3_ensemble(t3, params):
    return run_ensemble(calibrate(t3, params))


def test_delta_t3(t3):
    _, delta = conditional_default_matrix(_t3_ensemble(t3, PARAMS))
    assert delta.tolist() == [0, 1, 2]


def test_delta_t3_with_fund(t3):
    _, delta = conditional_default_matrix(_t3_ensemble(t3, PARAMS_FUND))
    assert delta.tolist() == [0, 0, 0]


def test_q_matrix_excludes_diagonal(t3):
    q, _ = conditional_default_matrix(_t3_ensemble(t3, PARAMS))
    assert np.all(np.diag(q) == 0)
    # Seed 1 (column 0) drags down nodes 2 and 3.
    assert q[:, 0].tolist() == [0, 1, 1]


def test_edgeless_network_zero_delta():
    net = FinancialNetwork(("a", "b", "c"))
    ens = run_ensemble(calibrate(net, PARAMS))
    q, delta = conditional_default_matrix(ens)
    assert not np.any(q)
    assert not np.any(delta)


def test_incomplete_ensemble_rejected(t3):
    ens = _t3_ensemble(t3, PARAMS)
    broken = CascadeEnsemble(
        final_distress=ens.final_distress[:2],
        steps=ens.steps[:2],
        defaulted=ens.defaulted[:2],
        n_nodes=3,
    )
    with pytest.raises(InvariantError):
        conditional_default_matrix(broken)


def test_cascade_risk_t3():
    node_risk, system_risk = cascade_risk(np.array([0, 1, 2]), 3)
    assert node_risk.tolist() == [0.0, 0.5, 1.0]
    assert system_risk == 0.5


def test_cascade_risk_bounds():
    assert cascade_risk(np.zeros(4, dtype=int), 4)[1] == 0.0
    assert cascade_risk(np.full(4, 3), 4)[1] == 1.0
    with pytest.raises(ParameterError):
        cascade_risk(np.array([0]), 1)


def test_cascade_risk_cross_check(t3):
    # System risk equals total non-seed defaults / (N (N-1)).
    ens = _t3_ensemble(t3, PARAMS)
    _, delta = conditional_default_matrix(ens)
    total_non_seed = sum(int(row.sum()) - 1 for row in ens.defaulted)
    assert cascade_risk(delta, 3)[1] == total_non_seed / (3 * 2)


def test_default_probabilities():
    p = default_probabilities(np.array([0, 1, 2]), 0.001)
    assert p.tolist() == [0.001, 0.002, 0.003]


def test_default_probabilities_no_systemic_component():
    p = default_probabilities(np.zeros(3, dtype=int), 0.01)
    assert p.tolist() == [0.01, 0.01, 0.01]


def test_default_probabilities_reject_excess():
    with pytest.raises(ParameterError, match="node index 1"):
        default_probabilities(np.array([0, 3]), 0.3)


def test_systemic_probabilities_heterogeneous(t3):
    q, _ = conditional_default_matrix(_t3_ensemble(t3, PARAMS))
    p_exo = np.array([0.002, 0.001, 0.001])
    p_s = systemic_probabilities(q, p_exo)
    # Node 3 (index 2) defaults from seeds 1 and 2.
    assert p_s[2] == pytest.approx(0.003, abs=0)
    assert p_s[0] == 0.0


def test_cascade_risk_general_uniform_reduces_to_simple(t3):
    q, delta = conditional_default_matrix(_t3_ensemble(t3, PARAMS))
    uniform = cascade_risk_general(q, np.full(3, 0.001))
    assert uniform.tolist() == cascade_risk(delta, 3)[0].tolist()


def test_cascade_risk_general_heterogeneous(t3):
    q, _ = conditional_default_matrix(_t3_ensemble(t3, PARAMS))
    pc = cascade_risk_general(q, np.array([0.002, 0.001, 0.001]))
    assert pc[2] == pytest.approx((0.002 + 0.001) / 0.003, rel=1e-15)


def test_cascade_risk_general_scale_invariant(t3):
    q, _ = conditional_default_matrix(_t3_ensemble(t3, PARAMS))
    p_exo = np.array([0.002, 0.001, 0.0005])
    base = cascade_risk_general(q, p_exo)
    for gamma in (0.1, 10.0, 1000.0):
        scaled = cascade_risk_general(q, gamma * p_exo)
        assert np.allclose(scaled, base, rtol=1e-12, atol=0.0)


def test_cascade_risk_general_rejects_degenerate_vector():
    q = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        cascade_risk_general(q, np.array([0.0, 0.0]))


def test_debtrank_t3(t3):
    ens = _t3_ensemble(t3, PARAMS)
    dr, avg = debtrank_metric(ens, node_strengths(t3))
    # Seed 1: everything defaults, v = (0, 8/14, 6/14), own share 0.
    assert dr[0] == 1.0
    # Seed 3: nothing propagates.
    assert dr[2] == 0.0
    assert avg == pytest.approx(np.mean(dr), abs=0)
    assert np.all((dr >= 0) & (dr <= 1))


def test_debtrank_rejects_zero_lending():
    net = FinancialNetwork(("a", "b"))
    ens = run_ensemble(calibrate(net, PARAMS))
    with pytest.raises(ParameterError):
        debtrank_metric(ens, node_strengths(net))


def test_monotone_dominance(t3):
    base = _t3_ensemble(t3, PARAMS)
    fund = _t3_ensemble(t3, PARAMS_FUND)
    for a, b in zip(fund.defaulted, base.defaulted):
        assert np.all(b[a])  # every default with the fund is one without
    _, delta_base = conditional_default_matrix(base)
    _, delta_fund = conditional_default_matrix(fund)
    assert cascade_risk(delta_fund, 3)[1] <= cascade_risk(delta_base, 3)[1]
    strengths = node_strengths(t3)
    assert debtrank_metric(fund, strengths)[1] <= debtrank_metric(base, strengths)[1]
