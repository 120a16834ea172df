"""Risk metrics over cascade ensembles.

Conditional default matrix Q(i|j), per-node default counts Delta_i,
cascade risk (node and system level), overall default probabilities,
and the distress-impact metric per seed (fraction of total economic
value under distress after shocking one node).
"""
from __future__ import annotations

import numpy as np

from .contagion import CascadeEnsemble
from .errors import InvariantError, ParameterError
from .network import NodeStrengths


def default_counts(ens: CascadeEnsemble) -> np.ndarray:
    """delta_i: the number of runs seeded at another node in which node i defaulted."""
    seeds, n = ens.defaulted.shape
    if seeds != n:
        raise InvariantError(f"incomplete ensemble: {seeds} seeds for {n} nodes")
    return np.count_nonzero(ens.defaulted, axis=0) - 1  # less each seed's own run


def conditional_default_matrix(ens: CascadeEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """(Q, default_counts): Q[i, j] = 1 iff node i defaulted in the run seeded at j != i."""
    q = ens.defaulted.T.astype(np.int8)
    np.fill_diagonal(q, 0)
    return q, default_counts(ens)


def cascade_risk(delta: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Node-level cascade risk delta_i / (N - 1) and its system average."""
    if n < 2:
        raise ParameterError("cascade risk needs at least 2 nodes")
    delta = np.asarray(delta)
    if np.any(delta < 0) or np.any(delta > n - 1):
        raise ParameterError("delta values must lie in [0, N-1]")
    node_risk = delta / (n - 1)
    system_risk = float(np.sum(delta)) / (n * (n - 1))
    return node_risk, system_risk


def cascade_risk_general(q: np.ndarray, p_exo: np.ndarray) -> np.ndarray:
    """Cascade risk with heterogeneous exogenous default probabilities.

    p_i^C = sum_{j != i} Q(i|j) p_j / sum_{j != i} p_j. Invariant to a
    common rescaling of the exogenous vector.
    """
    p_exo = np.asarray(p_exo, dtype=np.float64)
    if np.any(p_exo < 0):
        raise ParameterError("exogenous probabilities must be nonnegative")
    denominator = float(np.sum(p_exo)) - p_exo
    bad = np.flatnonzero(denominator <= 0)
    if bad.size:
        raise ParameterError(f"no positive exogenous probability besides node {bad[0]}")
    return systemic_probabilities(q, p_exo) / denominator


def systemic_probabilities(q: np.ndarray, p_exo: np.ndarray) -> np.ndarray:
    """Endogenous default probability p_i^S = sum_{j != i} Q(i|j) p_j."""
    q = np.asarray(q, dtype=np.float64)
    p_exo = np.asarray(p_exo, dtype=np.float64)
    return q @ p_exo  # diagonal of q is zero by construction


def check_p_exo(p_exo: float) -> None:
    """Reject an exogenous default probability that is not a finite positive normal float."""
    if not (np.isfinite(p_exo) and p_exo > 0):
        raise ParameterError(f"exogenous probability must be finite and positive, got {p_exo}")
    if p_exo < np.finfo(float).tiny:  # (1 + delta) * p_exo would round
        raise ParameterError(f"exogenous probability is subnormal: {p_exo} < {np.finfo(float).tiny}")


def default_probabilities(delta: np.ndarray, p_exo: float) -> np.ndarray:
    """Overall default probability p_i = (1 + delta_i) * p_exo.

    Valid only in the single-seeded-default regime; errors out when any
    probability would exceed 1.
    """
    check_p_exo(p_exo)
    delta = np.asarray(delta)
    with np.errstate(over="ignore"):  # an inf fails the check below
        p = (1.0 + delta) * p_exo
    bad = np.flatnonzero(p > 1.0)
    if bad.size:
        largest = 1.0 / (1.0 + int(np.max(delta)))
        raise ParameterError(
            f"default probability exceeds 1 at node index {int(bad[0])} "
            f"(delta={int(delta[bad[0]])}, p_exo={p_exo}); set --p-exo to at most "
            f"1/(1 + max delta) = {largest!r}"
        )
    return p


def debtrank_metric(ens: CascadeEnsemble, strengths: NodeStrengths) -> tuple[np.ndarray, float]:
    """Impact of each seed: distressed economic value minus the seed's own.

    Economic value is the out-strength share. Returns (per-seed impact,
    mean over seeds).
    """
    total = float(np.sum(strengths.out_strength))
    if total <= 0:
        raise ParameterError("total lending is zero; no economic value weights")
    values = strengths.out_strength / total
    # One 1-D dot per seed: a matrix-vector product may sum in another
    # order. Every seed starts fully distressed, so its own share is
    # values[seed].
    per_seed = np.array([row @ values for row in ens.final_distress]) - values
    return per_seed, float(np.mean(per_seed))
