"""Reference dense Kalman filter with innovation-based adaptive noise compensation.

This is the general dense filter that ``keytrack.kalman``'s per-axis
filter bank replaced, kept unchanged as the parity oracle.

The adaptive update inflates the prior covariance by ``1 / alpha`` where
``alpha`` compares the expected innovation covariance against the observed
single-point estimate (the outer product of the current innovation).  A
mitigation factor ``gamma``, derived from the signs of recent innovations,
scales the adaptation back when innovations look zero-mean: persistent
one-sided innovations (gamma near 1) allow full adaptation, balanced signs
(gamma near 0) suppress it.  Partial observations are handled by reducing
the observation model to the observed dimensions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

DEFAULT_SIGN_WINDOW = 8
_MIN_ALPHA = np.finfo(np.float64).tiny


@dataclass
class FilterModel:
    """Constant linear system: transition, observation and noise matrices."""

    phi: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.H = np.asarray(self.H, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        n = self.phi.shape[0]
        k = self.H.shape[0]
        if self.phi.shape != (n, n):
            raise ValueError("phi must be square")
        if self.H.shape != (k, n):
            raise ValueError("H shape inconsistent with phi")
        if self.Q.shape != (n, n):
            raise ValueError("Q shape inconsistent with phi")
        if self.R.shape != (k, k):
            raise ValueError("R shape inconsistent with H")

    @property
    def state_dim(self) -> int:
        return self.phi.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]


@dataclass
class FilterState:
    """Mutable per-tracklet filter state; single writer at a time."""

    x: np.ndarray
    P: np.ndarray
    step: int = 0
    sign_history: list[deque] = field(default_factory=list)
    last_alpha: Optional[float] = None
    last_gamma: Optional[float] = None


def initial_state(
    model: FilterModel,
    x0,
    P0,
    sign_window: int = DEFAULT_SIGN_WINDOW,
) -> FilterState:
    x = np.asarray(x0, dtype=np.float64).copy()
    P = np.asarray(P0, dtype=np.float64).copy()
    if x.shape != (model.state_dim,):
        raise ValueError("x0 shape inconsistent with model")
    if P.shape != (model.state_dim, model.state_dim):
        raise ValueError("P0 shape inconsistent with model")
    if sign_window < 1:
        raise ValueError("sign window must be at least 1")
    history = [deque(maxlen=sign_window) for _ in range(model.obs_dim)]
    return FilterState(x=x, P=P, sign_history=history)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def predict(model: FilterModel, state: FilterState) -> FilterState:
    """Advance the state one step; returns the mutated state (prior)."""
    state.x = model.phi @ state.x
    state.P = _symmetrize(model.phi @ state.P @ model.phi.T + model.Q)
    return state


def _reduced_observation(model: FilterModel, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    H = model.H[mask, :]
    R = model.R[np.ix_(mask, mask)]
    return H, R


def _checked_mask(model: FilterModel, mask) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (model.obs_dim,):
        raise ValueError("mask shape inconsistent with model")
    return mask


def adaptive_alpha(S: np.ndarray, S_hat: np.ndarray, R: np.ndarray) -> float:
    """Covariance scaling factor from expected vs observed innovation spread.

    Returns 1 when the observed spread does not exceed the expected one.
    Otherwise the trace ratio discounting R is used; when its denominator
    is non-positive the plain trace ratio is the fallback.  The result is
    clamped into (0, 1].
    """
    t_expected = float(np.trace(S))
    t_observed = float(np.trace(S_hat))
    t_noise = float(np.trace(R))
    if t_observed <= 0.0 or t_observed < t_expected:
        return 1.0
    denom = t_observed - t_noise
    if denom > 0.0:
        alpha = (t_expected - t_noise) / denom
    else:
        alpha = t_expected / t_observed
    return float(min(1.0, max(alpha, _MIN_ALPHA)))


def mitigation_gamma(sign_history: Sequence[deque], mask) -> float:
    """Mean absolute sign balance of recent innovations, observed dims only.

    Each observed dimension with at least one recorded sign contributes
    ``|sum of signs| / count``; dimensions with empty history are skipped.
    Returns 1 when no dimension has history (full adaptation allowed).
    """
    mask = np.asarray(mask, dtype=bool)
    values = []
    for dim, observed in enumerate(mask):
        if not observed:
            continue
        history = sign_history[dim]
        if len(history) == 0:
            continue
        values.append(abs(sum(history)) / len(history))
    if not values:
        return 1.0
    return float(np.mean(values))


def joseph_update(P: np.ndarray, K: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Joseph-form posterior covariance (production form)."""
    identity = np.eye(P.shape[0])
    A = identity - K @ H
    return A @ P @ A.T + K @ R @ K.T


def _apply_update(
    model: FilterModel,
    state: FilterState,
    z,
    mask,
    adaptive: bool,
    gamma_override: Optional[float],
) -> FilterState:
    mask = _checked_mask(model, mask)
    count = int(mask.sum())
    if count == 0:
        return state
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (count,):
        raise ValueError(f"z must have {count} observed entries, got shape {z.shape}")

    H, R = _reduced_observation(model, mask)
    y = z - H @ state.x
    S = H @ state.P @ H.T + R

    alpha = 1.0
    gamma: Optional[float] = None
    observed_dims = np.nonzero(mask)[0]
    # the sign window includes the current innovation
    for y_value, dim in zip(y, observed_dims):
        state.sign_history[dim].append(float(np.sign(y_value)))
    if adaptive:
        S_hat = np.outer(y, y)
        raw_alpha = adaptive_alpha(S, S_hat, R)
        if gamma_override is None:
            gamma = mitigation_gamma(state.sign_history, mask)
        else:
            gamma = float(gamma_override)
        alpha = 1.0 - gamma * (1.0 - raw_alpha)
        alpha = float(min(1.0, max(alpha, _MIN_ALPHA)))

    P_prior = state.P / alpha
    S_inflated = H @ P_prior @ H.T + R
    K = np.linalg.solve(S_inflated.T, (P_prior @ H.T).T).T
    state.x = state.x + K @ y
    state.P = _symmetrize(joseph_update(P_prior, K, H, R))
    state.step += 1
    state.last_alpha = alpha if adaptive else None
    state.last_gamma = gamma
    return state


def update_standard(model: FilterModel, state: FilterState, z, mask) -> FilterState:
    """Masked Kalman update without adaptation."""
    return _apply_update(model, state, z, mask, adaptive=False, gamma_override=None)


def update_adaptive(
    model: FilterModel,
    state: FilterState,
    z,
    mask,
    gamma_override: Optional[float] = None,
) -> FilterState:
    """Masked Kalman update with mitigated covariance adaptation.

    ``gamma_override`` forces the mitigation factor: 0 disables adaptation
    entirely (matching :func:`update_standard` bit for bit), 1 applies the
    raw adaptive factor unmitigated.
    """
    return _apply_update(model, state, z, mask, adaptive=True, gamma_override=gamma_override)
