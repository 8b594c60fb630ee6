"""Adaptive Kalman filters with innovation-based noise compensation.

Each filter tracks D independent dimensions, each a (position, velocity)
pair under a constant-velocity model that observes the position directly,
so the covariance is block-diagonal with one 2x2 block per dimension.  A
:class:`FilterBank` holds many such filters as arrays and advances them
together.

The adaptive update inflates the prior covariance by ``1 / alpha`` where
``alpha`` compares the expected innovation spread against the observed
one (the squared current innovation), both as traces over the observed
dimensions.  A mitigation factor ``gamma``, derived from the signs of
recent innovations, scales the adaptation back when innovations look
zero-mean: persistent one-sided innovations (gamma near 1) allow full
adaptation, balanced signs (gamma near 0) suppress it.  Unobserved
dimensions drop out of the update.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_MIN_ALPHA = np.finfo(np.float64).tiny


class FilterBank:
    """Adaptive Kalman filters of T rows, one 2x2 block per axis.

    ``mean`` is (T, D, 2) with position and velocity of each of the D
    dimensions, ``cov`` is (T, D, 2, 2), and ``signs`` is a (T, D, W) ring
    of the last W innovation signs per dimension with ``counts`` (T, D)
    signs recorded so far.  ``r_row`` is the (D,) measurement variance of
    each dimension; ``q`` and ``p0`` are the (position, velocity) process
    and initial variances shared by all dimensions.
    """

    def __init__(self, r_row, q: tuple[float, float], p0: tuple[float, float], sign_window: int):
        if sign_window < 1:
            raise ValueError(f"sign_window must be at least 1, got {sign_window}")
        self.q = q
        self.p0 = p0
        self.r = np.asarray(r_row, dtype=np.float64)
        self.window = sign_window
        dims = len(self.r)
        self.mean = np.empty((0, dims, 2))
        self.cov = np.empty((0, dims, 2, 2))
        self.signs = np.empty((0, dims, sign_window))
        self.counts = np.empty((0, dims), dtype=np.intp)

    def resize(self, keep: Sequence[int], born: np.ndarray) -> None:
        """Keep rows ``keep`` in order, then append (B, D) newborn positions."""
        count = len(born)
        mean = np.zeros((count,) + self.mean.shape[1:])
        mean[..., 0] = born
        cov = np.zeros((count,) + self.cov.shape[1:])
        cov[..., 0, 0] = self.p0[0]
        cov[..., 1, 1] = self.p0[1]
        keep = np.asarray(keep, dtype=np.intp)
        self.mean = np.concatenate([self.mean[keep], mean])
        self.cov = np.concatenate([self.cov[keep], cov])
        self.signs = np.concatenate(
            [self.signs[keep], np.zeros((count,) + self.signs.shape[1:])]
        )
        self.counts = np.concatenate(
            [self.counts[keep], np.zeros((count,) + self.counts.shape[1:], dtype=np.intp)]
        )


def predict(bank: FilterBank) -> None:
    """Constant-velocity step of every filter: x = phi x, P = phi P phi^T + Q."""
    bank.mean[..., 0] += bank.mean[..., 1]
    a = bank.cov[..., 0, 0]
    b = bank.cov[..., 0, 1]
    c = bank.cov[..., 1, 1]
    bc = b + c
    bank.cov[..., 0, 0] = ((a + b) + bc) + bank.q[0]
    bank.cov[..., 0, 1] = bc
    bank.cov[..., 1, 0] = bc
    bank.cov[..., 1, 1] = c + bank.q[1]


def update_adaptive(
    bank: FilterBank, rows: np.ndarray, z: np.ndarray, gamma: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Mitigated adaptive update of the filters ``rows`` with (M, D) ``z``.

    NaN entries of ``z`` are unobserved dimensions and drop out; each row
    needs at least one observed dimension.  ``gamma`` forces the
    mitigation factor: 0 disables adaptation (alpha exactly 1, the
    standard Kalman update), 1 applies the raw adaptive factor unmitigated.
    Returns the alpha and gamma applied to each row.
    """
    r = bank.r
    observed = ~np.isnan(z)
    mean = bank.mean[rows]
    cov = bank.cov[rows]
    y = np.where(observed, z - mean[..., 0], 0.0)

    # the sign window includes the current innovation
    signs = bank.signs[rows]
    counts = bank.counts[rows]
    m, d = np.nonzero(observed)
    signs[m, d, counts[m, d] % bank.window] = np.sign(y[m, d])
    counts += observed
    bank.signs[rows] = signs
    bank.counts[rows] = counts
    if gamma is None:
        balance = np.abs(signs.sum(axis=-1)) / np.minimum(np.maximum(counts, 1), bank.window)
        n_observed = observed.sum(axis=1)
        gamma = np.where(observed, balance, 0.0).sum(axis=1) / n_observed
    else:
        gamma = np.full(len(z), float(gamma))

    t_expected = np.where(observed, cov[..., 0, 0] + r, 0.0).sum(axis=1)
    t_observed = (y * y).sum(axis=1)
    t_noise = np.where(observed, r, 0.0).sum(axis=1)
    denom = t_observed - t_noise
    # the branch np.where discards may divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(
            denom > 0.0, (t_expected - t_noise) / denom, t_expected / t_observed
        )
        raw = np.where(
            (t_observed <= 0.0) | (t_observed < t_expected),
            1.0,
            np.clip(ratio, _MIN_ALPHA, 1.0),
        )
    alpha = np.clip(1.0 - gamma * (1.0 - raw), _MIN_ALPHA, 1.0)

    # Joseph form per block with A = [[1 - kp, 0], [-kv, 1]]; an
    # unobserved block has zero gain and keeps its inflated prior
    prior = cov / alpha[:, None, None, None]
    a = prior[..., 0, 0]
    b = prior[..., 0, 1]
    c = prior[..., 1, 1]
    s = a + r
    kp = np.where(observed, a / s, 0.0)
    kv = np.where(observed, b / s, 0.0)
    mean[..., 0] += kp * y
    mean[..., 1] += kv * y
    one_kp = 1.0 - kp
    t0 = one_kp * a
    t1 = one_kp * b
    t2 = -kv * a + b
    t3 = -kv * b + c
    rp = kp * r
    rv = kv * r
    off = 0.5 * ((t0 * -kv + t1 + rp * kv) + (t2 * one_kp + rv * kp))
    cov[..., 0, 0] = t0 * one_kp + rp * kp
    cov[..., 0, 1] = off
    cov[..., 1, 0] = off
    cov[..., 1, 1] = (t2 * -kv + t3) + rv * kv
    bank.mean[rows] = mean
    bank.cov[rows] = cov
    return alpha, gamma
