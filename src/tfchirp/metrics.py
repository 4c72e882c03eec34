"""Evaluation metrics: relative error, 1-d Wasserstein-1, IF-tracking score."""

from __future__ import annotations

import numpy as np

from .errors import MetricError


def rel_error(estimate: np.ndarray, truth: np.ndarray, mask=None) -> float:
    """||estimate - truth||_2 / ||truth||_2 over the masked samples."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise MetricError("estimate and truth must share a shape")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        estimate = estimate[mask]
        truth = truth[mask]
    denom = np.linalg.norm(truth)
    if denom == 0:
        raise MetricError("relative error undefined for zero truth")
    return float(np.linalg.norm(estimate - truth) / denom)


def _as_distribution(positions, weights):
    positions = np.asarray(positions, dtype=float).ravel()
    if positions.size == 0:
        raise MetricError("empty distribution")
    if weights is None:
        weights = np.ones_like(positions)
    else:
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.shape != positions.shape:
            raise MetricError("weights must match positions")
        if np.any(weights < 0):
            raise MetricError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise MetricError("weights must have positive mass")
    return positions, weights / total


def wasserstein1_1d(positions_a, weights_a=None, positions_b=None, weights_b=None) -> float:
    """W1 between two weighted point sets on the line.

    Computed as the integral of |F_a - F_b| over the merged support, which
    for one dimension equals the optimal transport cost with |x - y| ground
    metric.  Weights are normalized to unit mass.
    """
    xa, wa = _as_distribution(positions_a, weights_a)
    xb, wb = _as_distribution(positions_b, weights_b)
    xs = np.concatenate((xa, xb))
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    deltas = np.concatenate((wa, -wb))[order]
    cdf_diff = np.cumsum(deltas)[:-1]
    return float(np.abs(cdf_diff * np.diff(xs)).sum())


def ot_if_metric(estimate, truth_hz: np.ndarray, mask=None) -> float:
    """Mean per-frame W1 between an IF estimate and the true IF.

    ``estimate`` is either a per-frame array of point estimates or a
    sequence of (positions, weights) pairs, one per frame, so multi-valued
    slices can be scored; the truth is a point mass each frame.
    """
    truth_hz = np.asarray(truth_hz, dtype=float)
    n = truth_hz.size
    if mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != truth_hz.shape:
            raise MetricError("mask must match the truth curve")
    if not mask.any():
        raise MetricError("no frames selected")
    if isinstance(estimate, np.ndarray) and estimate.shape == truth_hz.shape:
        return float(np.abs(estimate - truth_hz)[mask].mean())
    dists = []
    for frame in np.nonzero(mask)[0]:
        pos, w = estimate[frame]
        dists.append(wasserstein1_1d(pos, w, [truth_hz[frame]], None))
    return float(np.mean(dists))


def snr_db(clean: np.ndarray, noise: np.ndarray) -> float:
    """20*log10(std(Re clean) / std(noise)); +inf for zero noise."""
    s = np.std(np.asarray(clean).real)
    n = np.std(np.asarray(noise))
    if n == 0:
        return np.inf
    return float(20 * np.log10(s / n))
