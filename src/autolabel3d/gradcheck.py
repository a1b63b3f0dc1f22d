"""Finite-difference validation harness for the loss gradients."""

from __future__ import annotations

import numpy as np

from . import losses

FD_STEP = 1e-6
REL_TOL = 1e-4


def finite_difference(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi.flat[i] = h
        grad.flat[i] = (fn(x + hi) - fn(x - hi)) / (2 * h)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(analytic)),
                float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


# Each draw takes an rng and returns a point and the loss of a point with
# the loss's other inputs fixed.

def _draw_info_nce(rng):
    dim = rng.integers(3, 8)
    q = rng.normal(size=dim)
    pos = rng.normal(size=dim)
    negs = [rng.normal(size=dim) for _ in range(rng.integers(1, 5))]
    tau = float(rng.uniform(0.05, 1.0))
    return q, lambda x: losses.info_nce(x, pos, negs, tau)


def _draw_focal(rng):
    shape = (4, 5)
    # stay away from the clamp and keep p in the smooth region
    pred = rng.uniform(0.05, 0.95, size=shape)
    target = np.where(rng.random(shape) < 0.15, 1.0,
                      rng.uniform(0.0, 0.9, size=shape))
    weight = rng.uniform(0.2, 1.0, size=shape)
    return pred.ravel(), lambda x: losses.focal_center_loss(
        x.reshape(shape), target, weight=weight)


def _draw_l1(rng):
    n = rng.integers(2, 10)
    pred = rng.normal(size=n)
    target = pred + np.where(rng.random(n) < 0.5, 1, -1) \
        * rng.uniform(1e-2, 2.0, size=n)  # keep |pred-target| > 1e-3
    return pred, lambda x: losses.l1_loss(x, target)


def _draw_bce(rng):
    n = rng.integers(2, 10)
    pred = rng.uniform(0.05, 0.95, size=n)
    target = (rng.random(n) < 0.5).astype(float)
    weight = rng.uniform(0.2, 1.0, size=n)
    return pred, lambda x: losses.bce_loss(x, target, weight=weight)


def _draw_totals(rng):
    n = rng.integers(2, 8)
    pred = rng.uniform(0.05, 0.95, size=n)
    target = pred + rng.uniform(0.01, 0.5, size=n) * 0.05
    return pred, lambda x: losses.match_loss_total(
        {name: losses.l1_loss(x, target) for name in losses.MATCH_COMPONENTS})


CHECKS = {
    "info_nce": _draw_info_nce,
    "focal": _draw_focal,
    "l1": _draw_l1,
    "bce": _draw_bce,
    "aggregates": _draw_totals,
}


def run_gradient_checks(seed: int = 0, n_points: int = 100):
    """Returns [(name, worst relative error, points, passed)] per loss."""
    results = []
    for i, (name, draw) in enumerate(CHECKS.items()):
        rng = np.random.default_rng([seed, i])
        worst = 0.0
        for _ in range(n_points):
            point, loss = draw(rng)
            num = finite_difference(lambda x: loss(x).value, point)
            worst = max(worst, rel_error(loss(point).gradient, num))
        results.append((name, worst, n_points, worst < REL_TOL))
    return results
