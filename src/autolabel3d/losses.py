"""Numeric loss functions with values and analytic gradients.

Each loss returns a LossValue carrying the scalar and the gradient with
respect to the first argument's parameters, so every implementation can be
validated against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Heatmap, InvalidArgument

PROB_CLAMP = 1e-7


@dataclass(frozen=True, eq=False)
class LossValue:
    value: float
    gradient: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise InvalidArgument(f"loss value must be finite, got {self.value}")
        g = np.asarray(self.gradient, dtype=float)
        if not np.all(np.isfinite(g)):
            raise InvalidArgument("loss gradient must be finite")
        object.__setattr__(self, "gradient", g)


def _as_vec(x, name):
    v = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise InvalidArgument(f"{name} must be finite")
    return v


def _cosine(q, c, qn, cn):
    return float(np.dot(q, c) / (qn * cn))


def info_nce(query, positive, negatives, temperature: float = 0.07) -> LossValue:
    """Contrastive cross-entropy over cosine similarities.

    The positive candidate is class 0; gradient is w.r.t. the query vector.
    """
    if temperature <= 0:
        raise InvalidArgument("temperature must be positive")
    q = _as_vec(query, "query")
    cands = [_as_vec(positive, "positive")] + [_as_vec(n, "negative") for n in negatives]
    if any(c.shape != q.shape for c in cands):
        raise InvalidArgument("all vectors must share the query dimension")
    qn = float(np.linalg.norm(q))
    norms = [float(np.linalg.norm(c)) for c in cands]
    if qn == 0 or any(n == 0 for n in norms):
        raise InvalidArgument("zero-norm vector in info_nce")

    sims = np.array([_cosine(q, c, qn, n) for c, n in zip(cands, norms)])
    logits = sims / temperature
    m = logits.max()
    lse = m + np.log(np.sum(np.exp(logits - m)))
    loss = lse - logits[0]

    # d sim_i / d q = c_i/(|q||c_i|) - sim_i * q/|q|^2
    p = np.exp(logits - lse)
    grad = np.zeros_like(q)
    for i, (c, n) in enumerate(zip(cands, norms)):
        coef = (p[i] - (1.0 if i == 0 else 0.0)) / temperature
        grad += coef * (c / (qn * n) - sims[i] * q / (qn * qn))
    return LossValue(float(loss), grad)


def _heat_values(h):
    if isinstance(h, Heatmap):
        return h.values
    return np.asarray(h, dtype=float)


def focal_center_loss(pred, target, alpha: float = 2.0, beta: float = 4.0,
                      weight=None) -> LossValue:
    """Penalty-reduced focal loss for center heatmaps.

    Positive cells (target == 1) contribute -(1-p)^a log p; all other cells
    contribute -(1-t)^b p^a log(1-p), optionally scaled per cell by `weight`
    (the FNComp downweight hook). Normalized by the positive-cell count.
    """
    p = _heat_values(pred)
    t = _heat_values(target)
    if p.shape != t.shape:
        raise InvalidArgument(f"heatmap shapes differ: {p.shape} vs {t.shape}")
    w = np.ones_like(p) if weight is None else _heat_values(weight)
    if w.shape != p.shape:
        raise InvalidArgument("weight shape must match heatmaps")

    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = t == 1.0
    n_pos = max(int(pos.sum()), 1)

    pos_term = np.where(pos, -((1.0 - p) ** alpha) * np.log(p), 0.0)
    neg_term = np.where(~pos,
                        -w * ((1.0 - t) ** beta) * (p ** alpha) * np.log(1.0 - p),
                        0.0)
    value = float((pos_term.sum() + neg_term.sum()) / n_pos)

    grad_pos = np.where(
        pos,
        alpha * (1.0 - p) ** (alpha - 1) * np.log(p) - (1.0 - p) ** alpha / p,
        0.0)
    grad_neg = np.where(
        ~pos,
        -w * (1.0 - t) ** beta * (alpha * p ** (alpha - 1) * np.log(1.0 - p)
                                  - p ** alpha / (1.0 - p)),
        0.0)
    grad = (grad_pos + grad_neg) / n_pos
    return LossValue(value, grad.ravel())


def l1_loss(pred, target) -> LossValue:
    """Mean absolute error; subgradient 0 at exact ties."""
    p = _as_vec(pred, "pred")
    t = _as_vec(target, "target")
    if p.shape != t.shape:
        raise InvalidArgument(f"length mismatch: {p.shape} vs {t.shape}")
    diff = p - t
    value = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / p.size
    return LossValue(value, grad)


def bce_loss(pred, target, weight=None) -> LossValue:
    """Mean binary cross entropy; `weight` scales the negative (t=0) term."""
    p = _as_vec(pred, "pred")
    t = _as_vec(target, "target")
    if p.shape != t.shape:
        raise InvalidArgument(f"length mismatch: {p.shape} vs {t.shape}")
    w = np.ones_like(p) if weight is None else _as_vec(weight, "weight")
    if w.shape != p.shape:
        raise InvalidArgument("weight length must match pred")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    per = -(t * np.log(p) + w * (1.0 - t) * np.log(1.0 - p))
    grad = (-(t / p) + w * (1.0 - t) / (1.0 - p)) / p.size
    return LossValue(float(np.mean(per)), grad)


MATCH_COMPONENTS = ("sim", "cen", "dim", "off", "mask")
GEOM_COMPONENTS = ("keypoint", "depth", "dim", "dir")


def _sum_components(components: dict, names) -> LossValue:
    missing = [n for n in names if n not in components]
    if missing:
        raise InvalidArgument(f"missing loss components: {missing}")
    parts = [components[n] for n in names]
    value = float(sum(p.value for p in parts))
    grads = [p.gradient for p in parts]
    if len({g.shape for g in grads}) == 1:
        grad = np.sum(grads, axis=0)
    else:
        grad = np.concatenate([g.ravel() for g in grads])
    return LossValue(value, grad)


def match_loss_total(components: dict) -> LossValue:
    """Unweighted sum: similarity + center + dims + offset + mask."""
    return _sum_components(components, MATCH_COMPONENTS)


def geom_loss_total(components: dict) -> LossValue:
    """Unweighted sum: keypoints + depths + dims + direction."""
    return _sum_components(components, GEOM_COMPONENTS)


def total_loss(match: LossValue, geom: LossValue) -> LossValue:
    return _sum_components({"match": match, "geom": geom}, ("match", "geom"))
