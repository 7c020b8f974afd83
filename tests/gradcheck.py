"""A finite-difference gradient checker for the tests (criterion 3 and test_nn.py)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: int
    n_checked: int


def grad_check(loss_fn, params: dict[str, np.ndarray], analytic: dict[str, np.ndarray],
               n_samples: int = 40, h: float = 1e-5, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients to central finite differences on a seeded
    random subset of parameter coordinates.

    ``loss_fn`` must recompute the scalar loss from the current contents of
    ``params`` (which are perturbed in place and restored).
    """
    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    worst = (0.0, names[0], 0)
    for flat in sorted(int(i) for i in picks):
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[which]
        idx = flat - int(offsets[which])
        arr = params[name]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + h
        loss_plus = loss_fn()
        arr.flat[idx] = orig - h
        loss_minus = loss_fn()
        arr.flat[idx] = orig
        fd = (loss_plus - loss_minus) / (2.0 * h)
        an = analytic[name].flat[idx]
        rel = abs(fd - an) / max(abs(fd) + abs(an), 1e-12)
        if rel > worst[0]:
            worst = (rel, name, idx)
    return GradCheckReport(max_rel_err=worst[0], worst_param=worst[1],
                           worst_index=worst[2], n_checked=len(picks))
