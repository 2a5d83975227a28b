"""Central-difference gradient checker for the autodiff tests."""

from typing import Callable, Sequence

import numpy as np

from parkrank import tensor as T
from parkrank.errors import DimensionError


def grad_check(
    f: Callable[[], T.Tensor],
    params: Sequence[T.Tensor],
    h: float = 1e-5,
    kink_filter: bool = False,
) -> float:
    """Max relative error between analytic and central-difference grads.

    Relative error per entry is |analytic - numeric| / max(1, |numeric|);
    f must rebuild the graph (deterministically) on every call.

    With kink_filter, every entry is probed at step h and h/2 and
    skipped when the two estimates disagree: the central difference
    converges only where the loss is smooth, so disagreement marks a
    perturbation that crosses a hinge point, where no finite-difference
    reference exists. A skip rate above 5% raises, so a wrong backward
    pass cannot hide behind the filter.
    """

    def central(idx_ref, flat, original, step):
        flat[idx_ref] = original + step
        plus = f().item()
        flat[idx_ref] = original - step
        minus = f().item()
        flat[idx_ref] = original
        return (plus - minus) / (2.0 * step)

    for p in params:
        p.grad = None
    T.backward(f())
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]
    worst = 0.0
    skipped = 0
    total = 0
    for p, ref in zip(params, analytic):
        flat = p.data.reshape(-1)
        ref_flat = ref.reshape(-1)
        for idx in range(flat.size):
            total += 1
            original = flat[idx]
            numeric = central(idx, flat, original, h)
            if kink_filter:
                finer = central(idx, flat, original, h / 2.0)
                if abs(numeric - finer) / max(1.0, abs(finer)) > 1e-6:
                    skipped += 1
                    continue
            err = abs(ref_flat[idx] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    for p in params:
        p.grad = None
    if kink_filter and skipped > 0.05 * total:
        raise DimensionError(
            f"grad_check: {skipped} of {total} entries sit on hinge "
            "points; inputs are unsuitable for finite differences"
        )
    return worst
