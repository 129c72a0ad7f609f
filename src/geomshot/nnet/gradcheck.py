"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .layers import ParamTensor

H = 1e-5  # the central-difference step


@dataclass
class GradCheckReport:
    per_param: dict[str, float]  # max relative error per parameter tensor
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def finite_difference_check(
    params: list[ParamTensor],
    loss_fn: Callable[[], float],
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare each .grad against central differences of loss_fn.

    loss_fn must be a deterministic pure function of the current parameter
    values (freeze dropout masks by reseeding inside it), and .grad must
    already hold the analytic gradients for the unperturbed parameters.
    The relative error denominator is floored at 1e-6 so exactly-zero
    gradients compare at finite-difference noise level.
    """
    per_param: dict[str, float] = {}
    for p in params:
        flat = p.values.reshape(-1)
        gflat = p.grad.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            f_plus = loss_fn()
            flat[i] = orig - H
            f_minus = loss_fn()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * H)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, abs(analytic - numeric) / denom)
        per_param[p.name] = worst
    overall = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(per_param, overall, tolerance)
