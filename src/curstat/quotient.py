"""Quotient estimator of the distribution function.

The distribution function equals the ratio of the status-1 sub-density
to the examination-time density wherever the latter is positive, so
clamping the ratio of the two adaptive projection estimates to [0, 1]
gives a plug-in estimate. Clamping never hurts: for any target value c
in [0, 1], |clamp(r) - c| <= |r - c|.

The result is not forced to be monotone; the raw ratio is reported
wherever it already lies in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import CAP_DENSITY, BasisFamily, build_collection, dyadic_family
from .data import ObservationSample
from .estimates import CdfEstimate, _evaluated
from .projection import (
    ProjectionEstimate,
    _select_models,
    density_penalty,
    select_projection_model,
)


@dataclass(frozen=True, eq=False)
class ClampedRatio:
    """Evaluator of the clamped ratio of two projection estimates.

    Its value at x is ``combine`` of its ``parts``, the numerator and the
    denominator, at x. A call goes through ``estimates._evaluate_each``,
    which evaluates many such evaluators at once by this pair, with one
    design matrix for both parts when they share a model.
    """

    numerator: ProjectionEstimate
    denominator: ProjectionEstimate

    def parts(self) -> tuple:
        return self.numerator, self.denominator

    @staticmethod
    def combine(values) -> np.ndarray:
        num, den = values
        out = np.empty_like(num)
        nonzero = den != 0.0
        out[nonzero] = num[nonzero] / den[nonzero]
        # Where the density estimate vanishes exactly, a positive numerator
        # maps to 1; a negative or vanishing one maps to 0.
        out[~nonzero] = num[~nonzero] > 0.0
        return np.clip(out, 0.0, 1.0)

    __call__ = _evaluated


def quotient_cdf(
    numerator: ProjectionEstimate, denominator: ProjectionEstimate
) -> CdfEstimate:
    """Clamped ratio of a sub-density estimate to a density estimate.

    The estimate's evaluator is a ``ClampedRatio``, which exposes the
    two estimates as ``numerator`` and ``denominator`` and is evaluated
    by ``estimates._evaluate_each``, the rule of every estimate with parts.
    """
    metadata = {
        "numerator_model": numerator.model.describe(),
        "denominator_model": denominator.model.describe(),
        "numerator_contrast": -numerator.norm_sq,
        "denominator_contrast": -denominator.norm_sq,
    }
    return CdfEstimate("quotient", ClampedRatio(numerator, denominator), metadata)


def fit_quotient_cdf(
    sample: ObservationSample,
    family: BasisFamily | None = None,
    kappa: float = 4.0,
) -> CdfEstimate:
    """Run both adaptive density fits in one scan and combine them."""
    collection = _density_collection(family, sample.n)
    return _estimate(sample, *select_projection_model(sample, collection, kappa), kappa)


def _fit_quotient_cdfs(
    stack, family: BasisFamily | None = None, kappa: float = 4.0
) -> list[CdfEstimate]:
    """``fit_quotient_cdf`` of each sample of a ``data._SortedStack``, from one scan.

    The samples must have one size. They share one collection and one
    ``projection._select_models`` pass, of which
    ``select_projection_model`` is the pass on one sample; each one's
    estimate is bitwise the one it gets alone.
    """
    samples = stack.samples
    picks = _select_models(stack, _density_collection(family, samples[0].n), kappa)
    return [_estimate(sample, sub, den, kappa) for sample, (sub, den) in zip(samples, picks)]


def _density_collection(family: BasisFamily | None, n: int):
    return build_collection(dyadic_family() if family is None else family, n, CAP_DENSITY)


def _estimate(sample, sub: ProjectionEstimate, den: ProjectionEstimate, kappa: float):
    estimate = quotient_cdf(sub, den)
    estimate.metadata["numerator_penalty"] = density_penalty(
        sub.model, sample.n, kappa, float(sample.delta.mean())
    )
    estimate.metadata["denominator_penalty"] = density_penalty(
        den.model, sample.n, kappa, 1.0
    )
    return estimate
