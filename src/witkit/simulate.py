"""Shot-limited simulation of measuring a decomposed witness.

Each setting is sampled from the exact outcome distribution of its
product eigenbasis; the witness estimate adds the per-setting weighted
frequencies.  Setting ``i`` draws from the Philox substream keyed by
(seed, i), so simulating settings in parallel reproduces a sequential
run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, settings
from .rng import rekey, stream, whole_number

ALLOCATIONS = ("uniform", "weighted")


@dataclass
class SettingReport:
    setting_index: int
    shots: int
    counts: np.ndarray
    contribution: float
    variance: float


@dataclass
class EstimateReport:
    """Witness estimate with per-setting outcome statistics.

    ``estimate`` sums the weighted outcome frequencies over settings;
    ``std_error`` combines the plug-in sample variances, which carry an
    O(1/shots) bias that is negligible at 1000 shots and beyond.
    """

    estimate: float
    std_error: float
    per_setting: list

    def to_json_dict(self) -> dict:
        out = []
        for rep in self.per_setting:
            n_parties = int(math.log2(rep.counts.size))
            counts = {}
            for outcome, count in enumerate(rep.counts):
                bits = format(outcome, f"0{n_parties}b")
                counts[bits] = int(count)
            out.append({
                "setting": rep.setting_index,
                "shots": rep.shots,
                "counts": counts,
                "contribution": rep.contribution,
                "variance": rep.variance,
            })
        return {"estimate": self.estimate, "std_error": self.std_error,
                "per_setting": out}


def outcome_probabilities(rho, s: settings.MeasurementSetting) -> np.ndarray:
    """Born probabilities of the 2^n product outcomes of a setting.

    Depends on the directions only; rescaling the setting weights leaves
    the distribution unchanged.  Tiny negative values from roundoff are
    clamped to zero; a NaN or infinite probability (from a non-finite
    entry of ``rho``) raises ``ValueError``.

    The 2^n quadratic forms ``v* @ rho @ v`` over the rows ``v`` of the
    product basis are one stacked matmul chain, (2^n, 1, 2^n) @ rho @
    (2^n, 2^n, 1).  numpy evaluates each stacked item with the kernels
    of the row form ``vc @ rho @ v`` (a (1, 2^n) @ (2^n, 2^n) product,
    then a dot), so every probability keeps its bytes.
    """
    mat = linalg.as_matrix(getattr(rho, "matrix", rho))
    dim = 2 ** s.n_parties
    if mat.shape[0] != dim:
        raise ValueError("state and setting dimensions do not match")
    rows = np.ascontiguousarray(settings.setting_basis(s).T)
    with np.errstate(invalid="ignore"):  # an infinite entry times 0 is NaN
        probs = (rows.conj()[:, None, :] @ mat @ rows[:, :, None])[:, 0, 0].real
    if not np.isfinite(probs).all():
        raise ValueError("state produced a non-finite probability "
                         "(a NaN or infinite entry)")
    if probs.min() < -1e-12:
        raise ValueError("state produced a significantly negative probability")
    probs = np.maximum(probs, 0.0)
    if abs(float(probs.sum()) - 1.0) > 1e-10:
        raise ValueError("outcome probabilities do not sum to 1")
    return probs


def sample_counts(p, shots: int, seed: int) -> np.ndarray:
    """Multinomial outcome counts, deterministic given the seed.

    ``shots`` must be an integer in [0, 2**63), the range of numpy's
    multinomial, and ``seed`` an integer in [0, 2**64); a fractional,
    infinite, NaN or out-of-range value raises ``ValueError`` instead of
    being truncated or wrapped.
    """
    probs = np.asarray(p, dtype=float)
    if not np.isfinite(probs).all():
        raise ValueError("probabilities have a non-finite (NaN or infinite) entry")
    if probs.min() < 0.0 or abs(float(probs.sum()) - 1.0) > 1e-8:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    shots = whole_number(shots, "shots", bits=63)
    return stream(seed).multinomial(shots, probs / probs.sum())


def _shot_allocation(dec: settings.LocalDecomposition, shots_per_setting: int,
                     allocation: str):
    k = dec.n_settings
    if allocation == "uniform":
        return [shots_per_setting] * k
    if allocation != "weighted":
        raise ValueError(f"allocation must be one of {ALLOCATIONS}")
    # shots proportional to each setting's total absolute weight, with a
    # floor of one shot so every contribution stays estimable
    budget = shots_per_setting * k
    sizes = np.array([float(np.abs(s.weights).sum()) for s in dec.settings])
    if sizes.sum() == 0.0:
        return [shots_per_setting] * k
    raw = budget * sizes / sizes.sum()
    alloc = np.maximum(np.floor(raw).astype(int), 1)
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    j = 0
    while alloc.sum() < budget:
        alloc[order[j % k]] += 1
        j += 1
    big = np.argsort(-alloc, kind="stable")
    j = 0
    while alloc.sum() > budget:
        if alloc[big[j % k]] > 1:
            alloc[big[j % k]] -= 1
        j += 1
    return [int(a) for a in alloc]


def estimate_witness(rho, dec: settings.LocalDecomposition,
                     shots_per_setting: int, seed: int,
                     allocation: str = "uniform") -> EstimateReport:
    """Unbiased shot-noise estimate of the witness expectation.

    Requires a verified decomposition (residual below 1e-10).  The
    returned estimate averages, per setting, the outcome weights over the
    sampled frequencies and sums the settings.  ``shots_per_setting`` must
    be a positive integer whose product with the setting count, the shot
    budget, is below 2**62, and ``seed`` an integer in [0, 2**64); a
    fractional, infinite, NaN or out-of-range value raises ``ValueError``
    instead of being truncated or wrapped.  Setting 0 draws from a fresh
    ``stream(seed)``, which is substream (seed, 0); each later setting
    ``i`` re-keys that generator to substream (seed, i)
    (:func:`rng.rekey`), so setting ``i`` gets the draws of
    ``stream(seed, i)``.
    """
    if not dec.verified:
        raise ValueError("decomposition is not verified against its target")
    shots_per_setting = whole_number(shots_per_setting, "shots_per_setting", 1)
    # below 2**62 the weighted allocation's float shares of the budget
    # floor to int64 values whose sum cannot overflow
    if shots_per_setting * dec.n_settings >= 1 << 62:
        raise ValueError(f"the shot budget, shots_per_setting times the setting "
                         f"count, must be below 2**62, got {shots_per_setting!r} "
                         f"x {dec.n_settings}")
    shots = _shot_allocation(dec, shots_per_setting, allocation)
    gen = stream(seed)
    reports = []
    estimate = 0.0
    var_total = 0.0
    for i, s in enumerate(dec.settings):
        probs = outcome_probabilities(rho, s)
        if i:
            rekey(gen, seed, i)
        counts = gen.multinomial(shots[i], probs / probs.sum())
        freqs = counts / shots[i]
        w = s.weights.ravel()
        contribution = float(w @ freqs)
        variance = float(freqs @ np.square(w - contribution))
        reports.append(SettingReport(i, shots[i], counts, contribution, variance))
        estimate += contribution
        var_total += variance / shots[i]
    return EstimateReport(estimate, math.sqrt(var_total), reports)
