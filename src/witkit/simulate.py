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
from functools import reduce
from operator import add

import numpy as np

from . import pauli, settings, states
from .rng import borrow, real_array, whole_number

ALLOCATIONS = ("uniform", "weighted")


@dataclass
class SettingReport:
    """One setting's shots, outcome counts and weighted tally; its index is
    its place in ``EstimateReport.per_setting``."""

    shots: int
    counts: np.ndarray
    contribution: float
    variance: float


@dataclass
class EstimateReport:
    """Witness estimate with per-setting outcome statistics.

    ``estimate`` adds the weighted frequencies of ``per_setting`` from 0.0 in
    setting order; ``std_error`` combines their plug-in sample variances,
    whose O(1/shots) bias is negligible at 1000 shots and beyond.
    """

    per_setting: list

    @property
    def estimate(self) -> float:
        return reduce(add, (r.contribution for r in self.per_setting), 0.0)

    @property
    def std_error(self) -> float:
        return math.sqrt(reduce(add, (r.variance / r.shots for r in self.per_setting), 0.0))

    def to_json_dict(self) -> dict:
        # the settings of a decomposition share their party count
        sizes = {rep.counts.size for rep in self.per_setting}
        if len(sizes) > 1:
            raise ValueError("setting reports have different outcome counts")
        n = pauli.qubits_of(sizes.pop(), "a setting report") if sizes else 1
        bits = settings.OUTCOME_BITS[n - 1]
        out = [{
            "setting": i,
            "shots": rep.shots,
            "counts": dict(zip(bits, rep.counts.tolist())),
            "contribution": rep.contribution,
            "variance": rep.variance,
        } for i, rep in enumerate(self.per_setting)]
        return {"estimate": self.estimate, "std_error": self.std_error,
                "per_setting": out}


def outcome_probabilities(rho, s: settings.MeasurementSetting) -> np.ndarray:
    """Born probabilities of the 2^n product outcomes of a setting.

    Depends on the directions only; rescaling the setting weights leaves
    the distribution unchanged.  ``rho`` is read through
    :func:`states.as_state`, so a matrix that is not a state (non-Hermitian,
    say, or with a NaN or infinite entry) raises ``ValueError``, and a
    ``PureState`` reads as its projector.  Negative values, no lower than
    ``-states.PSD_TOL`` for an admitted state, are clamped to zero.  Only a
    ``DensityMatrix`` whose held matrix was written past its read-only flag
    can reach the product with a NaN or infinite entry; numpy then warns
    (``RuntimeWarning``) and the probability check raises ``ValueError``.

    The 2^n quadratic forms ``v* @ rho @ v`` over the rows ``v`` of the
    product basis, which the setting holds (``s.rows``), are one stacked
    matmul chain, (2^n, 1, 2^n) @ rho @ (2^n, 2^n, 1).  numpy evaluates
    each stacked item with the kernels of the row form ``vc @ rho @ v``
    (a (1, 2^n) @ (2^n, 2^n) product, then a dot), so every probability
    keeps its bytes.
    """
    mat = states.as_state(rho).matrix  # square and complex, as a state holds it
    if mat.shape[0] != s.rows.shape[0]:
        raise ValueError("state and setting dimensions do not match")
    probs = (s.rows_conj[:, None, :] @ mat @ s.rows[:, :, None])[:, 0, 0].real
    # a NaN or infinite probability makes the sum NaN or infinite
    if not math.isfinite(probs.sum()):
        raise ValueError("state produced a non-finite probability "
                         "(a NaN or infinite entry)")
    if probs.min() <= 0.0:  # clamp, and make a -0.0 a 0.0
        probs = np.maximum(probs, 0.0)
    return probs


def sample_counts(p, shots: int, seed: int) -> np.ndarray:
    """Multinomial outcome counts, deterministic given the seed.

    ``p`` must be a nonempty vector (:func:`rng.real_array`) of nonnegative
    values summing to 1, ``shots`` an integer in [0, 2**63), the range of
    numpy's multinomial, and ``seed`` an integer in [0, 2**64); any other
    value raises ``ValueError`` instead of being parsed, truncated or wrapped.
    """
    probs = real_array(p, "probabilities")
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError(f"probabilities must be a nonempty vector, got shape {probs.shape}")
    if probs.min() < 0.0 or abs(float(probs.sum()) - 1.0) > 1e-8:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    shots = whole_number(shots, "shots", bits=63)
    return borrow(seed).multinomial(shots, probs / probs.sum())


def _shot_allocation(weights: np.ndarray, shots_per_setting: int, allocation: str):
    """Shots per setting for a decomposition's (k, 2^n) weight stack."""
    k = len(weights)
    if allocation == "uniform":
        return [shots_per_setting] * k
    if allocation != "weighted":
        raise ValueError(f"allocation must be one of {ALLOCATIONS}")
    # shots proportional to each setting's total absolute weight, with a
    # floor of one shot so every contribution stays estimable; the top-up
    # goes by largest fractional share and the trim by largest allocation,
    # each in a stable order
    budget = shots_per_setting * k
    sizes = np.abs(weights).sum(axis=1)
    total = float(sizes.sum())
    if total == 0.0:
        return [shots_per_setting] * k
    raw = [budget * size / total for size in sizes.tolist()]
    alloc = [max(math.floor(r), 1) for r in raw]
    order = sorted(range(k), key=lambda i: -(raw[i] - math.floor(raw[i])))
    for j in range(budget - sum(alloc)):
        alloc[order[j % k]] += 1
    big = sorted(range(k), key=lambda i: -alloc[i])
    excess = sum(alloc) - budget
    j = 0
    while excess > 0:
        i = big[j % k]
        if alloc[i] > 1:
            alloc[i] -= 1
            excess -= 1
        j += 1
    return alloc


def estimate_witness(rho, dec: settings.LocalDecomposition,
                     shots_per_setting: int, seed: int,
                     allocation: str = "uniform") -> EstimateReport:
    """Unbiased shot-noise estimate of the witness expectation.

    Requires a verified ``LocalDecomposition`` (else ``ValueError``): a
    residual below the tolerance it carries (``LocalDecomposition.tol``;
    1e-10 unless it is a search result, which carries the search's own
    ``tol``).  ``rho`` is read
    once per call through :func:`states.as_state`, as
    :func:`outcome_probabilities` describes.  The returned
    estimate averages, per setting, the outcome weights over the sampled
    frequencies and sums the settings.  ``shots_per_setting`` must
    be a positive integer whose product with the setting count, the shot
    budget, is below 2**62, and ``seed`` an integer in [0, 2**64); a
    fractional, infinite, NaN or out-of-range value raises ``ValueError``
    instead of being truncated or wrapped.  Setting ``i`` draws from
    ``rng.borrow(seed, i)``, the thread's generator re-keyed to substream
    (seed, i), so it gets the draws of ``stream(seed, i)``.
    """
    if not settings._as_decomposition(dec).verified:
        raise ValueError("decomposition is not verified against its target")
    shots_per_setting = whole_number(shots_per_setting, "shots_per_setting", 1)
    # below 2**62 every setting's share of the budget stays inside the
    # int64 range of numpy's multinomial
    if shots_per_setting * dec.n_settings >= 1 << 62:
        raise ValueError(f"the shot budget, shots_per_setting times the setting "
                         f"count, must be below 2**62, got {shots_per_setting!r} "
                         f"x {dec.n_settings}")
    weights = np.array([s.weights.ravel() for s in dec.settings])
    shots = _shot_allocation(weights, shots_per_setting, allocation)
    state = states.as_state(rho)
    draws = []
    for i, s in enumerate(dec.settings):
        probs = outcome_probabilities(state, s)
        draws.append(borrow(seed, i).multinomial(shots[i], probs / probs.sum()))
    # the tallies of all settings as stacked (k, 1, 2^n) @ (k, 2^n, 1)
    # products: each item runs the kernels of the one-setting dot, so
    # every contribution and variance keeps its bytes
    freqs = np.array(draws) / np.array(shots)[:, None]
    contributions = (weights[:, None, :] @ freqs[:, :, None])[:, 0, 0]
    spread = np.square(weights - contributions[:, None])
    variances = (freqs[:, None, :] @ spread[:, :, None])[:, 0, 0]
    return EstimateReport(list(map(SettingReport, shots, draws, contributions.tolist(),
                                   variances.tolist())))
