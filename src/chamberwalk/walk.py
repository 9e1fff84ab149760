"""Monte Carlo engine for the chamber walk and its stopping time T.

T is the first step at which the product of the faces picked so far is a
chamber.  Because the product's zero set is the intersection of the picked
faces' zero sets, T only depends on which hyperplanes have been "cut" so
far, so the samplers track the shrinking set of uncut hyperplanes instead
of the full face product.  ``sample_T_batch`` runs all trials at once, as
rows of packed bit words, from one generator per call, so its output is
deterministic in (seed, trials); each face is an inverse-CDF draw (core._guide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _guide, check_separating
from .exact import _times

DEFAULT_STEP_CAP = 10**9


def sample_T_batch(w, trials, seed):
    """Array of ``trials`` independent copies of T, deterministic in (seed, trials).

    Each trial's uncut hyperplanes are a row of ceil(m/64) packed uint64
    words.  Every step draws one face per still-active trial by inverse CDF,
    from one generator seeded with ``seed`` and one guide table a call,
    gathers the kept bits of those faces into their rows by one take, writes
    the step as T of every active trial (final for those it retires), and
    keeps the trials whose row is not zero by one take of their indices.
    """
    if not check_separating(w):
        raise ValueError("weights do not separate the hyperplanes; T may be infinite")
    bits = np.zeros((len(w.signs) + 1, 64 * -(-w.m // 64)), dtype=bool)
    bits[0, : w.m] = True  # every hyperplane starts uncut
    bits[1:, : w.m] = w.signs == 0  # a pick keeps the ones it lies on
    packed = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    uncut, keep = np.repeat(packed[:1], trials, axis=0), packed[1:]
    cdf = np.cumsum(w.weights)
    draw = _guide(cdf / cdf[-1])
    rng = np.random.default_rng(seed)
    out = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials if w.m else 0)  # no hyperplanes: T = 0
    t = 0
    while active.size:
        t += 1
        if t > DEFAULT_STEP_CAP:
            raise RuntimeError(f"T exceeded the {DEFAULT_STEP_CAP}-step cap")
        uncut &= keep.take(draw(rng.random(active.size), "right"), axis=0)
        out[active] = t
        live = np.flatnonzero(uncut.any(axis=1))
        active, uncut = active.take(live), uncut.take(live, axis=0)
    return out


@dataclass(frozen=True)
class SurvivalEstimate:
    """Monte Carlo estimate of the survival curve P(T > t)."""

    t_values: np.ndarray
    p_hat: np.ndarray
    std_err: np.ndarray


def survival_from_samples(samples, t_grid):
    """Turn T samples into a SurvivalEstimate over a time grid, in its order,
    from one count of the samples past each number of the grid's distinct times."""
    t_grid = list(t_grid)
    if not (times := _times(t_grid)):  # a negative or a fractional time raises ValueError
        raise ValueError("empty time grid")
    t_grid = np.asarray(t_grid, dtype=np.int64)
    samples = np.asarray(samples)
    if not (trials := len(samples)):
        raise ValueError("no T samples")
    below = np.bincount(np.searchsorted(times, samples), minlength=len(times) + 1)
    p_hat = (trials - np.cumsum(below)[np.searchsorted(times, t_grid)]) / trials
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / trials)
    return SurvivalEstimate(t_values=t_grid, p_hat=p_hat, std_err=std_err)

