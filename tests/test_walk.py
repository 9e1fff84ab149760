import itertools

import numpy as np
import pytest
from scipy import stats

import chamberwalk as cw
from chamberwalk import walk
from chamberwalk.core import is_chamber
from chamberwalk.walk import sample_T_batch, survival_from_samples

from reference import face_product


def _boolean2_uniform():
    return cw.hypercube_nn_faces([0.25, 0.25], [0.25, 0.25])


def test_long_run_law_uniform():
    # symmetry forces the uniform stationary law on the 4 orthants
    arr, w = cw.build_boolean(2), _boolean2_uniform()
    counts = {c: 0 for c in arr.chambers}
    rng = np.random.default_rng(5)
    trials = 100_000
    # t=12 is far past mixing for 2 coordinates
    faces = w.faces
    for _ in range(trials):
        cur = (1, 1)
        for k in rng.choice(len(faces), size=12, p=w.weights):
            cur = face_product(faces[k], cur)
        counts[cur] += 1
    for c in arr.chambers:
        p = counts[c] / trials
        se = np.sqrt(0.25 * 0.75 / trials)
        assert abs(p - 0.25) < 3 * se + 2 * (0.5**12)


def test_sample_T_mean_boolean2():
    # two-coupon collector at rate 1/2 per coupon: E[T] = 3
    w = _boolean2_uniform()
    samples = sample_T_batch(w, 100_000, seed=9)
    se = samples.std() / np.sqrt(len(samples))
    assert abs(samples.mean() - 3.0) < 3 * se


def test_sample_T_is_one_when_chamber_face_drawn_first():
    w = cw.weighted_faces([(1,), (-1,)], [0.6, 0.4])
    assert sample_T_batch(w, 50, seed=0).tolist() == [1] * 50


def test_tsetlin3_T_equals_2_probability():
    # T=2 iff the second card differs from the first: probability 2/3
    w = cw.tsetlin_faces(cw.TsetlinSpec([1 / 3, 1 / 3, 1 / 3]))
    samples = sample_T_batch(w, 100_000, seed=2)
    p = (samples == 2).mean()
    se = np.sqrt(p * (1 - p) / len(samples))
    assert abs(p - 2 / 3) < 3 * se


def test_survival_estimate_contract():
    w = _boolean2_uniform()
    est = survival_from_samples(sample_T_batch(w, 50_000, seed=4), [0, 1, 2, 4, 8])
    assert est.p_hat[0] == 1.0  # T >= 1 always
    assert np.all(np.diff(est.p_hat) <= 0)
    assert np.all((est.p_hat >= 0) & (est.p_hat <= 1))
    # exact P(T>2) = 1/2 by enumerating the 16 equally likely face pairs
    i2 = list(est.t_values).index(2)
    assert abs(est.p_hat[i2] - 0.5) < 3 * est.std_err[i2]


def test_survival_estimate_is_the_per_time_comparison_loop():
    # one count of the samples between the distinct times gives each p_hat
    # bit for bit, in grid order, with tied samples, repeated and unsorted
    # times and T near int64's maximum
    big = np.iinfo(np.int64).max
    rng = np.random.default_rng(5)
    for samples, grid in [
        (rng.integers(0, 12, 1001), [7, 0, 3, 3, 11, 12, 2, 40]),
        (sample_T_batch(_boolean2_uniform(), 5000, seed=9), [4, 1, 2, 1, 0]),
        (np.array([big, big - 1, 0, big, 5, big - 1]), [big - 1, 0, big, 4, 5, big - 2]),
    ]:
        est = survival_from_samples(samples, grid)
        want = np.array([(np.asarray(samples) > t).mean() for t in np.asarray(grid)])
        assert est.t_values.tolist() == grid
        assert np.array_equal(est.p_hat, want)
        assert np.array_equal(est.std_err, np.sqrt(want * (1.0 - want) / len(samples)))


def test_survival_estimate_empty_grid():
    w = _boolean2_uniform()
    with pytest.raises(ValueError, match="empty time grid"):
        survival_from_samples(sample_T_batch(w, 10, seed=0), [])


def test_survival_estimate_refuses_no_samples():
    # no trials: no mean to read, where numpy would warn and give nan
    w = _boolean2_uniform()
    for samples in ([], sample_T_batch(w, 0, seed=0)):
        with pytest.raises(ValueError, match="no T samples"):
            survival_from_samples(samples, [1, 2])


def test_survival_estimate_deterministic():
    w = _boolean2_uniform()
    a = survival_from_samples(sample_T_batch(w, 2000, seed=123), [1, 2, 3])
    b = survival_from_samples(sample_T_batch(w, 2000, seed=123), [1, 2, 3])
    assert np.array_equal(a.p_hat, b.p_hat)


def _searchsorted_T_batch(w, trials, seed):
    """sample_T_batch as it drew each face, with one np.searchsorted on the
    weight CDF per draw."""
    bits = np.zeros((len(w.signs) + 1, 64 * -(-w.m // 64)), dtype=bool)
    bits[0, : w.m] = True
    bits[1:, : w.m] = w.signs == 0
    packed = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    uncut, keep = np.repeat(packed[:1], trials, axis=0), packed[1:]
    cdf = np.cumsum(w.weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    out, active, t = np.zeros(trials, dtype=np.int64), np.arange(trials if w.m else 0), 0
    while active.size:
        t += 1
        uncut &= keep[np.searchsorted(cdf, rng.random(active.size), side="right")]
        done = ~uncut.any(axis=1)
        out[active[done]] = t
        active, uncut = active[~done], uncut[~done]
    return out


def _wide_weights():
    # boolean(3): the chamber +++ at weight 1/2, and the other faces at
    # weights from 1 down to 1e-12, so that many CDF points share a cell
    faces = [f for f in itertools.product((1, -1, 0), repeat=3) if f != (1, 1, 1)]
    raw = np.logspace(0, -12, len(faces))
    return cw.WeightedFaceSet([(1, 1, 1)] + faces, np.append(1.0, raw / raw.sum()) / 2)


@pytest.mark.parametrize("faces, trials", [
    (lambda: cw.riffle_faces(7, 2), 20_000),
    (lambda: cw.top_bottom_faces(7, np.arange(1, 8) / 28), 10_000),
    (_wide_weights, 20_000),
])
def test_batch_sampler_is_the_searchsorted_loop_draw_for_draw(faces, trials):
    w = faces()
    for seed in (0, 29):
        assert np.array_equal(sample_T_batch(w, trials, seed), _searchsorted_T_batch(w, trials, seed))


def test_uncut_tracking_matches_full_product():
    # T from the uncut set must equal the first step where the explicit
    # face product becomes a chamber, replaying the one-trial batch's
    # inverse-CDF draws
    w = cw.tsetlin_faces(cw.TsetlinSpec([0.5, 0.3, 0.2]))
    cdf = np.cumsum(w.weights)
    cdf /= cdf[-1]
    for k in range(1000):
        T = int(sample_T_batch(w, 1, seed=k)[0])
        rng = np.random.default_rng(k)
        prod = None
        first_chamber = None
        for step in range(1, T + 5):
            f = w.faces[int(np.searchsorted(cdf, rng.random(1), side="right")[0])]
            prod = f if prod is None else face_product(prod, f)
            if first_chamber is None and is_chamber(prod):
                first_chamber = step
        assert first_chamber == T


def test_conditional_on_T_is_uniform():
    # chamber at the stopping time is uniform for invariant weights
    arr = cw.build_braid(3)
    w = cw.tsetlin_faces(cw.TsetlinSpec([1 / 3, 1 / 3, 1 / 3]))
    rng = np.random.default_rng(31)
    by_T = {}
    for _ in range(100_000):
        cur = arr.chambers[0]
        uncut = set(range(arr.m))
        t = 0
        while uncut:
            t += 1
            k = rng.choice(len(w.faces), p=w.weights)
            cur = face_product(w.faces[k], cur)
            uncut -= set(i for i, x in enumerate(w.faces[k]) if x != 0)
        by_T.setdefault(t, []).append(cur)
    # test the best-populated T values
    for t in sorted(by_T, key=lambda t: -len(by_T[t]))[:3]:
        chambers = by_T[t]
        counts = [sum(1 for c in chambers if c == ch) for ch in arr.chambers]
        _, pval = stats.chisquare(counts)
        assert pval > 0.001


def _assert_survival_within_4se(samples, exact):
    for t, p in exact.items():
        se = max(np.sqrt(p * (1 - p) / len(samples)), 1 / len(samples))
        assert abs((samples > t).mean() - p) < 4 * se, (t, (samples > t).mean(), p)


def test_sample_T_batch_second_packed_word():
    # 70 hyperplanes need two uint64 words per trial; the uncut count is a
    # coupon chain that cuts a new coordinate with probability u/70
    m = 70
    w = cw.hypercube_nn_faces(np.full(m, 0.3 / m), np.full(m, 0.7 / m))
    samples = sample_T_batch(w, 20_000, seed=61)
    law = np.zeros(m + 1)
    law[m] = 1.0
    exact = {}
    for t in range(1, 701):
        u = np.arange(m + 1)
        law = law * (1 - u / m) + np.append(law[1:] * u[1:] / m, 0.0)
        if t in (150, 250, 350, 500, 700):
            exact[t] = 1.0 - law[0]
    _assert_survival_within_4se(samples, exact)


@pytest.mark.parametrize(
    "arr, w",
    [
        (cw.build_braid(5), cw.riffle_faces(5, 2)),
        (cw.build_braid(5), cw.tsetlin_faces(cw.TsetlinSpec([0.35, 0.25, 0.2, 0.12, 0.08]))),
    ],
    ids=["riffle5", "tsetlin5-nonuniform"],
)
def test_sample_T_batch_matches_exact_survival(arr, w):
    samples = sample_T_batch(w, 50_000, seed=62)
    _assert_survival_within_4se(samples, cw.survival_exact_profile(arr, w, range(1, 25)))


def test_sample_T_batch_contract(monkeypatch):
    w = _boolean2_uniform()
    a = sample_T_batch(w, 3000, seed=63)
    assert np.array_equal(a, sample_T_batch(w, 3000, seed=63))
    # the cap admits T == DEFAULT_STEP_CAP and refuses anything longer
    monkeypatch.setattr(walk, "DEFAULT_STEP_CAP", a.max())
    assert np.array_equal(a, sample_T_batch(w, 3000, seed=63))
    monkeypatch.setattr(walk, "DEFAULT_STEP_CAP", a.max() - 1)
    with pytest.raises(RuntimeError):
        sample_T_batch(w, 3000, seed=63)
    monkeypatch.setattr(walk, "DEFAULT_STEP_CAP", 1)
    with pytest.raises(RuntimeError):
        sample_T_batch(w, 10, seed=63)  # T >= 2 on boolean(2)
