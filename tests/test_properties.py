"""Differential properties of the exact survival P(T > t) on random walks:
random positive weights on random face subsets of boolean(2..4) and
braid(3..4), kept only when they separate the hyperplanes."""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chamberwalk as cw
from chamberwalk.core import face_product, is_chamber, ordered_set_partitions

TIMES = range(1, 26)
CASES = settings(derandomize=True, database=None, deadline=None, max_examples=40)

UNIVERSES = {("boolean", n): (cw.build_boolean(n), list(itertools.product((1, -1, 0), repeat=n)))
             for n in (2, 3, 4)}
UNIVERSES.update({("braid", n): (cw.build_braid(n), [cw.partition_to_sign_vector(p, n)
                                                     for p in ordered_set_partitions(range(n))])
                  for n in (3, 4)})


@st.composite
def walks(draw, max_faces=8):
    arr, universe = UNIVERSES[draw(st.sampled_from(sorted(UNIVERSES)))]
    faces = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=max_faces, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(faces), max_size=len(faces)))
    w = cw.WeightedFaceSet(tuple(faces), np.array(raw) / sum(raw))
    assume(cw.check_separating(w))
    return arr, w


def inclusion_exclusion(arr, w, t):
    """Sum over every nonempty set S of hyperplanes of (-1)^(|S|+1) q_S^t,
    q_S the weight of the faces that lie on every hyperplane of S."""
    total = 0.0
    for size in range(1, arr.m + 1):
        for S in itertools.combinations(range(arr.m), size):
            q = sum(wt for f, wt in zip(w.faces, w.weights) if all(f[i] == 0 for i in S))
            total += (-1) ** (size + 1) * q**t
    return total


def by_face_sequences(w, t):
    """P(T > t): the weight of the face sequences of length t whose product
    is not a chamber."""
    total = 0.0
    for seq in itertools.product(range(len(w.faces)), repeat=t):
        product = w.faces[seq[0]]
        for k in seq[1:]:
            product = face_product(product, w.faces[k])
        if not is_chamber(product):
            total += float(np.prod(w.weights[list(seq)]))
    return total


@CASES
@given(walks())
def test_survival_equals_inclusion_exclusion_over_hyperplane_subsets(walk):
    arr, w = walk
    got = cw.survival_exact_profile(arr, w, TIMES)
    for t in TIMES:
        assert abs(got[t] - inclusion_exclusion(arr, w, t)) <= 1e-12, t


@CASES
@given(walks(max_faces=6))
def test_survival_equals_face_sequence_enumeration(walk):
    arr, w = walk
    got = cw.survival_exact_profile(arr, w, [1, 2, 3])
    for t in (1, 2, 3):
        assert abs(got[t] - by_face_sequences(w, t)) <= 1e-12, t


@CASES
@given(walks())
def test_total_variation_below_survival_below_separation(walk):
    arr, w = walk
    survival = cw.survival_exact_profile(arr, w, TIMES)
    for t, (s, tv) in cw.distance_profiles(arr, w, TIMES).items():
        assert tv <= survival[t] + 1e-12 and survival[t] <= s + 1e-12, t
