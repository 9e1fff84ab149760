import itertools
import re

import numpy as np
import pytest

import chamberwalk as cw
from chamberwalk.cli import main
from chamberwalk.core import (
    ZERO,
    chamber_to_permutation,
    fubini_number,
    ordered_set_partitions,
    permutation_to_chamber,
    validate_closure,
)


def braid_universe(n):
    """Every face of the braid arrangement, one per ordered set partition."""
    return [cw.partition_to_sign_vector(b, n) for b in ordered_set_partitions(range(n))]


def boolean_universe(n):
    """Every face of the Boolean arrangement: {+,-,0}^n."""
    return list(itertools.product((1, -1, 0), repeat=n))


def test_face_product_example():
    f = cw.parse_sign_vector("+0-")
    g = cw.parse_sign_vector("--+")
    assert cw.face_product(f, g) == cw.parse_sign_vector("+--")


def test_face_product_length_mismatch():
    with pytest.raises(cw.DimensionError):
        cw.face_product((1, 0), (1, 0, -1))


def test_is_chamber():
    assert cw.is_chamber(cw.parse_sign_vector("+++"))
    assert not cw.is_chamber(cw.parse_sign_vector("0+-"))
    assert not cw.is_chamber((0, 0, 0))


@pytest.mark.parametrize("builder,n", [("boolean", 5), ("braid", 4)])
def test_semigroup_laws_random(builder, n):
    faces = boolean_universe(n) if builder == "boolean" else braid_universe(n)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(faces), size=(10_000, 3))
    for i, j, k in idx:
        f, g, h = faces[i], faces[j], faces[k]
        assert cw.face_product(cw.face_product(f, g), h) == cw.face_product(
            f, cw.face_product(g, h)
        )
        assert cw.face_product(f, f) == f
        assert cw.face_product(cw.face_product(f, g), f) == cw.face_product(f, g)


def test_chamber_absorption():
    arr = cw.build_braid(3)
    for f in braid_universe(3):
        for c in arr.chambers:
            assert cw.is_chamber(cw.face_product(f, c))


def test_build_boolean_counts():
    for n in (2, 3):
        arr = cw.build_boolean(n)
        faces = boolean_universe(n)
        assert arr.m == n
        assert arr.n_chambers == 2**n
        assert len(faces) == 3**n
        assert set(arr.chambers) == {f for f in faces if cw.is_chamber(f)}
    with pytest.raises(ValueError):
        cw.build_boolean(0)


def test_build_braid_counts():
    # face counts cross-checked against direct ordered-set-partition enumeration
    for n, m, nch in [(2, 1, 2), (3, 3, 6), (4, 6, 24)]:
        arr = cw.build_braid(n)
        faces = braid_universe(n)
        assert arr.m == m
        assert arr.n_chambers == nch
        assert len(faces) == sum(1 for _ in ordered_set_partitions(range(n)))
        assert len(faces) == fubini_number(n)
        assert set(arr.chambers) == {f for f in faces if cw.is_chamber(f)}
    assert fubini_number(3) == 13
    assert fubini_number(4) == 75
    with pytest.raises(ValueError):
        cw.build_braid(1)


def test_braid_faces_closed_under_product():
    assert validate_closure(braid_universe(4)) is None


def looped_closure(faces):
    """The first pair of faces whose product is not listed, one pair at a
    time: every pair in itertools.product order up to 10^6 pairs, else 10^6
    pairs drawn by default_rng(0)."""
    listed, k = set(faces), len(faces)
    if k * k <= 10**6:
        pairs = itertools.product(faces, faces)
    else:
        idx = np.random.default_rng(0).integers(0, k, size=(10**6, 2))
        pairs = ((faces[i], faces[j]) for i, j in idx)
    return next(((f, g) for f, g in pairs if cw.face_product(f, g) not in listed), None)


@pytest.mark.parametrize("n", [4, 6])  # exhaustive, then sampled (4683 faces)
def test_closure_check_finds_the_pair_loops_first_violation(n):
    universe = braid_universe(n)
    for drop in (0, len(universe) // 2):  # a chamber, then a face with zeros
        faces = universe[:drop] + universe[drop + 1:]
        want = looped_closure(faces)
        assert want is not None and validate_closure(faces) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_boolean_chambers_equal_the_product_loop(n):
    got = cw.build_boolean(n).chambers
    assert got == tuple(itertools.product((1, -1), repeat=n))
    assert all(type(x) is int for c in got for x in c)


def test_partition_to_sign_vector():
    # cards are 0-based; pairs ordered (0,1), (0,2), (1,2)
    assert cw.partition_to_sign_vector([{0}, {1, 2}], 3) == cw.parse_sign_vector("++0")
    assert cw.partition_to_sign_vector([{0, 1, 2}], 3) == (0, 0, 0)
    assert cw.partition_to_sign_vector([{1}, {0}, {2}], 3) == cw.parse_sign_vector(
        "-++"
    )
    with pytest.raises(ValueError):
        cw.partition_to_sign_vector([{0}, {0, 1}], 2)
    with pytest.raises(ValueError):
        cw.partition_to_sign_vector([{0}], 2)


def test_linear_orders_are_chambers():
    for perm in itertools.permutations(range(4)):
        c = cw.partition_to_sign_vector([{x} for x in perm], 4)
        assert cw.is_chamber(c)
        assert chamber_to_permutation(c, 4) == perm


def _pop_shuffle(perm, blocks):
    out = []
    placed = set()
    for block in blocks:
        out.extend(c for c in perm if c in block)
        placed |= set(block)
    out.extend(c for c in perm if c not in placed)
    return tuple(out)


def test_braid_product_matches_pop_shuffle():
    # permutation-level simulation is the oracle for the face action
    n = 5
    rng = np.random.default_rng(7)
    parts = [p for p in ordered_set_partitions(range(n))]
    for _ in range(1000):
        perm = tuple(rng.permutation(n))
        blocks = parts[rng.integers(len(parts))]
        face = cw.partition_to_sign_vector(blocks, n)
        moved = cw.face_product(face, permutation_to_chamber(perm))
        assert moved == permutation_to_chamber(_pop_shuffle(perm, blocks))


def test_check_separating():
    tf = cw.tsetlin_faces(cw.TsetlinSpec([1 / 3, 1 / 3, 1 / 3]))
    assert cw.check_separating(tf)

    a2 = cw.build_boolean(2)
    w = cw.WeightedFaceSet(((1, 0),), np.array([1.0]))
    assert not cw.check_separating(w)
    from chamberwalk.core import violated_hyperplanes

    assert violated_hyperplanes(w) == [1]
    for exact in (cw.distance_profiles, cw.separation_profile):
        with pytest.raises(ValueError, match="non-separating"):
            exact(a2, w, range(1, 4))
    with pytest.raises(ValueError, match="no weighted faces"):
        cw.WeightedFaceSet((), np.array([]))


def test_weighted_face_set_validation():
    with pytest.raises(ValueError):
        cw.WeightedFaceSet(((1, 1),), np.array([0.5]))
    with pytest.raises(ValueError):
        cw.WeightedFaceSet(((1, 1), (0, 1)), np.array([0.7, -0.3]))


def test_custom_arrangement_rejects_unclosed_faces():
    # omit the product (+,+) of (+,0) and (0,+)
    faces = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, -1), (-1, 0), (0, -1), (1, -1)]
    with pytest.raises(ValueError, match="closed"):
        cw.build_custom(2, [(1, 1), (-1, -1), (1, -1)], faces)


def test_arrangement_file_roundtrip(tmp_path):
    arr = cw.build_custom(2, cw.build_boolean(2).chambers, boolean_universe(2))
    w = cw.hypercube_nn_faces([0.3, 0.2], [0.25, 0.25])
    path = tmp_path / "bool2.arr"
    from chamberwalk.core import write_arrangement_file

    write_arrangement_file(path, arr, w)
    arr2, w2 = cw.load_arrangement_file(path)
    assert arr2.m == 2
    assert set(arr2.chambers) == set(arr.chambers)
    assert set(arr2.faces) == set(arr.faces)
    got = dict(zip(w2.faces, w2.weights))
    for f, wt in zip(w.faces, w.weights):
        assert got[f] == pytest.approx(wt, abs=1e-15)


def test_custom_arrangement_refuses_a_row_listed_twice(tmp_path):
    # a chamber listed twice would be a fifth state of boolean(2); a face
    # listed twice, two indices for one face in the weights
    chambers, universe = cw.build_boolean(2).chambers, boolean_universe(2)
    with pytest.raises(ValueError, match=re.escape("chamber ++ is listed twice")):
        cw.build_custom(2, chambers + chambers[:1], universe)
    with pytest.raises(ValueError, match=re.escape("face 0- is listed twice")):
        cw.build_custom(2, chambers, universe + [(0, -1)])
    path = tmp_path / "twice.arr"
    path.write_text("m=1\n[chambers]\n+\n-\n[faces]\n0\n+\n-\n+\n[weights]\n1 0.5\n2 0.5\n")
    with pytest.raises(ValueError, match=re.escape("face + is listed twice")):
        cw.load_arrangement_file(path)


@pytest.mark.parametrize("index", [-1, 3])
def test_arrangement_file_refuses_a_face_index_outside_the_list(tmp_path, index):
    # three faces are listed, so a weight line may name faces 0..2 only; -1
    # would otherwise weigh the last face, and 3 end in a bare IndexError
    path = tmp_path / "line.arr"
    path.write_text(f"m=1\n[chambers]\n+\n-\n[faces]\n0\n+\n-\n[weights]\n1 0.5\n{index} 0.5\n")
    line = re.escape(f"face index {index} outside 0..2 in weight line '{index} 0.5'")
    with pytest.raises(ValueError, match=line):
        cw.load_arrangement_file(path)


def test_boolean_faces_all_zero_identity():
    e = (ZERO,) * 3
    for f in boolean_universe(3):
        assert cw.face_product(e, f) == f
        assert cw.face_product(f, e) == f


def test_builtin_arrangements_list_no_faces(tmp_path, monkeypatch):
    # the built-in families carry chambers only; nothing enumerates their faces
    from chamberwalk.core import write_arrangement_file

    for arr, w in (
        (cw.build_braid(4), cw.riffle_faces(4, 2)),
        (cw.build_boolean(3), cw.hypercube_nn_faces([1 / 6] * 3, [1 / 6] * 3)),
    ):
        assert arr.faces is None
        with pytest.raises(cw.CapacityError):
            write_arrangement_file(tmp_path / "x.arr", arr, w)

    def boom(items):
        raise AssertionError("face universe enumerated")

    monkeypatch.setattr("chamberwalk.core.ordered_set_partitions", boom)
    for argv in (
        ["mc", "--family", "riffle", "--params", "n=5", "--t-grid", "1..8", "--trials", "50"],
        ["cutoff", "--family", "riffle", "--params", "n=5", "--trials", "50"],
        ["exact", "--family", "riffle", "--params", "n=4", "--t-grid", "1..3"],
    ):
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
