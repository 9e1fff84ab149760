import ast
import inspect
import itertools
import pathlib
import re

import numpy as np
import pytest

import chamberwalk as cw
from chamberwalk import core, exact, gallery, glauber, walk
from chamberwalk.cli import main
from chamberwalk.core import ZERO, validate_closure

import reference
from reference import card_transpositions, chamber_to_permutation, coordinate_flips, face_product
from reference import ordered_set_partitions, parse_sign_vector
from reference import partition_to_sign_vector, permutation_to_chamber


def braid_universe(n):
    """Every face of the braid arrangement, one per ordered set partition."""
    return [partition_to_sign_vector(b, n) for b in ordered_set_partitions(range(n))]


def boolean_universe(n):
    """Every face of the Boolean arrangement: {+,-,0}^n."""
    return list(itertools.product((1, -1, 0), repeat=n))


def test_face_product_example():
    f = parse_sign_vector("+0-")
    g = parse_sign_vector("--+")
    assert face_product(f, g) == parse_sign_vector("+--")


def test_face_product_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        face_product((1, 0), (1, 0, -1))
    with pytest.raises(cw.DimensionError):  # the engine's sign lists refuse the same
        cw.build_custom(2, [(1, 1)], [(1, 1), (1, 0, -1)])


def test_is_chamber():
    assert cw.is_chamber(parse_sign_vector("+++"))
    assert not cw.is_chamber(parse_sign_vector("0+-"))
    assert not cw.is_chamber((0, 0, 0))


@pytest.mark.parametrize("builder,n", [("boolean", 5), ("braid", 4)])
def test_semigroup_laws_random(builder, n):
    faces = boolean_universe(n) if builder == "boolean" else braid_universe(n)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(faces), size=(10_000, 3))
    for i, j, k in idx:
        f, g, h = faces[i], faces[j], faces[k]
        assert face_product(face_product(f, g), h) == face_product(
            f, face_product(g, h)
        )
        assert face_product(f, f) == f
        assert face_product(face_product(f, g), f) == face_product(f, g)


def test_chamber_absorption():
    arr = cw.build_braid(3)
    for f in braid_universe(3):
        for c in arr.chambers:
            assert cw.is_chamber(face_product(f, c))


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
    # the chambers are the faces with no zero among the ordered set partitions,
    # whose count is the Fubini number
    for n, m, nch, nfaces in [(2, 1, 2, 3), (3, 3, 6, 13), (4, 6, 24, 75)]:
        arr = cw.build_braid(n)
        faces = braid_universe(n)
        assert arr.m == m
        assert arr.n_chambers == nch
        assert len(faces) == len(set(faces)) == nfaces
        assert set(arr.chambers) == {f for f in faces if cw.is_chamber(f)}
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
    return next(((f, g) for f, g in pairs if face_product(f, g) not in listed), None)


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
    assert partition_to_sign_vector([{0}, {1, 2}], 3) == parse_sign_vector("++0")
    assert partition_to_sign_vector([{0, 1, 2}], 3) == (0, 0, 0)
    assert partition_to_sign_vector([{1}, {0}, {2}], 3) == parse_sign_vector(
        "-++"
    )
    with pytest.raises(ValueError):
        partition_to_sign_vector([{0}, {0, 1}], 2)
    with pytest.raises(ValueError):
        partition_to_sign_vector([{0}], 2)


def test_linear_orders_are_chambers():
    for perm in itertools.permutations(range(4)):
        c = partition_to_sign_vector([{x} for x in perm], 4)
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
        face = partition_to_sign_vector(blocks, n)
        moved = face_product(face, permutation_to_chamber(perm))
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
    with pytest.raises(ValueError, match="strictly positive"):
        cw.WeightedFaceSet(((1, 1), (0, 1)), np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="sum to inf"):
        cw.WeightedFaceSet(((1, 1), (0, 1)), np.array([np.inf, 1.0]))


def test_custom_arrangement_rejects_unclosed_faces():
    # omit the product (+,+) of (+,0) and (0,+)
    faces = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, -1), (-1, 0), (0, -1), (1, -1)]
    with pytest.raises(ValueError, match="closed"):
        cw.build_custom(2, [(1, 1), (-1, -1), (1, -1)], faces)


def test_custom_arrangement_refuses_a_row_listed_twice():
    # a chamber listed twice would be a fifth state of boolean(2); a face
    # listed twice, two entries for one face of the universe
    chambers, universe = cw.build_boolean(2).chambers, boolean_universe(2)
    with pytest.raises(ValueError, match=re.escape("chamber ++ is listed twice")):
        cw.build_custom(2, chambers + chambers[:1], universe)
    with pytest.raises(ValueError, match=re.escape("face 0- is listed twice")):
        cw.build_custom(2, chambers, universe + [(0, -1)])


def test_boolean_faces_all_zero_identity():
    e = (ZERO,) * 3
    for f in boolean_universe(3):
        assert face_product(e, f) == f
        assert face_product(f, e) == f


def test_builtin_arrangements_list_no_faces(tmp_path):
    # the built-in families carry chambers only, and the commands run on them;
    # a custom arrangement lists its faces and carries no symmetry candidate
    for arr in (cw.build_braid(4), cw.build_boolean(3)):
        assert arr.faces is None
    custom = cw.build_custom(2, cw.build_boolean(2).chambers, boolean_universe(2))
    assert set(custom.faces) == set(boolean_universe(2)) and custom.symmetries == ()
    for argv in (
        ["mc", "--family", "riffle", "--params", "n=5", "--t-grid", "1..8", "--trials", "50"],
        ["cutoff", "--family", "riffle", "--params", "n=5", "--trials", "50"],
        ["exact", "--family", "riffle", "--params", "n=4", "--t-grid", "1..3"],
    ):
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0


def test_builders_carry_the_reference_symmetries():
    # the card transpositions and the coordinate flips, pair for pair and in order
    for arr, want in [*((cw.build_braid(n), card_transpositions(n)) for n in range(2, 9)),
                      *((cw.build_boolean(n), coordinate_flips(n)) for n in range(1, 9))]:
        got = [tuple(np.asarray(x).tolist() for x in pair) for pair in arr.symmetries]
        assert got == want, arr.family_tag


@pytest.mark.parametrize("what, src, sign", [
    ("src", [0, 0, 2], [1, 1, 1]),  # not one-to-one
    ("src", [0, 1, 3], [1, 1, 1]),  # outside range(3)
    ("src", [0, 1], [1, 1, 1]),
    ("src", [0.0, 1.0, 2.0], [1, 1, 1]),  # not an index
    ("sign", [0, 1, 2], [1, -1]),  # of the wrong length
    ("sign", [0, 1, 2], [1, 0, -1]),
    ("sign", [2, 1, 0], [[1, 1, 1]]),
])
def test_arrangement_refuses_a_candidate_that_is_no_signed_permutation(what, src, sign):
    # such a candidate could pass distance_profiles' check and not be one-to-one
    with pytest.raises(ValueError, match=f"symmetry {what}"):
        cw.Arrangement(m=3, signs=cw.build_boolean(3).signs, faces=None, family_tag="boolean(3)",
                       symmetries=(([0, 1, 2], [-1, 1, 1]), (src, sign)))


def test_no_public_function_moves_a_size_limit():
    # each size limit is one module constant, read where it is checked; only
    # the two arrangement builders take theirs, as their callers differ
    seen, limits = set(), set()
    for module in (cw, core, exact, gallery, glauber, walk):
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("chamberwalk"):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # not callable, or an exception class
                continue
            seen.add(name)
            assert not [p for p in params if p.endswith("_cap") or p == "max_enum_faces"], name
            if "face_limit" in params:
                limits.add(name)
    assert {"transition_matrix", "riffle_faces", "sample_T_batch", "survival_terms"} <= seen
    assert limits == {"build_braid", "build_boolean"}


def test_a_cap_set_on_its_module_moves_every_check_of_it(monkeypatch, tmp_path, capsys):
    # the README's cap table: each function listed for a constant reads it on
    # the module that owns it, at the call, so setting it there moves them all
    monkeypatch.setattr(glauber, "DEFAULT_COUPON_CELL_CAP", 1000)
    for call in (lambda: cw.coupon_survival_uniform(64, 100),
                 lambda: cw.sample_kset_coupon_T(64, 2, 100, 0),
                 lambda: cw.tsetlin_survival_profile(cw.TsetlinSpec(np.full(9, 1 / 9)), [100])):
        with pytest.raises(cw.CapacityError, match="exceeds cap 1000"):
            call()
    with monkeypatch.context() as patch, pytest.raises(cw.CapacityError, match="exceeds cap 1000"):
        patch.setattr(exact, "DEFAULT_WALK_CELL_CAP", 1000)  # 5 x 65 band cells a step
        cw.hamming_profiles(64, 2, [100])
    held = reference.held_chains(glauber._CHAINS)  # 3000 trials of 9 cards: 2592 chain cells
    cw.sample_card_collection_T(cw.TsetlinSpec(np.full(9, 1 / 9)), 3000, 0)
    assert reference.held_chains(glauber._CHAINS) == held  # past the cap, the clocks path
    arr, w = cw.build_braid(3), cw.tsetlin_faces(cw.TsetlinSpec(np.full(3, 1 / 3)))
    monkeypatch.setattr(exact, "DEFAULT_CHAMBER_CAP", 5)
    profiles = (cw.distance_profiles, cw.separation_profile, cw.total_variation_profile)
    for call in (cw.transition_matrix, cw.stationary_solve,
                 *(lambda a, x, f=f: f(a, x, [1]) for f in profiles)):
        with pytest.raises(cw.CapacityError, match="exceeds exact-mode cap 5"):
            call(arr, w)
    argv = ["exact", "--family", "tsetlin", "--params", "n=3", "--t-grid", "1..3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2 and "3! chambers exceeds limit 5" in capsys.readouterr().err
    monkeypatch.setattr(exact, "DEFAULT_CHAMBER_CAP", 50_000)  # 8! = 40320 chambers
    argv = ["exact", "--family", "tsetlin", "--params", "n=8", "--t-grid", "1..3"]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0


def test_reference_imports_nothing_from_chamberwalk():
    # the tests' oracles stay independent of the engine they check
    tree = ast.parse(pathlib.Path(reference.__file__).read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n.split(".")[0] == "chamberwalk"]

