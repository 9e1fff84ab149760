"""Combinatorial representation of central hyperplane arrangements.

A face is a sign vector over {+1, -1, 0} with one coordinate per hyperplane;
chambers are the faces with no zero coordinate.  Faces form a semigroup under
the coordinatewise "first nonzero wins" product, and the chamber walk moves
from C to F*C for a face F drawn from a weight measure.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

PLUS = 1
MINUS = -1
ZERO = 0

_CHAR_TO_SIGN = {"+": PLUS, "-": MINUS, "0": ZERO}
_SIGN_TO_CHAR = {PLUS: "+", MINUS: "-", ZERO: "0"}

# Default caps on built-in chambers and on face products checked for closure.
DEFAULT_FACE_LIMIT = 1_000_000
DEFAULT_CLOSURE_PRODUCT_LIMIT = 1_000_000
_PRODUCT_CELLS = 2**18  # sign entries of the face products validate_closure takes at once


class DimensionError(ValueError):
    """Sign vectors of different lengths were combined."""


class CapacityError(RuntimeError):
    """An exact enumeration would exceed the configured size limit."""


def parse_sign_vector(s):
    """Parse a string like '+-0' into a sign tuple."""
    try:
        return tuple(_CHAR_TO_SIGN[ch] for ch in s.strip())
    except KeyError as exc:
        raise ValueError(f"invalid sign character in {s!r}") from exc


def format_sign_vector(f):
    return "".join(_SIGN_TO_CHAR[x] for x in f)


def face_product(f, g):
    """Semigroup product: coordinate i is f[i] unless it is zero, then g[i].

    Associative, idempotent (FF = F) and satisfies the deletion property
    FGF = FG.
    """
    if len(f) != len(g):
        raise DimensionError(f"length mismatch: {len(f)} vs {len(g)}")
    return tuple(a if a != ZERO else b for a, b in zip(f, g))


def is_chamber(f):
    """A face is a chamber iff no coordinate is zero."""
    return all(x != ZERO for x in f)


def _bits(x):
    """Rows of signs as packed bits, one per hyperplane: set where x > 0."""
    return np.packbits(x > 0, axis=-1)


def _keys(bits):
    """Rows of packed bits as raw-byte scalars; with no hyperplanes all are equal."""
    if not bits.shape[-1]:
        return np.zeros(bits.shape[:-1], dtype="V1")
    bits = np.ascontiguousarray(bits)
    return bits.view(np.dtype((np.void, bits.shape[-1])))[..., 0]


def _sign_keys(signs):
    """Rows of signs as raw-byte scalars, equal where the rows are: _bits of
    the signs, then of their negatives."""
    return _keys(np.concatenate([_bits(signs), _bits(-signs)], axis=-1))


def _lookup(keys):
    """The table of _search: the keys sorted, stably, and the order that sorts them."""
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _search(table, keys):
    """The index of the first row of a _lookup table with each key, or -1 where none has it."""
    known, order = table
    if not len(known):
        return np.full(np.shape(keys), -1)
    pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    return np.where(known[pos] == keys, order[pos], -1)


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement given combinatorially: ``signs`` has one int8
    row per chamber.

    ``faces`` is None for the built-in families and lists the face universe
    only for custom arrangements: the chambers and the weighted faces are
    all that the walk and the exact analysis ever touch.
    """

    m: int
    signs: np.ndarray
    faces: tuple | None
    family_tag: str

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int8)
        object.__setattr__(self, "signs", signs.reshape(len(signs), self.m))

    @property
    def n_chambers(self):
        return len(self.signs)

    @functools.cached_property
    def chambers(self):
        """The chambers as tuples of Python ints, in the order of signs."""
        return tuple(map(tuple, self.signs.tolist()))

    @functools.cached_property
    def _table(self):
        return _lookup(_keys(_bits(self.signs)))

    def _find(self, bits):
        """The index among the chambers of each chamber given as _bits, or -1
        where it is none of them."""
        return _search(self._table, _keys(bits))

    def chamber_index(self, c):
        """The index of chamber c; KeyError if c is not one of the chambers."""
        i = self._find(_bits(np.array(c))) if len(c) == self.m else -1
        if i < 0 or not is_chamber(c):
            raise KeyError(c)
        return int(i)


@dataclass(frozen=True)
class WeightedFaceSet:
    """A probability measure on faces, ``signs`` an int8 row per face; only
    positive weights are listed, and at least one, so the number of
    hyperplanes m is that of the faces."""

    signs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w, signs = np.asarray(self.weights, dtype=float), np.asarray(self.signs, dtype=np.int8)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "signs", signs)
        if len(signs) != len(w):
            raise ValueError("faces and weights length mismatch")
        if not len(w):
            raise ValueError("no weighted faces")
        if np.any(w <= 0):
            raise ValueError("all listed weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        if signs.ndim != 2:
            raise DimensionError("faces have inconsistent lengths")

    @property
    def m(self):
        return self.signs.shape[1]

    @functools.cached_property
    def faces(self):
        """The faces as tuples of Python ints, in the order of signs."""
        return tuple(map(tuple, self.signs.tolist()))


def weighted_faces(signs, weights):
    """A WeightedFaceSet of the rows of signs: a row listed again is merged
    into its first place, its weights summed in list order."""
    w = WeightedFaceSet(signs, weights)  # the rows and weights checked before the merge
    first = _search(_lookup(keys := _sign_keys(w.signs)), keys)
    kept = first == np.arange(len(first))
    return WeightedFaceSet(w.signs[kept], np.bincount((np.cumsum(kept) - 1)[first], w.weights))


def build_boolean(n, face_limit=DEFAULT_FACE_LIMIT):
    """Arrangement of the n coordinate hyperplanes: chambers are the 2^n
    orthants (at most ``face_limit``); the faces {+,-,0}^n are not listed."""
    if n < 1:
        raise ValueError("boolean arrangement needs n >= 1")
    if 2**n > face_limit:
        raise CapacityError(f"2^{n} chambers exceeds limit {face_limit}")
    signs = 1 - 2 * np.indices((2,) * n, dtype=np.int8).reshape(n, -1).T  # product((1, -1))
    return Arrangement(m=n, signs=signs, faces=None, family_tag=f"boolean({n})")


def braid_m(n):
    return n * (n - 1) // 2


def braid_pair_index(n):
    """Hyperplane ordering for the braid arrangement: pairs (i, j) with
    i < j over cards 0..n-1, in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {p: k for k, p in enumerate(pairs)}


def partition_to_sign_vector(blocks, n):
    """Sign vector of an ordered set partition of {0, .., n-1}.

    Convention: the coordinate of pair (i, j), i < j, is + when i's block
    comes before j's block (reading blocks left to right), - when after,
    0 when they share a block.  Blocks earlier in the list sit lower in the
    coordinate order (x_i < x_j <=> +).
    """
    pos = {}
    for b_idx, block in enumerate(blocks):
        for x in block:
            if x in pos:
                raise ValueError(f"element {x} appears in two blocks")
            pos[x] = b_idx
    if sorted(pos) != list(range(n)):
        raise ValueError("blocks do not partition range(n)")
    coords = []
    for i in range(n):
        for j in range(i + 1, n):
            if pos[i] < pos[j]:
                coords.append(PLUS)
            elif pos[i] > pos[j]:
                coords.append(MINUS)
            else:
                coords.append(ZERO)
    return tuple(coords)


def braid_signs(pos):
    """Sign vectors of ordered set partitions of n cards, one per row of pos,
    a signed integer array where pos[..., x] is the position of card x's
    block: as int8, the coordinate of pair (i, j), i < j, in braid_pair_index
    order, is the sign of pos[j] - pos[i], as partition_to_sign_vector sets it."""
    i, j = np.triu_indices(pos.shape[-1], 1)
    return np.sign(pos[..., j] - pos[..., i]).astype(np.int8)


def ordered_set_partitions(items):
    """Yield all ordered partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    n = len(items)
    # choose the first block as any nonempty subset, recurse on the rest
    for r in range(1, n + 1):
        for block in itertools.combinations(items, r):
            rest = [x for x in items if x not in set(block)]
            for tail in ordered_set_partitions(rest):
                yield [set(block)] + tail


def fubini_number(n):
    """Number of ordered set partitions of an n-set."""
    # a(n) = sum_k C(n,k) a(n-k), a(0)=1
    import math

    a = [1] + [0] * n
    for i in range(1, n + 1):
        a[i] = sum(math.comb(i, k) * a[i - k] for k in range(1, i + 1))
    return a[n]


def build_braid(n, face_limit=DEFAULT_FACE_LIMIT):
    """Braid arrangement on n cards: hyperplanes x_i = x_j, chambers are the
    n! orderings (at most ``face_limit``); the faces, ordered set partitions
    of {0, .., n-1}, are not listed."""
    import math

    if n < 2:
        raise ValueError("braid arrangement needs n >= 2")
    if math.factorial(n) > face_limit:
        raise CapacityError(f"{n}! chambers exceeds limit {face_limit}")
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))), np.int8)
    pos = np.argsort(perms.reshape(-1, n), axis=1).astype(np.int8)  # each card's place
    return Arrangement(m=braid_m(n), signs=braid_signs(pos), faces=None, family_tag=f"braid({n})")


def symmetry_generators(arr):
    """Candidate symmetries (src, sign), acting by x -> sign * x[src]: each
    card transposition for braid(n), each sign flip for boolean(n), none for
    other arrangements.  Callers check them."""
    tag = re.fullmatch(r"(braid|boolean)\((\d+)\)", arr.family_tag)
    n = int(tag[2]) if tag else 0
    if tag and tag[1] == "boolean" and arr.m == n:
        return [(np.arange(n), np.where(np.arange(n) == i, -1, 1)) for i in range(n)]
    if not tag or tag[1] != "braid" or arr.m != braid_m(n):
        return []
    idx, gens = braid_pair_index(n), []
    for a, b in idx:
        swap = {a: b, b: a}
        pre = [(swap.get(i, i), swap.get(j, j)) for i, j in idx]  # cards sent to i, j
        gens.append((np.array([idx[min(p), max(p)] for p in pre]),
                     np.array([1 if i < j else -1 for i, j in pre])))
    return gens


def permutation_to_chamber(perm):
    """Chamber of a deck order (perm[0] on top / smallest coordinate)."""
    n = len(perm)
    return partition_to_sign_vector([{x} for x in perm], n)


def chamber_to_permutation(c, n):
    """Inverse of permutation_to_chamber."""
    idx = braid_pair_index(n)
    # count how many elements precede each card
    before = [0] * n
    for (i, j), k in idx.items():
        if c[k] == PLUS:
            before[j] += 1
        elif c[k] == MINUS:
            before[i] += 1
        else:
            raise ValueError("not a braid chamber (zero coordinate)")
    perm = [None] * n
    for card, b in enumerate(before):
        perm[b] = card
    return tuple(perm)


def violated_hyperplanes(w):
    """Hyperplanes not separated by the measure: indices i such that every
    positively weighted face has a zero coordinate at i."""
    return np.flatnonzero(~w.signs.any(axis=0)).tolist()


def check_separating(w):
    """True iff every hyperplane has a positively weighted face not on it.

    Separation is exactly the condition for a unique
    stationary distribution and for T to be almost surely finite.
    """
    return not violated_hyperplanes(w)


def validate_closure(faces):
    """The first pair of faces whose product is not listed, or None if the
    list is closed: over every pair in itertools.product order when there are
    at most DEFAULT_CLOSURE_PRODUCT_LIMIT, else over that many drawn by
    default_rng(0).  Each block of products is taken on int8 rows."""
    k = len(faces)
    signs = np.asarray(faces, dtype=np.int8).reshape(k, -1 if k else 0)
    table = _lookup(_sign_keys(signs))
    if k * k <= DEFAULT_CLOSURE_PRODUCT_LIMIT:
        pairs = np.indices((k, k)).reshape(2, -1).T
    else:
        pairs = np.random.default_rng(0).integers(0, k, size=(DEFAULT_CLOSURE_PRODUCT_LIMIT, 2))
    step = max(1, _PRODUCT_CELLS // max(signs.shape[-1], 1))
    for block in np.split(pairs, range(step, len(pairs), step)):
        f, g = signs[block[:, 0]], signs[block[:, 1]]
        if (bad := np.flatnonzero(_search(table, _sign_keys(np.where(f != 0, f, g))) < 0)).size:
            i, j = block[bad[0]]
            return faces[i], faces[j]
    return None


def build_custom(m, chambers, faces):
    """User-supplied arrangement from sign-vector lists, each row listed once
    and the faces closed under the product."""
    if any(len(x) != m for x in (*chambers, *faces)):
        raise DimensionError("a chamber or face length != m")
    chambers, faces = (np.array(x, dtype=np.int8).reshape(len(x), m) for x in (chambers, faces))
    if len(zero := np.flatnonzero(~chambers.all(axis=1))):
        raise ValueError(f"{format_sign_vector(chambers[zero[0]])} listed as chamber has a zero")
    for what, x in (("chamber", chambers), ("face", faces)):  # table ends as the faces'
        known, order = table = _lookup(_sign_keys(x))
        if (again := order[1:][known[1:] == known[:-1]]).size:
            raise ValueError(f"{what} {format_sign_vector(x[again.min()])} is listed twice")
    if np.any(_search(table, _sign_keys(chambers)) < 0):
        raise ValueError("chambers must be listed among the faces")
    if (bad := validate_closure(faces)) is not None:
        raise ValueError(
            "faces not closed under product: "
            f"{format_sign_vector(bad[0])} * {format_sign_vector(bad[1])}"
        )
    return Arrangement(m=m, signs=chambers, faces=tuple(map(tuple, faces.tolist())),
                       family_tag="custom")


def load_arrangement_file(path):
    """Load a custom arrangement + weights from the text format.

    Format: header line ``m=<int>``, then sections ``[chambers]``, ``[faces]``
    (one sign vector per line over ``+ - 0``) and ``[weights]`` (lines of
    ``<face index> <decimal weight>``).  Returns (Arrangement, WeightedFaceSet).
    """
    chambers, faces, weight_lines = [], [], []
    section = None
    m = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("m="):
                m = int(line[2:])
                continue
            if line.startswith("["):
                section = line.strip("[]").lower()
                continue
            if section == "chambers":
                chambers.append(parse_sign_vector(line))
            elif section == "faces":
                faces.append(parse_sign_vector(line))
            elif section == "weights":
                idx_s, w_s = line.split()
                weight_lines.append((line, int(idx_s), float(w_s)))
            else:
                raise ValueError(f"line outside any section: {line!r}")
    if m is None:
        raise ValueError("missing m=<int> header")
    arr = build_custom(m, chambers, faces)
    for line, i, _ in weight_lines:
        if not 0 <= i < len(faces):
            raise ValueError(f"face index {i} outside 0..{len(faces) - 1} in weight line {line!r}")
    signs = np.array(faces, dtype=np.int8).reshape(len(faces), m)
    wfs = weighted_faces(signs[[i for _, i, _ in weight_lines]], [w for *_, w in weight_lines])
    return arr, wfs


def write_arrangement_file(path, arr, w):
    """Inverse of load_arrangement_file, for an arrangement that lists its
    faces (a custom one); raises CapacityError when ``faces`` is None."""
    if arr.faces is None:
        raise CapacityError("cannot serialize an implicit face universe")
    face_idx = {f: i for i, f in enumerate(arr.faces)}
    with open(path, "w") as fh:
        fh.write(f"m={arr.m}\n")
        fh.write("[chambers]\n")
        for c in arr.chambers:
            fh.write(format_sign_vector(c) + "\n")
        fh.write("[faces]\n")
        for f in arr.faces:
            fh.write(format_sign_vector(f) + "\n")
        fh.write("[weights]\n")
        for f, wt in zip(w.faces, w.weights):
            fh.write(f"{face_idx[f]} {float(wt)!r}\n")
