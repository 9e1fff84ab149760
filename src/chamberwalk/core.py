"""Combinatorial representation of central hyperplane arrangements.

A face is a sign vector over {+1, -1, 0} with one coordinate per hyperplane;
chambers are the faces with no zero coordinate.  Faces form a semigroup under
the coordinatewise "first nonzero wins" product, and the chamber walk moves
from C to F*C for a face F drawn from a weight measure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

PLUS = 1
MINUS = -1
ZERO = 0

_SIGN_TO_CHAR = {PLUS: "+", MINUS: "-", ZERO: "0"}

# Default caps on built-in chambers and on face products checked for closure.
DEFAULT_FACE_LIMIT = 1_000_000
DEFAULT_CLOSURE_PRODUCT_LIMIT = 1_000_000
_PRODUCT_CELLS = 2**18  # sign entries of the face products validate_closure takes at once
_GUIDE_CELLS = 2**14  # least cells of a _guide table
_GUIDE_CELL_CAP = 2**20  # most cells of a _guide table
_GUIDE_BLOCK = 2**16  # keys that a _guide search reads at once


class DimensionError(ValueError):
    """Sign vectors of different lengths were combined."""


class CapacityError(RuntimeError):
    """An exact enumeration would exceed the configured size limit."""


def format_sign_vector(f):
    return "".join(_SIGN_TO_CHAR[x] for x in f)


def is_chamber(f):
    """A face is a chamber iff no coordinate is zero."""
    return all(x != ZERO for x in f)


def _bits(x):
    """Rows of signs as packed bits, one per hyperplane: set where x > 0, in one flat pass."""
    *lead, m = x.shape
    padded = np.zeros((*lead, -(-m // 8) * 8), dtype=bool)
    np.greater(x, 0, out=padded[..., :m])
    return np.packbits(padded).reshape(*lead, -(-m // 8))


def _keys(bits):
    """Rows of packed bits as scalars in the rows' byte order: rows of at most
    8 bytes, zero-padded, as big-endian uint64 (read into native order, which
    sorts faster), longer ones as raw bytes."""
    if (pad := 8 - bits.shape[-1]) >= 0:
        bits = np.concatenate([bits, np.zeros((*bits.shape[:-1], pad), np.uint8)], axis=-1)
        return bits.view(">u8")[..., 0].astype(np.uint64)
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


def _guide(sorted_, keys=0):
    """search(v, side) = np.searchsorted(sorted_, v, side) for sorted_ and v in [0, 1], by a
    guide table (Chen-Asau) of K cells, K the power of 2 in (2 n, 4 n] put in
    [_GUIDE_CELLS, _GUIDE_CELL_CAP], n the larger of len(sorted_) and keys, the number of
    keys a search will read: a key in a cell [j, j + 1) / K with no point reads
    #{sorted_ < j / K}; the rest, at most len(sorted_) / K of uniform keys, are searched.
    v is read _GUIDE_BLOCK keys at a time and not written."""
    K = min(max(_GUIDE_CELLS, 2 << max(len(sorted_), keys).bit_length()), _GUIDE_CELL_CAP)
    cells = (sorted_ * K).astype(np.intp)  # exact, as K is a power of 2
    count = np.arange(len(cells) + 1, dtype=np.min_scalar_type(-len(cells) - 1))
    table = np.repeat(count, np.diff(cells, prepend=-1, append=K))
    table[cells] = -1  # the cells that hold a point, 1 among them if it is one

    def search(v, side="left"):
        out = np.empty(len(v), dtype=np.intp)
        for i in range(0, len(v), _GUIDE_BLOCK):
            x, r = v[i:i + _GUIDE_BLOCK], out[i:i + _GUIDE_BLOCK]
            np.multiply(x, K, out=r, casting="unsafe")  # the cell of each key
            r[:] = table[r]
            if (miss := np.flatnonzero(r < 0)).size:
                r[miss] = np.searchsorted(sorted_, x[miss], side)
        return out

    return search


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement given combinatorially: ``signs`` has one int8
    row per chamber.

    ``faces`` is None for the built-in families and lists the face universe
    only for custom arrangements: the chambers and the weighted faces are
    all that the walk and the exact analysis ever touch.  ``symmetries``
    lists candidates (src, sign), x -> sign * x[src], each src a permutation
    of range(m) and each sign m signs +-1, for distance_profiles to check.
    """

    m: int
    signs: np.ndarray
    faces: tuple | None
    family_tag: str
    symmetries: tuple = ()

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int8)
        object.__setattr__(self, "signs", signs.reshape(len(signs), self.m))
        for src, sign in (map(np.asarray, g) for g in self.symmetries):
            if src.dtype.kind not in "iu" or not np.array_equal(np.sort(src), np.arange(self.m)):
                raise ValueError(f"symmetry src {src.tolist()} does not permute range({self.m})")
            if sign.shape != (self.m,) or not np.all(np.abs(sign) == 1):
                raise ValueError(f"symmetry sign {sign.tolist()} is not {self.m} signs +-1")

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


def _check_weights(weights, what):
    """weights as floats; ValueError unless each is > 0 and they sum to 1
    within 1e-12.  A NaN fails both comparisons."""
    w = np.asarray(weights, dtype=float)
    if not np.all(w > 0):
        raise ValueError(f"all {what} must be strictly positive")
    if not abs(w.sum() - 1.0) <= 1e-12:
        raise ValueError(f"{what} sum to {float(w.sum())!r}, expected 1 within 1e-12")
    return w


@dataclass(frozen=True)
class WeightedFaceSet:
    """A probability measure on faces, ``signs`` an int8 row per face; only
    positive weights are listed, and at least one, so the number of
    hyperplanes m is that of the faces."""

    signs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w, signs = np.asarray(self.weights, dtype=float), np.asarray(self.signs, dtype=np.int8)
        object.__setattr__(self, "signs", signs)
        if len(signs) != len(w):
            raise ValueError("faces and weights length mismatch")
        if not len(w):
            raise ValueError("no weighted faces")
        object.__setattr__(self, "weights", _check_weights(w, "weights"))
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
    flips = tuple(zip(itertools.repeat(np.arange(n)), 1 - 2 * np.eye(n, dtype=int)))
    return Arrangement(m=n, signs=signs, faces=None, family_tag=f"boolean({n})", symmetries=flips)


def braid_m(n):
    return n * (n - 1) // 2


def braid_signs(pos):
    """Sign vectors of ordered set partitions of n cards, one per row of pos,
    a signed integer array where pos[..., x] is the position of card x's
    block: as int8, the coordinate of pair (i, j), i < j, in lexicographic
    order, is the sign of pos[j] - pos[i]: + when i's block comes first."""
    i, j = np.triu_indices(pos.shape[-1], 1)
    return np.sign(pos[..., j] - pos[..., i]).astype(np.int8)


def build_braid(n, face_limit=DEFAULT_FACE_LIMIT):
    """Braid arrangement on n cards: hyperplanes x_i = x_j, chambers are the
    n! orderings (at most ``face_limit``); the faces, ordered set partitions
    of {0, .., n-1}, are not listed."""
    if n < 2:
        raise ValueError("braid arrangement needs n >= 2")
    if math.factorial(n) > face_limit:
        raise CapacityError(f"{n}! chambers exceeds limit {face_limit}")
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))), np.int8)
    pos = np.argsort(perms.reshape(-1, n), axis=1).astype(np.int8)  # each card's place
    i, j = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))  # the hyperplane of cards i and j
    # row k of swap: the cards 0..n-1 under the transposition of cards i[k] and j[k]
    swap = np.arange(n) + np.subtract(*np.eye(n, dtype=int)[[i, j]]) * (j - i)[:, np.newaxis]
    return Arrangement(m=braid_m(n), signs=braid_signs(pos), faces=None, family_tag=f"braid({n})",
                       symmetries=tuple(zip(pair[swap[:, i], swap[:, j]], braid_signs(swap))))


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
