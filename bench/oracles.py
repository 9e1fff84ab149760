"""Exact values the benchmark checks chamberwalk's outputs against.

Every function here is computed apart from the program: nothing imports
chamberwalk, and none of them builds an arrangement, a face set or a
transition matrix of the chamber walk.  Each returns ``{t: value}`` over
the requested times.

The stopping time ``T`` of the walks used here only depends on which
coupons (cards or coordinates) have been touched, so ``P(T > t)`` is the
mass left on the "not done" states of a small lumped chain:

- ``count_chain_survival``: one of ``n`` coupons per step, uniformly;
- ``kset_chain_survival``: a uniform ``k``-subset of ``n`` coupons per step
  (hypergeometric steps);
- ``two_class_chain_survival``: one coupon per step, heavy ones with one
  weight and light ones with another, tracked as (heavy touched, light
  touched);
- ``refinement_chain_survival``: ``k`` random cards to top, tracked as the
  sizes of the blocks of cards never yet separated.

``riffle_survival`` is the closed form for the inverse ``a``-shuffle, and
``move_to_front_separation`` / ``move_to_front_separation_by_paths`` give
the separation distance of the move-to-front chain against its Luce
stationary law.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def riffle_survival(n, a, ts):
    """P(T > t) = 1 - prod_{i<n} (1 - i / a^t) for the inverse a-shuffle.

    ``T`` is the first time the n cards carry distinct a-ary mark
    sequences: a birthday problem with ``a^t`` boxes.  Exact rationals.
    """
    out = {}
    for t in ts:
        boxes = a ** int(t)
        p_done = Fraction(1)
        for i in range(n):
            p_done *= Fraction(max(boxes - i, 0), boxes)
        out[int(t)] = float(1 - p_done)
    return out


def _evolve(dist, step, alive, ts):
    """Mass of ``dist`` on ``alive`` after each t in ``ts`` steps."""
    out, current = {}, 0
    for t in sorted(int(t) for t in ts):
        for _ in range(t - current):
            dist = step(dist)
        current = t
        out[t] = float(dist[alive].sum())
    return out


def count_chain_survival(n, need, ts):
    """P(fewer than ``need`` of ``n`` coupons touched after t uniform picks)."""
    k = np.arange(n + 1)
    p_new = (n - k) / n

    def step(p):
        nxt = p * (1.0 - p_new)
        nxt[1:] += (p * p_new)[:-1]
        return nxt

    start = np.zeros(n + 1)
    start[0] = 1.0
    return _evolve(start, step, k < need, ts)


def kset_chain_survival(n, k, ts):
    """P(some of ``n`` coupons untouched after t uniform ``k``-subsets).

    From ``j`` touched, a step touches ``i`` new coupons with the
    hypergeometric probability ``C(n-j, i) C(j, k-i) / C(n, k)``.
    """
    total = math.comb(n, k)
    jump = np.array(
        [[math.comb(n - j, i) * math.comb(j, k - i) / total for j in range(n + 1)]
         for i in range(k + 1)]
    )

    def step(p):
        nxt = np.zeros_like(p)
        for i in range(k + 1):
            nxt[i:] += (p * jump[i])[: n + 1 - i]
        return nxt

    start = np.zeros(n + 1)
    start[0] = 1.0
    return _evolve(start, step, np.arange(n + 1) < n, ts)


def two_class_chain_survival(n_heavy, w_heavy, n_light, w_light, need, ts):
    """P(fewer than ``need`` coupons touched after t picks) when each of
    ``n_heavy`` coupons is picked with probability ``w_heavy`` and each of
    ``n_light`` with ``w_light`` per step."""
    h = np.arange(n_heavy + 1)[:, None]
    l = np.arange(n_light + 1)[None, :]
    p_heavy = (n_heavy - h) * w_heavy + 0.0 * l
    p_light = (n_light - l) * w_light + 0.0 * h
    p_stay = 1.0 - p_heavy - p_light

    def step(p):
        nxt = p * p_stay
        nxt[1:, :] += (p * p_heavy)[:-1, :]
        nxt[:, 1:] += (p * p_light)[:, :-1]
        return nxt

    start = np.zeros((n_heavy + 1, n_light + 1))
    start[0, 0] = 1.0
    return _evolve(start, step, (h + l) < need, ts)


def luce_mass(deck, weights):
    """Stationary mass of a deck (top card first) under move-to-front:
    the cards are drawn without replacement in proportion to their weights."""
    mass, left = 1.0, 1.0
    for card in deck:
        mass *= weights[card] / left
        left -= weights[card]
    return mass


def move_to_front_separation_by_paths(weights, t):
    """s(t) of move-to-front by enumerating every card sequence of length t
    from every start deck, against the Luce stationary law.

    The deck after a sequence is its cards by last touch, most recent on
    top, followed by the untouched cards in their starting order.
    """
    n = len(weights)
    decks = list(itertools.permutations(range(n)))
    outcomes = {}
    for seq in itertools.product(range(n), repeat=int(t)):
        order = tuple(dict.fromkeys(reversed(seq)))
        outcomes[order] = outcomes.get(order, 0.0) + math.prod(weights[c] for c in seq)
    worst = 0.0
    for start in decks:
        law = {}
        for order, p in outcomes.items():
            touched = set(order)
            deck = order + tuple(c for c in start if c not in touched)
            law[deck] = law.get(deck, 0.0) + p
        worst = max(worst, max(1.0 - law.get(d, 0.0) / luce_mass(d, weights) for d in decks))
    return worst


def move_to_front_separation(weights, ts):
    """s(t) of move-to-front at every t, from the last-touch decomposition.

    Reading the draws backwards, deck ``x`` arises from start ``x0`` exactly
    when the first ``k`` distinct cards met are ``x[0..k)`` in that order,
    no other card is met, and ``x[k..n)`` keep their order in ``x0``.  The
    probability ``Q_k(x)`` of the first part satisfies
    ``f_j(s) = f_j(s-1) W_j + f_{j-1}(s-1) w(x_j)`` with ``W_j`` the weight
    of ``x[0..j)``; ``P^t(x0, x)`` sums ``Q_k(x)`` over the valid ``k``.
    """
    w = np.asarray(weights, dtype=float)
    n = len(w)
    decks = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    pi = np.array([luce_mass(d, w) for d in decks])
    position = np.argsort(decks, axis=1).astype(np.int8)  # position[x0, card]
    # in_order[x0, x, i]: x[i] sits above x[i+1] in x0
    seq = position[:, decks]  # (starts, decks, n)
    in_order = seq[:, :, :-1] < seq[:, :, 1:]
    # valid[k][x0, x]: x[k..n) keeps its order in x0
    valid = [np.ones(in_order.shape[:2], dtype=bool) for _ in range(n + 1)]
    for k in range(n - 2, -1, -1):
        valid[k] = valid[k + 1] & in_order[:, :, k]
    del seq, in_order
    prefix_weight = np.concatenate(
        [np.zeros((len(decks), 1)), np.cumsum(w[decks], axis=1)], axis=1
    )
    f = np.zeros((n + 1, len(decks)))
    f[0] = 1.0
    out, current = {}, 0
    for t in sorted(int(t) for t in ts):
        for _ in range(t - current):
            nxt = f * prefix_weight.T
            nxt[1:] += f[:-1] * w[decks].T
            f = nxt
        current = t
        law = sum(valid[k] * f[k][None, :] for k in range(n + 1))
        out[t] = float((1.0 - (law / pi[None, :]).min(axis=1)).max())
    return out


def refinement_chain_survival(n, k, ts):
    """P(T > t) for k random cards to top, from the chain on block sizes.

    A pick ``{S}{rest}`` separates two cards exactly when one of them is in
    ``S``, so the cards never yet separated form blocks, each pick splits
    every block ``B`` into ``B & S`` and ``B - S``, and ``T`` is the first
    time every block is a single card.  The state is the sorted tuple of
    block sizes; ``S`` meets the blocks multivariate-hypergeometrically.
    """
    total = math.comb(n, k)

    def splits(blocks, left):
        """(new blocks, ways) for every way S can meet ``blocks``."""
        if not blocks:
            if left == 0:
                yield (), 1
            return
        b, rest = blocks[0], blocks[1:]
        for s in range(min(b, left) + 1):
            for tail, ways in splits(rest, left - s):
                parts = tuple(x for x in (s, b - s) if x)
                yield parts + tail, ways * math.comb(b, s)

    states, moves, todo = {}, {}, [(n,)]
    while todo:
        state = todo.pop()
        if state in states:
            continue
        states[state] = len(states)
        moves[state] = {}
        for blocks, ways in splits(state, k):
            nxt = tuple(sorted(blocks))
            moves[state][nxt] = moves[state].get(nxt, 0) + ways / total
            todo.append(nxt)
    index = states
    step_matrix = np.zeros((len(index), len(index)))
    for state, row in moves.items():
        for nxt, p in row.items():
            step_matrix[index[state], index[nxt]] += p
    start = np.zeros(len(index))
    start[index[(n,)]] = 1.0
    alive = np.ones(len(index), dtype=bool)
    alive[index[(1,) * n]] = False
    return _evolve(start, lambda p: p @ step_matrix, alive, ts)
