"""Seeded inputs of the benchmark, and the set-up builds that reuse them.

Standard library only, so that a set-up probe can import this module
before it starts its clock on ``import chamberwalk``.
"""

import math
import random

HEAVY_TO_LIGHT = 3  # a heavy card is picked three times as often as a light one


class TwoClassWeights:
    """Card weights with two values: ``heavy`` cards get ``3/D``, the rest
    ``1/D``, with ``D = 3 * heavy + (n - heavy)``.

    The seed draws only which cards are heavy.  The law of the stopping time
    ``T`` (and so the Monte Carlo work per trial) does not depend on that
    choice, while the chamber walk and its separation distance do.
    """

    def __init__(self, n, heavy, seed, salt):
        rng = random.Random(f"{seed}:{salt}")
        self.n = n
        self.heavy_cards = frozenset(rng.sample(range(n), heavy))
        self.denominator = HEAVY_TO_LIGHT * heavy + (n - heavy)
        self.tokens = [
            f"{HEAVY_TO_LIGHT if c in self.heavy_cards else 1}/{self.denominator}"
            for c in range(n)
        ]
        # the same float arithmetic as the CLI's fraction parser
        self.values = [float(num) / float(den) for num, den in
                       (tok.split("/") for tok in self.tokens)]

    @property
    def n_heavy(self):
        return len(self.heavy_cards)

    @property
    def w_heavy(self):
        return float(HEAVY_TO_LIGHT) / float(self.denominator)

    @property
    def w_light(self):
        return 1.0 / float(self.denominator)

    def param(self):
        """The CLI's ``weights=`` token."""
        return "weights=" + ",".join(self.tokens)


def t_range(n):
    """Grid end ``3 n ln n`` used by the survival-grid workload."""
    return int(3 * n * math.log(n))


def survival_grid_inputs(seed):
    return {
        "top_bottom": TwoClassWeights(6, 2, seed, "survival-top-bottom-6"),
        "tsetlin16": TwoClassWeights(16, 8, seed, "survival-tsetlin-16"),
    }


def build_survival_instances(cw, inputs):
    """The one-time builds that the survival-grid calls reuse."""
    braid6 = cw.build_braid(6)
    boolean16 = cw.build_boolean(16)
    return {
        "braid6": braid6,
        "riffle2": cw.riffle_faces(6, 2),
        "riffle3": cw.riffle_faces(6, 3),
        "top_bottom": cw.top_bottom_faces(6, inputs["top_bottom"].values),
        "boolean16": boolean16,
        "nonlocal16": cw.hypercube_nonlocal_faces(16, 2),
        "tsetlin16": cw.TsetlinSpec(inputs["tsetlin16"].values),
    }


def setup(workload, seed, after_import=None):
    """Import chamberwalk and make the workload's reused builds.

    ``after_import`` runs between the two, so that a traced run can wrap the
    package before it builds.  Returns the package, its CLI module and the
    prebuilt instances (empty for the CLI workloads, whose commands build
    everything per call).
    """
    import chamberwalk
    import chamberwalk.cli

    if after_import is not None:
        after_import()
    instances = {}
    if workload == "survival-grid":
        instances = build_survival_instances(chamberwalk, survival_grid_inputs(seed))
    return chamberwalk, chamberwalk.cli, instances
