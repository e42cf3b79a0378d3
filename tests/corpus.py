"""Finite-space test corpus: every space has <= 6 points, so checker
verdicts can be compared against the exhaustive time-grid oracle."""

import fuzzfix as fx
from conftest import line_space

CORPUS_SPACE = line_space((0.0, 0.1, 0.2, 0.4, 0.8))

# (name, space, f, g, phi) with a mix of passing and failing instances,
# identity and permutation bijections, and an equality-tight contraction.
CORPUS = [
    (
        "halving-table",
        CORPUS_SPACE,
        fx.TableMap({"0.0": "0.0", "0.1": "0.0", "0.2": "0.0", "0.4": "0.1", "0.8": "0.2"}),
        fx.identity_for(CORPUS_SPACE),
        fx.InducedPhi(0.5, 0.8),
    ),
    (
        "slow-shift",
        CORPUS_SPACE,
        fx.TableMap({"0.0": "0.0", "0.1": "0.0", "0.2": "0.1", "0.4": "0.2", "0.8": "0.4"}),
        fx.identity_for(CORPUS_SPACE),
        fx.InducedPhi(0.5, 0.8),
    ),
    (
        "constant-under-cycle",
        CORPUS_SPACE,
        fx.ConstantMap("0.2"),
        fx.PermutationBijection(
            {"0.0": "0.1", "0.1": "0.2", "0.2": "0.4", "0.4": "0.8", "0.8": "0.0"}
        ),
        fx.LinearPhi(0.5),
    ),
    (
        "reversal-expanding",
        CORPUS_SPACE,
        fx.TableMap({"0.0": "0.0", "0.1": "0.8", "0.2": "0.2", "0.4": "0.4", "0.8": "0.8"}),
        fx.PermutationBijection(
            {"0.0": "0.8", "0.1": "0.4", "0.2": "0.2", "0.4": "0.1", "0.8": "0.0"}
        ),
        fx.InducedPhi(0.5, 0.8),
    ),
]
