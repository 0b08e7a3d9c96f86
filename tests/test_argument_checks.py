"""Argument checks that the rest of the suite never reaches: each call must
raise its documented error, with its own message, before doing any work."""

import math

import numpy as np
import pytest

from covlearn.coverage import (
    CoverageFunction,
    average_project,
    dense_table,
    l1_distance_mc,
)
from covlearn.cube import (
    DimensionMismatch,
    DistributionSpec,
    IndexSet,
    child_rng,
)
from covlearn.learners import (
    DisjointDnf,
    UniformTableOracle,
    agnostic_learn,
    dnf_reduction_learn,
    proper_agnostic_learn,
    proper_pac_learn,
    random_disjoint_dnf,
)
from covlearn.privacy import (
    Dataset,
    PrivateOracle,
    all_conjunction_answers,
    release_k_way,
    release_synthetic,
)
from covlearn.regression import MAX_COLUMNS, L1Problem
from covlearn.serialize import hypothesis_to_json, pmac_from_json


def _table(n=3):
    return UniformTableOracle(n, tuple(range(n)), np.zeros(1 << n))


def _dataset(n=3):
    return Dataset.from_points([0b011, 0b101], n)


def _empty(n=3):
    return Dataset(n, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))


def _oracle(q=5, tau=0.1, delta=0.1):
    return PrivateOracle(_dataset(), q, tau, math.inf, delta, child_rng(0, 0))


_UNIFORM3 = DistributionSpec.uniform(3)

CASES = [
    # coverage
    ("coverage-n", lambda: CoverageFunction(0, 0.0, {}), ValueError, "dimension"),
    (
        "dense-table-n",
        lambda: dense_table(CoverageFunction.zero(25)),
        ValueError,
        "n <= 24",
    ),
    (
        "average-project-n",
        lambda: average_project(CoverageFunction.zero(3), IndexSet(1, 4)),
        DimensionMismatch,
        "index set on n=4",
    ),
    (
        "l1-distance-samples",
        lambda: l1_distance_mc(np.zeros_like, _UNIFORM3, 0, 0),
        ValueError,
        "samples",
    ),
    # cube
    ("index-set-n", lambda: IndexSet(0, 0), ValueError, "dimension"),
    ("index-set-mask-high", lambda: IndexSet(0b1000, 3), ValueError, "outside"),
    ("index-set-mask-negative", lambda: IndexSet(-1, 3), ValueError, "outside"),
    ("distribution-n", lambda: DistributionSpec(0), ValueError, "dimension"),
    (
        "distribution-n-cap",
        lambda: DistributionSpec.uniform(65),
        ValueError,
        "dimension 65 is over the cap of 64",
    ),
    (  # n is checked before k, and before the n + 1 weights are built
        "layer-n-cap",
        lambda: DistributionSpec.layer(10**30, 10**31),
        ValueError,
        "over the cap of 64",
    ),
    ("layer-n", lambda: DistributionSpec.layer(0, 5), ValueError, "dimension"),
    (
        "product-biases",
        lambda: DistributionSpec(3, biases=(0.5,)),
        ValueError,
        "n biases",
    ),
    (
        "symmetric-weights",
        lambda: DistributionSpec(3, layer_weights=(1.0,)),
        ValueError,
        "n\\+1 layer weights",
    ),
    (
        "symmetric-biases",
        lambda: DistributionSpec(1, biases=(0.5,), layer_weights=(0.5, 0.5)),
        ValueError,
        "no biases",
    ),
    # learners
    (
        "table-length",
        lambda: UniformTableOracle(3, (0, 1, 2), np.zeros(7)),
        ValueError,
        "table length",
    ),
    ("restrict-index-high", lambda: _table().restrict(3, 1), ValueError, "index"),
    ("restrict-index-negative", lambda: _table().restrict(-1, 1), ValueError, "index"),
    ("proper-eps", lambda: proper_pac_learn(_table(), 1.5, 3, 0), ValueError, "eps"),
    (
        "agnostic-eps",
        lambda: agnostic_learn(None, _UNIFORM3, 1.5, 0),
        ValueError,
        "eps",
    ),
    (
        "proper-agnostic-eps",
        lambda: proper_agnostic_learn(None, _UNIFORM3, 1.5, 0.5, 0),
        ValueError,
        "eps",
    ),
    (
        "proper-agnostic-non-product",
        lambda: proper_agnostic_learn(None, DistributionSpec.layer(3, 1), 0.5, 0.5, 0),
        ValueError,
        "product distribution",
    ),
    (
        "dnf-term-outside-n",
        lambda: DisjointDnf(3, ((0b1000, 0),)),
        ValueError,
        "outside",
    ),
    ("random-dnf-s", lambda: random_disjoint_dnf(3, 0, 0), ValueError, "s must"),
    (
        "random-dnf-too-many",
        lambda: random_disjoint_dnf(2, 8, 0),
        ValueError,
        "too many",
    ),
    (
        "dnf-reduction-s",
        lambda: dnf_reduction_learn(None, 0, 0.1, None),
        ValueError,
        "s must",
    ),
    # privacy
    (
        "dataset-n",
        lambda: Dataset(0, np.zeros(0, np.uint64), np.zeros(0, np.int64)),
        ValueError,
        "dimension",
    ),
    (
        "dataset-lengths",
        lambda: Dataset(3, np.zeros(1, np.uint64), np.ones(2, np.int64)),
        ValueError,
        "equal length",
    ),
    (
        "iid-uniform-n",
        lambda: Dataset.iid_uniform(25, 1, child_rng(0, 0)),
        ValueError,
        "n <= 24",
    ),
    (
        "conjunctions-n",
        lambda: all_conjunction_answers(_empty(25)),
        ValueError,
        "n <= 24",
    ),
    (
        "conjunctions-empty",
        lambda: all_conjunction_answers(_empty()),
        ValueError,
        "empty dataset",
    ),
    ("oracle-q", lambda: _oracle(q=0), ValueError, "q >= 1"),
    ("oracle-tau", lambda: _oracle(tau=0.0), ValueError, "tau > 0"),
    ("oracle-delta", lambda: _oracle(delta=1.0), ValueError, "delta"),
    (
        "k-way-alpha-bar",
        lambda: release_k_way(_dataset(), 1, 1.5, 1.0, 0.1, 0),
        ValueError,
        "alpha_bar",
    ),
    (
        "synthetic-alpha-bar",
        lambda: release_synthetic(_dataset(), 0.0, 1.0, 0.1, 0),
        ValueError,
        "alpha_bar",
    ),
    # regression
    (
        "lp-columns",
        lambda: L1Problem(np.zeros((1, MAX_COLUMNS + 1)), np.zeros(1)),
        ValueError,
        "feature columns",
    ),
    # serialize
    (
        "unknown-tree-node",
        lambda: pmac_from_json({"n": 3, "root": {"type": "forest"}}),
        ValueError,
        "tree node",
    ),
    ("unserializable", lambda: hypothesis_to_json(object()), TypeError, "object"),
]


@pytest.mark.parametrize(
    "call,error,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_noiseless_audit_draws_zeros():
    # at epsilon = inf the query noise has scale 0
    assert _oracle().noise(3).tolist() == [0.0, 0.0, 0.0]
