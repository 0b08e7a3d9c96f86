"""Learning coverage functions on the Boolean cube and differentially
private release of monotone conjunction counting queries."""

from .coverage import (
    CoverageFunction,
    FourierTable,
    average_project,
    dense_table,
    exact_fourier,
    junta_variables,
    l1_distance_mc,
    random_coverage,
    walsh_hadamard,
)
from .cube import DimensionMismatch, DistributionSpec, IndexSet, Point, child_rng
from .estimation import hoeffding_samples, lattice_search
from .learners import (
    BasisTooLarge,
    DesignTooLarge,
    DisjointDnf,
    DnfClassifier,
    OracleExhausted,
    PmacHypothesis,
    SampledOracle,
    SparsePolynomial,
    UniformTableOracle,
    agnostic_learn,
    dnf_reduction_learn,
    pac_learn_uniform,
    pmac_learn,
    proper_agnostic_learn,
    proper_pac_learn,
    random_disjoint_dnf,
)
from .privacy import (
    BudgetExhausted,
    Dataset,
    GateRefused,
    PrivateOracle,
    ReleaseSummary,
    and_query,
    counting_query,
    coverage_of_dataset,
    gate_size,
    release_all_marginals,
    release_k_way,
    release_synthetic,
)
from .regression import L1Problem, L1Solution, LPNotOptimal, solve_l1

__all__ = [name for name in dir() if not name.startswith("_")]
