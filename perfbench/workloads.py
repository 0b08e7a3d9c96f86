"""The benchmark's workloads: fixed covlearn CLI configs.

Each run executes a fixed plan of CLI invocations, one process at a time.
The plan size follows from the run length and the nominal cost of one
invocation, measured on a 2-core x86 host with one BLAS thread, so the work
done in a run is fixed by (workload, seconds) and every count repeats
exactly.  The seed only chooses the CLI seeds, which drive sampling, noise
and datasets.

The learn workloads use fixed targets (targets.json).  Per-trial cost
depends on the target far more than on the sampling: a proper trial takes
0.3 s on one random target and 12 s on another, so random targets per seed
would swamp any change in the code.  Invocation i uses target i of the pool,
cycling: the first six targets of acceptance test 4,
random_coverage(16, 50, 8, 30000 + i), and the first eight of acceptance
test 5, random_coverage(8, 5, 4, 50000 + i).  A single target is no steadier:
the LP time of one target is bimodal over samples, so the median trial time
of a one-target run jumps between the modes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TARGETS_FILE = "targets.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verb: str  # "learn" or "release"
    trials: int  # trials per CLI invocation
    invocation_s: float  # nominal wall seconds of one invocation
    config: dict  # CLI config without seed, trials and target
    pool: str | None  # key of the target pool in targets.json
    trial_marker: str  # lookup site whose every call starts a trial
    expect: tuple[str, ...]  # lookup sites a traced run must hit
    table_n: int  # the dense table of the workload has 2^table_n cells
    smoke: dict = field(default_factory=dict)  # overrides for --smoke

    def plan(self, seed: int, seconds: float, smoke: bool) -> list[dict]:
        """The run's invocations, each with its CLI seed."""
        count = 1 if smoke else max(1, round(seconds / self.invocation_s))
        rng = random.Random(f"{self.name}/{seed}")
        return [{"index": i, "cli_seed": rng.randrange(2**31)} for i in range(count)]

    def cli_config(self, cli_seed: int, target_path: str | None, smoke: bool) -> dict:
        cfg = {**self.config, **(self.smoke if smoke else {})}
        cfg["trials"] = self.trials
        cfg["seed"] = cli_seed
        if target_path is not None:
            cfg["target"] = {"path": target_path}
        return cfg

    def pool_key(self, smoke: bool) -> str | None:
        if self.pool is None:
            return None
        return f"{self.pool}-smoke" if smoke else self.pool

    def expected_files(self) -> list[str]:
        stem = "hypothesis" if self.verb == "learn" else "summary"
        return [f"{stem}_{t:03d}.json" for t in range(self.trials)]


LEARN_SITES = (
    "cli.coverage_from_json",
    "cli.dense_table",
    "cli.dump_json",
    "learners.lattice_search",
    "learners.spectrum_from_counts",
    "estimation.walsh_hadamard",
    "learners.UniformTableOracle.draw_counts",
    "learners.UniformTableOracle.draw",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="learn-pmac",
            why="PMAC at n=16 on fixed targets: boosted PAC runs; lattice "
            "search, WHT and count drawing on a 512 KB table, no LP",
            verb="learn",
            trials=3,
            invocation_s=6.5,
            config={
                "learner": "pmac",
                "n": 16,
                "params": {"gamma": 0.5, "delta": 0.2},
            },
            pool="learn-pmac",
            trial_marker="cli.coverage_from_json",
            expect=LEARN_SITES
            + (
                "cli.pmac_learn",
                "cli.sample_masks",
                "learners.pac_learn_uniform",
                "learners.pac_core",
                "learners.walsh_hadamard",
                "learners.PmacHypothesis.eval_masks",
                "learners.SparsePolynomial.eval_masks",
            ),
            table_n=16,
            smoke={"n": 10},
        ),
        Workload(
            name="learn-proper",
            why="proper learner at n=8 on fixed targets: simplex-constrained LP "
            "on a noiseless table design with at most 256 distinct rows",
            verb="learn",
            trials=3,
            invocation_s=5.0,
            config={
                "learner": "proper",
                "n": 8,
                "params": {"epsilon": 0.3, "size_bound": 5},
            },
            pool="learn-proper",
            trial_marker="cli.coverage_from_json",
            expect=LEARN_SITES
            + (
                "cli.proper_pac_learn",
                "cli.l1_distance_mc",
                "coverage.sample_masks",
                "learners.proper_pac_core",
                "learners.eval_disjunction_batch",
                "learners.solve_l1",
            ),
            table_n=8,
            smoke={"n": 5},
        ),
        Workload(
            name="release-kway",
            why="private 2-way release at n=5: sequential Laplace queries, then "
            "an unconstrained LP whose rows carry their own noisy labels",
            verb="release",
            trials=1,
            invocation_s=7.5,
            config={
                "release": "k-way",
                "k": 2,
                "alpha_bar": 0.5,
                "epsilon": 1.0,
                "delta": 0.1,
                "dataset": {"n": 5, "gate_factor": 2},
            },
            pool=None,
            trial_marker="cli.release_k_way",
            expect=(
                "cli.all_conjunction_answers",
                "cli.release_k_way",
                "cli.sample_masks",
                "cli.dump_json",
                "privacy.agnostic_learn",
                "privacy.PrivateOracle.query",
                "privacy.and_query",
                "cube.sample_masks",
                "learners.eval_parity_batch",
                "learners.solve_l1",
            ),
            table_n=5,
            smoke={"alpha_bar": 0.9, "dataset": {"n": 3, "gate_factor": 2}},
        ),
    )
}
