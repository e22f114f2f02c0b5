"""Shared fixtures: searches on the default 4-gene synthetic benchmark panel."""

import pytest

from qxtalk.cli import (
    RunConfig,
    build_problem,
    encode_inputs,
    extract_candidate_pairs,
    gene_panels,
    panel_reads,
    run_strategy,
    synthetic_matrices,
)

# The exact and variational QUBO solvers run at this threshold: 7 candidates, under both caps.
SMALL_THRESHOLD = 0.07


class Panel:
    """The 4-gene CT2 synthetic panel at seed 0, as ``qxtalk run --synthetic`` builds it."""

    def __init__(self):
        cfg = RunConfig(synthetic=True)
        panels = gene_panels(cfg)
        self.encoded = encode_inputs(panel_reads(synthetic_matrices(cfg)[0], panels), *panels)
        self.problem = build_problem(self.encoded, cfg)
        self._results = {}

    def candidates(self, threshold: float = RunConfig.threshold):
        return extract_candidate_pairs(self.encoded, RunConfig(synthetic=True, threshold=threshold))

    def search(self, strategy: str):
        """The search result of ``strategy``, computed once: at the default threshold
        (30 candidates), or at ``SMALL_THRESHOLD`` for the exact and variational solvers."""
        if strategy not in self._results:
            small = strategy in ("qubo-exact", "qubo-vqe", "qubo-qaoa")
            cands = self.candidates(SMALL_THRESHOLD) if small else self.candidates()
            self._results[strategy] = run_strategy(self.problem, cands, RunConfig(synthetic=True, strategy=strategy))
        return self._results[strategy]


@pytest.fixture(scope="session")
def synth4():
    return Panel()
