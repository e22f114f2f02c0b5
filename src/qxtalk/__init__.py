"""Quantum-circuit models of cell-cell communication.

qxtalk encodes binarized single-cell expression states of two interacting
cell types into a pair of qubit registers, then searches for a sparse
controlled-rotation circuit that rotates the separately-cultured state
onto the co-cultured state.  The learned gates are read out as a directed
gene-gene interaction network with per-edge contribution scores.

Subpackages are organized by pipeline stage: :mod:`qxtalk.ingest` (matrix
loading and amplitude encoding), :mod:`qxtalk.qsim` (statevector
simulation), :mod:`qxtalk.cost` (divergence objective), :mod:`qxtalk.prune`
(candidate pair extraction), :mod:`qxtalk.search` (topology search,
including a QUBO formulation), :mod:`qxtalk.tune` (angle optimization and
ablation), :mod:`qxtalk.synth` (mechanistic benchmark tissue), and
:mod:`qxtalk.cli` (command line).

Importing qxtalk first loads numpy with a one-thread OpenBLAS pool, unless
numpy is already loaded or the caller sets ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``.  No BLAS call of qxtalk gains
from a second thread, and starting one slows a short process's first 100 ms.
"""

import os
import sys

if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    # OpenBLAS reads its thread count only while loading; later processes see the caller's environment.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys

from .cost import CostReport, Problem, evaluate, kl_divergence
from .ingest import (
    AmplitudeVector,
    ExpressionMatrix,
    GeneSelection,
    StateHistogram,
    TargetDistribution,
    amplitudes,
    binarize,
    load_matrix,
    log_normalize,
    target_distribution,
)
from .prune import CandidateSet, delta_rho, extract_candidates
from .qsim import (
    GateSpec,
    RegisterLayout,
    StateVector,
    Topology,
    apply_gate,
    from_amplitudes,
    marginal_probabilities,
    run_circuit,
    tensor,
)
from .search import (
    QuboProblem,
    SearchConfig,
    SearchResult,
    build_qubo,
    local_search,
    multi_epoch,
    qubo_search,
    solve_qubo_exact,
    solve_qubo_heuristic,
)
from .synth import TissueConfig, TissueOutput, benchmark_preset, simulate
from .tune import (
    AngleVector,
    ContributionTable,
    NetworkEdge,
    contribution_analysis,
    export_network,
    optimize_angles,
    percent_of_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeVector",
    "AngleVector",
    "CandidateSet",
    "ContributionTable",
    "CostReport",
    "ExpressionMatrix",
    "GateSpec",
    "GeneSelection",
    "NetworkEdge",
    "Problem",
    "QuboProblem",
    "RegisterLayout",
    "SearchConfig",
    "SearchResult",
    "StateHistogram",
    "StateVector",
    "TargetDistribution",
    "TissueConfig",
    "TissueOutput",
    "Topology",
    "amplitudes",
    "apply_gate",
    "benchmark_preset",
    "binarize",
    "build_qubo",
    "contribution_analysis",
    "delta_rho",
    "evaluate",
    "export_network",
    "extract_candidates",
    "from_amplitudes",
    "kl_divergence",
    "load_matrix",
    "local_search",
    "log_normalize",
    "marginal_probabilities",
    "multi_epoch",
    "optimize_angles",
    "percent_of_baseline",
    "qubo_search",
    "run_circuit",
    "simulate",
    "solve_qubo_exact",
    "solve_qubo_heuristic",
    "target_distribution",
    "tensor",
    "__version__",
]
