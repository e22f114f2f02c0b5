"""The two benchmark workloads and the inputs each makes from a seed.

Every workload is a `qxtalk run` config file written by the benchmark.
``synth4-multi-epoch`` runs the built-in synthetic tissue with its default
seed 0 (the README quick start tissue); the benchmark seed permutes the gene
order inside each register panel.  That relabels qubits, so the candidate
order, the shuffle of multi-epoch and every tie-break change, while the
problem, its work and its optimum stay the same; a different tissue seed
would change the candidate count and the work several-fold.  ``files10-qaoa``
reads four CSV matrices that ``gen_files`` writes from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen_files

SYNTH_CT1 = ("g50", "g90")
SYNTH_CT2 = ("g60", "g70", "g71", "g80")


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    ct1_panel: tuple[str, ...]
    ct2_panel: tuple[str, ...]
    synthetic: bool = True
    threshold: float = 0.01
    # Properties every run of this workload must show.
    intercellular_required: bool = True
    qaoa_required: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth4-multi-epoch", "multi-epoch", SYNTH_CT1, SYNTH_CT2),
        # No |delta-rho| lies between 0.124 and 0.152, so 0.138 leaves 6 candidates;
        # above 12 the run would quietly swap QAOA for annealing.
        Workload("files10-qaoa", "qubo-qaoa", gen_files.CT1_PANEL, gen_files.CT2_PANEL,
                 synthetic=False, threshold=0.138, intercellular_required=False, qaoa_required=True),
    )
}


@dataclass
class Inputs:
    """What one run of a workload needs: the config, the panels and where the matrices are."""

    config: Path
    outdir: Path
    ct1_genes: list[str]
    ct2_genes: list[str]
    matrices: dict[str, Path]


def prepare(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's config (and input files) for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    outdir = workdir / "out"
    ct1, ct2 = list(workload.ct1_panel), list(workload.ct2_panel)
    if workload.synthetic:
        rng = np.random.default_rng(seed)
        ct1 = [ct1[i] for i in rng.permutation(len(ct1))]
        ct2 = [ct2[i] for i in rng.permutation(len(ct2))]
        # run --synthetic writes the four matrices it used next to its report.
        matrices = {key: outdir / f"{key}.csv" for key in gen_files.MATRIX_KEYS}
    else:
        matrices = gen_files.generate(workdir / "inputs", seed)
    lines = [
        f"synthetic = {str(workload.synthetic).lower()}",
        f"ct1_genes = {', '.join(ct1)}",
        f"ct2_genes = {', '.join(ct2)}",
        f"strategy = {workload.strategy}",
        "seed = 0",
        f"threshold = {workload.threshold!r}",
        f"out = {outdir}",
    ]
    if not workload.synthetic:
        lines += [f"{key} = {path}" for key, path in matrices.items()]
    config = workdir / "run.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Inputs(config, outdir, ct1, ct2, matrices)
