"""Set-up probe: build a workload's Problem and CandidateSet in a fresh process.

``python3 qxbench/setup_probe.py SPEC.json`` imports ``qxtalk`` and does
everything the search needs before its first evaluation: make or load the
four matrices, binarize and encode them, and extract the candidates.  It
uses only names in ``qxtalk.__all__``, so a refactor of ``cli.py`` does not
break it.  It prints the candidate pairs as JSON, which the benchmark
compares with the run's report.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import qxtalk as qx

# Cell groups of the synthetic tissue that make up each input matrix.
SYNTH_GROUPS = {
    "mono_ct1": ("interacting-sender", "lone-sender"),
    "mono_ct2": ("interacting-receiver", "lone-receiver"),
    "co_ct1": ("interacting-sender",),
    "co_ct2": ("interacting-receiver",),
}


def synthetic_matrices(spec: dict) -> dict:
    tissue, _, _ = qx.benchmark_preset(seed=0)
    sims = {"mono": qx.simulate(tissue, interaction_enabled=False),
            "co": qx.simulate(tissue, interaction_enabled=True)}
    out = {}
    for key, groups in SYNTH_GROUPS.items():
        sim = sims[key.split("_")[0]]
        mask = np.array([label in groups for label in sim.cell_labels])
        out[key] = qx.ExpressionMatrix(values=sim.observed[:, mask].T, gene_names=sim.gene_names)
    return out


def encode(matrix, selection):
    keep = matrix.values.sum(axis=1) > 0
    matrix = qx.ExpressionMatrix(values=matrix.values[keep], gene_names=matrix.gene_names)
    return qx.binarize(qx.log_normalize(matrix), selection)


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["synthetic"]:
        matrices = synthetic_matrices(spec)
    else:
        matrices = {key: qx.load_matrix(path) for key, path in spec["matrices"].items()}
    sel = {
        "ct1": qx.GeneSelection(cell_type_label="CT1", genes=spec["ct1_genes"]),
        "ct2": qx.GeneSelection(cell_type_label="CT2", genes=spec["ct2_genes"]),
    }
    hist = {key: encode(m, sel[key.split("_")[1]]) for key, m in matrices.items()}
    layout = qx.RegisterLayout(n_ct1=len(spec["ct1_genes"]), n_ct2=len(spec["ct2_genes"]))

    def state(condition):
        parts = [qx.from_amplitudes(qx.amplitudes(hist[f"{condition}_{ct}"])) for ct in ("ct1", "ct2")]
        return qx.tensor(parts[0], parts[1], layout)

    mono, co = state("mono"), state("co")
    qx.Problem(
        initial_state=mono,
        layout=layout,
        target_ct1=qx.target_distribution(hist["co_ct1"]),
        target_ct2=qx.target_distribution(hist["co_ct2"]),
    )
    cands = qx.extract_candidates(qx.delta_rho(mono, co), layout, threshold=spec["threshold"])
    print(json.dumps([list(p) for p in cands.pairs]))


if __name__ == "__main__":
    main(sys.argv[1])
