"""Seeded generator of the four expression matrices of the files10-qaoa workload.

Writes ``mono_ct1.csv``, ``mono_ct2.csv``, ``co_ct1.csv`` and ``co_ct2.csv``:
one cell per row, gene names in the header, as ``qxtalk.ingest.load_matrix``
reads them.  Each file holds ``N_CELLS`` cells by ``N_GENES`` genes.  Five
panel genes per cell type follow a planted model: independent in the
mono-cultures, and in the co-cultures a receptor that goes up with a short
cascade behind it in CT2 and a feedback receptor that goes up in CT1.  Every other gene is
sparse background.  Counts are single digits (0-9), so a matrix is written
straight from a byte array.

The panel activity states of each matrix are an exact multiset, the model's
expected cell count per state, so every seed gives the same histograms and so
the same candidates, search and KL values.  The seed decides which cell gets
which state, the count of each active gene and all the background; the
program has the same amount of text to parse and the same work for every
seed.

The generator uses numpy only and nothing from ``qxtalk``, so a change to the
program cannot change this workload's inputs.  The same seed writes
byte-identical files.

Run ``python3 qxbench/gen_files.py OUTDIR --seed N`` to write the files.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

N_CELLS = 1000
N_GENES = 1500
CT1_PANEL = ("LIG1", "LIG2", "FBR1", "CT1A", "CT1B")
CT2_PANEL = ("REC1", "TGT1", "TGT2", "TGT3", "CT2A")
MATRIX_KEYS = ("mono_ct1", "mono_ct2", "co_ct1", "co_ct2")
BACKGROUND_RATE = 0.08

# Activity model of the five panel genes of each matrix: per gene, either
# (p,) for an independent gene or (parent, p_if_parent_active, p_otherwise).
_PANEL_MODEL = {
    "mono_ct1": ((0.70,), (0.20,), (0.10,), (0.15,), (0.10,)),
    "mono_ct2": ((0.10,), (0.10,), (0.10,), (0.15,), (0.20,)),
    # The ligand is expressed alike in both cultures; the feedback receptor goes up.
    "co_ct1": ((0.70,), (0.20,), (0.60,), (0.15,), (0.10,)),
    # The receptor goes up with the partner, then REC1 -> TGT1 -> TGT2.
    "co_ct2": ((0.70,), (0, 0.80, 0.10), (1, 0.70, 0.10), (0.15,), (0.20,)),
}


def gene_names() -> list[str]:
    """Header of every matrix: background genes with the ten panel genes spread among them."""
    names = [f"bg{i:04d}" for i in range(N_GENES - len(CT1_PANEL) - len(CT2_PANEL))]
    for k, gene in enumerate(CT1_PANEL + CT2_PANEL):
        names.insert(97 * (k + 1), gene)
    return names


def state_probabilities(key: str) -> np.ndarray:
    """Probability of each of the 32 panel activity states (gene k is bit k)."""
    model = _PANEL_MODEL[key]
    bits = (np.arange(1 << len(model))[:, None] >> np.arange(len(model))) & 1
    probs = np.ones(len(bits))
    for k, spec in enumerate(model):
        p = spec[0] if len(spec) == 1 else np.where(bits[:, spec[0]], spec[1], spec[2])
        probs *= np.where(bits[:, k], p, 1.0 - p)
    return probs


def state_counts(key: str) -> np.ndarray:
    """Cells per panel state: the model's expectation, rounded by largest remainder."""
    expected = state_probabilities(key) * N_CELLS
    counts = np.floor(expected).astype(np.int64)
    short = N_CELLS - int(counts.sum())
    counts[np.argsort(-(expected - counts), kind="stable")[:short]] += 1
    return counts


def _counts(active: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Single-digit counts: 1..9 where active, 0 elsewhere."""
    return np.where(active, 1 + rng.binomial(8, 0.3, size=active.shape), 0).astype(np.uint8)


def make_matrix(key: str, seed: int) -> np.ndarray:
    """(N_CELLS, N_GENES) uint8 count matrix of one condition and cell type."""
    rng = np.random.default_rng([seed, MATRIX_KEYS.index(key)])
    names = gene_names()
    counts = _counts(rng.random((N_CELLS, N_GENES)) < BACKGROUND_RATE, rng)
    # One sure background count per cell, so no cell has a zero total and is dropped.
    background = [i for i, name in enumerate(names) if name.startswith("bg")]
    counts[np.arange(N_CELLS), rng.choice(background, N_CELLS)] = 1
    panel = CT1_PANEL if key.endswith("ct1") else CT2_PANEL
    states = np.repeat(np.arange(1 << len(panel)), state_counts(key))
    rng.shuffle(states)
    active = ((states[:, None] >> np.arange(len(panel))) & 1).astype(bool)
    for k, gene in enumerate(panel):
        counts[:, names.index(gene)] = _counts(active[:, k], rng)
    return counts


def write_matrix(path: Path, counts: np.ndarray, names: list[str]) -> None:
    """Comma-separated text, one cell per row, without going through Python floats."""
    rows, cols = counts.shape
    body = np.empty((rows, 2 * cols), dtype=np.uint8)
    body[:, 0::2] = counts + ord("0")
    body[:, 1::2] = ord(",")
    body[:, -1] = ord("\n")
    with path.open("wb") as fh:
        fh.write((",".join(names) + "\n").encode("ascii"))
        fh.write(body.tobytes())


def generate(outdir: Path, seed: int) -> dict[str, Path]:
    """Write the four matrices for ``seed`` into ``outdir``; returns their paths by key."""
    outdir.mkdir(parents=True, exist_ok=True)
    names = gene_names()
    paths = {}
    for key in MATRIX_KEYS:
        paths[key] = outdir / f"{key}.csv"
        write_matrix(paths[key], make_matrix(key, seed), names)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for path in generate(args.outdir, args.seed).values():
        print(path, path.stat().st_size)


if __name__ == "__main__":
    main()
