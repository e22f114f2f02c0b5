"""Mechanistic synthetic tissue with a known cell-cell signaling cascade.

The tissue has one configuration, the benchmark's, and takes only its
seed; every other value is a module constant.  Four spatial groups
(interacting sender/receiver clusters plus far-away lone controls of each
type) express a 100-gene panel.  Latent log expression starts at a noisy
baseline; sender ligand g50 is shifted up, receivers integrate neighbor
ligand through a Gaussian spatial kernel into receptor g60, an
intracellular cascade g60 -> g70 -> {g71, g72, g80} propagates in one
pass over its arcs, and ligand g80 feeds back across the kernel into
sender receptor g90.  An autonomous module g73 -> {g74, g75} activates
everywhere regardless of geometry.  Counts are negative binomial (mean
exp(x), dispersion phi) thinned by Bernoulli dropout, which at a dropout
of 0.4 lands near 90% overall sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import GeneSelection

GROUP_INTERACTING_SENDER = "interacting-sender"
GROUP_INTERACTING_RECEIVER = "interacting-receiver"
GROUP_LONE_SENDER = "lone-sender"
GROUP_LONE_RECEIVER = "lone-receiver"

EDGE_INTERCELLULAR = "intercellular"
EDGE_INTRACELLULAR = "intracellular"
EDGE_AUTONOMOUS = "autonomous"

GENE_NAMES = tuple(f"g{i}" for i in range(100))
# (label, cells, center): receivers sit next to the senders, lone controls far off on either side.
GROUPS = (
    (GROUP_INTERACTING_SENDER, 60, (0.0, 0.0)),
    (GROUP_INTERACTING_RECEIVER, 60, (0.5, 0.0)),
    (GROUP_LONE_SENDER, 40, (12.0, 0.0)),
    (GROUP_LONE_RECEIVER, 40, (-12.0, 0.0)),
)
SENDER_GROUPS = (GROUP_INTERACTING_SENDER, GROUP_LONE_SENDER)
POSITION_JITTER = 0.1
KERNEL_SIGMA = 1.0
SIGNAL_STRENGTH = 1.0
BASELINE_MEAN = -2.0
BASELINE_NOISE = 0.3
ACTIVATION_THRESHOLD = -1.0
LIGAND_SHIFT = 3.0
NB_DISPERSION = 2.0
DROPOUT_RATE = 0.4
LIGAND_GENE, RECEPTOR_GENE = "g50", "g60"
FEEDBACK_LIGAND_GENE, FEEDBACK_RECEPTOR_GENE = "g80", "g90"
AUTONOMOUS_GENE = "g73"

# Within-cell arcs (regulator, target); each regulator's arcs follow its own update.
_CASCADE_EDGES = [("g60", "g70"), ("g70", "g71"), ("g70", "g72"), ("g70", "g80")]
_AUTONOMOUS_EDGES = [("g73", "g74"), ("g73", "g75")]
_INDEX = {name: i for i, name in enumerate(GENE_NAMES)}


@dataclass(eq=False, repr=False)
class TissueConfig:
    """The benchmark tissue is fixed; only its random draws follow the seed."""

    seed: int = 0


@dataclass(eq=False, repr=False)
class TissueOutput:
    """Latent and observed genes x cells matrices plus per-cell metadata."""

    latent: np.ndarray
    observed: np.ndarray
    cell_labels: list[str]
    positions: np.ndarray
    gene_names: list[str]


@dataclass(frozen=True, repr=False)
class GroundTruthEdge:
    """A planted gene-to-gene edge of the synthetic tissue and its kind."""

    source: str
    target: str
    kind: str


def kernel_matrix(positions: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian proximity weights W_ij = exp(-|P_i - P_j|^2 / (2 sigma^2)), zero diagonal."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("positions must be an (n_cells, 2) array")
    deltas = pos[:, None, :] - pos[None, :, :]
    sq = np.sum(deltas**2, axis=-1)
    w = np.exp(-sq / (2.0 * sigma**2))
    np.fill_diagonal(w, 0.0)
    return w


def measure(
    latent: np.ndarray, dispersion: float = NB_DISPERSION, dropout_rate: float = DROPOUT_RATE, seed: int = 0
) -> np.ndarray:
    """Observed counts: NB(mean=exp(x), dispersion phi) thinned by Bernoulli(1 - dropout)."""
    if dispersion <= 0:
        raise ValueError("dispersion must be positive")
    if not 0.0 <= dropout_rate <= 1.0:
        raise ValueError("dropout_rate must lie in [0, 1]")
    latent = np.asarray(latent, dtype=np.float64)
    rng = np.random.default_rng(seed)
    mean = np.exp(latent)
    p = dispersion / (dispersion + mean)
    counts = rng.negative_binomial(dispersion, p)
    kept = rng.random(latent.shape) < (1.0 - dropout_rate)
    return (counts * kept).astype(np.int64)


def _signal(x: np.ndarray, w: np.ndarray, ligand: str, receptor: str, source: np.ndarray, target: np.ndarray) -> None:
    """Target cells' receptor rises by log1p of the kernel-weighted ligand of the source cells."""
    incoming = w[np.ix_(target, source)] @ np.exp(x[_INDEX[ligand], source])
    x[_INDEX[receptor], target] += np.log1p(SIGNAL_STRENGTH * incoming)


def simulate(cfg: TissueConfig, interaction_enabled: bool = True) -> TissueOutput:
    """Run the generative cascade; disabling interaction skips both kernel arcs.

    Steps run in a fixed order: layout jitter and baseline draws, ligand +
    autonomous activation, receptor integration (if enabled), one GRN pass
    over the arcs, retrograde feedback (if enabled), then NB + dropout
    measurement.  Identical seeds give identical tissues.
    """
    rng = np.random.default_rng(cfg.seed)
    labels = [label for label, count, _ in GROUPS for _ in range(count)]
    centers = np.array([center for _, count, center in GROUPS for _ in range(count)], dtype=np.float64)
    positions = centers + rng.normal(0.0, POSITION_JITTER, size=centers.shape)
    x = rng.normal(BASELINE_MEAN, BASELINE_NOISE, size=(len(GENE_NAMES), len(labels)))

    senders = np.array([label in SENDER_GROUPS for label in labels])
    sender_idx, receiver_idx = np.flatnonzero(senders), np.flatnonzero(~senders)

    x[_INDEX[LIGAND_GENE], sender_idx] += LIGAND_SHIFT
    x[_INDEX[AUTONOMOUS_GENE], :] += LIGAND_SHIFT

    if interaction_enabled:
        w = kernel_matrix(positions, KERNEL_SIGMA)
        _signal(x, w, LIGAND_GENE, RECEPTOR_GENE, sender_idx, receiver_idx)

    for regulator, target in _CASCADE_EDGES + _AUTONOMOUS_EDGES:
        r = x[_INDEX[regulator]]
        x[_INDEX[target]] += (r - BASELINE_MEAN) * (r > ACTIVATION_THRESHOLD)

    if interaction_enabled:
        _signal(x, w, FEEDBACK_LIGAND_GENE, FEEDBACK_RECEPTOR_GENE, receiver_idx, sender_idx)

    observed = measure(x, NB_DISPERSION, DROPOUT_RATE, seed=cfg.seed + 1)
    return TissueOutput(latent=x, observed=observed, cell_labels=labels, positions=positions, gene_names=list(GENE_NAMES))


def benchmark_preset(
    five_gene_ct2: bool = False, seed: int = 0
) -> tuple[TissueConfig, tuple[GeneSelection, GeneSelection], list[GroundTruthEdge]]:
    """Benchmark configuration: panels for both cell types and the true edge list,
    read from the generator's role genes and GRN arcs.

    The CT2 panel defaults to the four-gene readout {g60, g70, g71, g80};
    ``five_gene_ct2`` adds the g72 branch for the five-gene variant.
    """
    ct1 = GeneSelection(cell_type_label="CT1", genes=["g50", "g90"])
    ct2_genes = ["g60", "g70", "g71", "g72", "g80"] if five_gene_ct2 else ["g60", "g70", "g71", "g80"]
    ct2 = GeneSelection(cell_type_label="CT2", genes=ct2_genes)
    truth = [
        GroundTruthEdge(LIGAND_GENE, RECEPTOR_GENE, EDGE_INTERCELLULAR),
        *(GroundTruthEdge(source, target, EDGE_INTRACELLULAR) for source, target in _CASCADE_EDGES),
        GroundTruthEdge(FEEDBACK_LIGAND_GENE, FEEDBACK_RECEPTOR_GENE, EDGE_INTERCELLULAR),
        *(GroundTruthEdge(source, target, EDGE_AUTONOMOUS) for source, target in _AUTONOMOUS_EDGES),
    ]
    return TissueConfig(seed=seed), (ct1, ct2), truth
