"""Mechanistic synthetic tissue with a known cell-cell signaling cascade.

Four spatial groups (interacting sender/receiver clusters plus far-away
lone controls of each type) express a 100-gene panel.  Latent log
expression starts at a noisy baseline; sender ligand g50 is shifted up,
receivers integrate neighbor ligand through a Gaussian spatial kernel
into receptor g60, an intracellular cascade g60 -> g70 -> {g71, g72, g80}
propagates in one topological pass, and ligand g80 feeds back across the
kernel into sender receptor g90.  An autonomous module g73 -> {g74, g75}
activates everywhere regardless of geometry.  Counts are negative
binomial (mean exp(x), dispersion phi) thinned by Bernoulli dropout,
which at the default dropout of 0.4 lands near 90% overall sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ingest import GeneSelection

DEFAULT_GENE_COUNT = 100

GROUP_INTERACTING_SENDER = "interacting-sender"
GROUP_INTERACTING_RECEIVER = "interacting-receiver"
GROUP_LONE_SENDER = "lone-sender"
GROUP_LONE_RECEIVER = "lone-receiver"

EDGE_INTERCELLULAR = "intercellular"
EDGE_INTRACELLULAR = "intracellular"
EDGE_AUTONOMOUS = "autonomous"

_CASCADE_EDGES = [("g60", "g70"), ("g70", "g71"), ("g70", "g72"), ("g70", "g80")]
_AUTONOMOUS_EDGES = [("g73", "g74"), ("g73", "g75")]


@dataclass(eq=False, repr=False)
class TissueConfig:
    """All knobs of the generator; defaults reproduce the benchmark tissue."""

    n_interacting_senders: int = 60
    n_interacting_receivers: int = 60
    n_lone_senders: int = 40
    n_lone_receivers: int = 40
    positions: np.ndarray | None = None
    kernel_sigma: float = 1.0
    cluster_separation: float = 0.5
    lone_distance: float = 12.0
    position_jitter: float = 0.1
    signal_strength: float = 1.0
    baseline_mean: float = -2.0
    baseline_noise: float = 0.3
    gene_names: list[str] = field(default_factory=lambda: [f"g{i}" for i in range(DEFAULT_GENE_COUNT)])
    grn: np.ndarray | None = None
    activation_threshold: float = -1.0
    ligand_shift: float = 3.0
    nb_dispersion: float = 2.0
    dropout_rate: float = 0.4
    seed: int = 0
    ligand_gene: str = "g50"
    receptor_gene: str = "g60"
    feedback_ligand_gene: str = "g80"
    feedback_receptor_gene: str = "g90"
    autonomous_gene: str = "g73"

    def __post_init__(self):
        counts = (
            self.n_interacting_senders,
            self.n_interacting_receivers,
            self.n_lone_senders,
            self.n_lone_receivers,
        )
        if any(c < 0 for c in counts) or sum(counts) == 0:
            raise ValueError("cell-group sizes must be non-negative and total > 0")
        if self.kernel_sigma <= 0:
            raise ValueError("kernel_sigma must be positive")
        if self.nb_dispersion <= 0:
            raise ValueError("nb_dispersion must be positive")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must lie in [0, 1]")
        if len(set(self.gene_names)) != len(self.gene_names):
            raise ValueError("gene names must be unique")
        for role in (
            self.ligand_gene,
            self.receptor_gene,
            self.feedback_ligand_gene,
            self.feedback_receptor_gene,
            self.autonomous_gene,
        ):
            if role not in self.gene_names:
                raise ValueError(f"role gene {role!r} missing from gene_names")

    @property
    def n_cells(self) -> int:
        return (
            self.n_interacting_senders
            + self.n_interacting_receivers
            + self.n_lone_senders
            + self.n_lone_receivers
        )


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


def default_grn(gene_names: list[str]) -> np.ndarray:
    """Benchmark cascade adjacency A[target, regulator] with unit weights."""
    index = {name: i for i, name in enumerate(gene_names)}
    adj = np.zeros((len(gene_names), len(gene_names)), dtype=np.float64)
    for regulator, target in _CASCADE_EDGES + _AUTONOMOUS_EDGES:
        if regulator in index and target in index:
            adj[index[target], index[regulator]] = 1.0
    return adj


def _topological_order(adj: np.ndarray) -> list[int]:
    n = adj.shape[0]
    indegree = (adj != 0).sum(axis=1)
    ready = [g for g in range(n) if indegree[g] == 0]
    order: list[int] = []
    while ready:
        g = ready.pop(0)
        order.append(g)
        for child in np.flatnonzero(adj[:, g]):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(int(child))
    if len(order) != n:
        raise ValueError("GRN adjacency contains a cycle")
    return order


def _layout(cfg: TissueConfig, rng: np.random.Generator) -> tuple[list[str], np.ndarray]:
    groups = [
        (GROUP_INTERACTING_SENDER, cfg.n_interacting_senders, (0.0, 0.0)),
        (GROUP_INTERACTING_RECEIVER, cfg.n_interacting_receivers, (cfg.cluster_separation, 0.0)),
        (GROUP_LONE_SENDER, cfg.n_lone_senders, (cfg.lone_distance, 0.0)),
        (GROUP_LONE_RECEIVER, cfg.n_lone_receivers, (-cfg.lone_distance, 0.0)),
    ]
    labels: list[str] = []
    centers = []
    for name, count, center in groups:
        labels.extend([name] * count)
        centers.extend([center] * count)
    centers_arr = np.array(centers, dtype=np.float64)
    if cfg.positions is not None:
        pos = np.asarray(cfg.positions, dtype=np.float64)
        if pos.shape != (len(labels), 2):
            raise ValueError(
                f"explicit positions must have shape ({len(labels)}, 2), got {pos.shape}"
            )
        return labels, pos
    jitter = rng.normal(0.0, cfg.position_jitter, size=centers_arr.shape)
    return labels, centers_arr + jitter


def measure(latent: np.ndarray, dispersion: float = 2.0, dropout_rate: float = 0.4, seed: int = 0) -> np.ndarray:
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


def simulate(cfg: TissueConfig, interaction_enabled: bool = True) -> TissueOutput:
    """Run the generative cascade; disabling interaction skips both kernel arcs.

    Steps run in a fixed order: baseline draw, ligand + autonomous
    activation, receptor integration (if enabled), one topological GRN
    pass, retrograde feedback (if enabled), then NB + dropout measurement.
    Identical seeds give identical tissues.
    """
    rng = np.random.default_rng(cfg.seed)
    labels, positions = _layout(cfg, rng)
    n_genes = len(cfg.gene_names)
    index = {name: i for i, name in enumerate(cfg.gene_names)}
    x = rng.normal(cfg.baseline_mean, cfg.baseline_noise, size=(n_genes, cfg.n_cells))

    senders = np.array([lab in (GROUP_INTERACTING_SENDER, GROUP_LONE_SENDER) for lab in labels])
    receivers = ~senders
    sender_idx = np.flatnonzero(senders)
    receiver_idx = np.flatnonzero(receivers)

    x[index[cfg.ligand_gene], sender_idx] += cfg.ligand_shift
    x[index[cfg.autonomous_gene], :] += cfg.ligand_shift

    w = kernel_matrix(positions, cfg.kernel_sigma) if interaction_enabled else None
    if interaction_enabled and sender_idx.size and receiver_idx.size:
        incoming = w[np.ix_(receiver_idx, sender_idx)] @ np.exp(x[index[cfg.ligand_gene], sender_idx])
        x[index[cfg.receptor_gene], receiver_idx] += np.log1p(cfg.signal_strength * incoming)

    adj = cfg.grn if cfg.grn is not None else default_grn(cfg.gene_names)
    adj = np.asarray(adj, dtype=np.float64)
    if adj.shape != (n_genes, n_genes):
        raise ValueError(f"GRN adjacency must be {n_genes}x{n_genes}, got {adj.shape}")
    for g in _topological_order(adj):
        regulators = np.flatnonzero(adj[g])
        if regulators.size == 0:
            continue
        active = x[regulators] > cfg.activation_threshold
        x[g] += adj[g, regulators] @ ((x[regulators] - cfg.baseline_mean) * active)

    if interaction_enabled and sender_idx.size and receiver_idx.size:
        returning = w[np.ix_(sender_idx, receiver_idx)] @ np.exp(
            x[index[cfg.feedback_ligand_gene], receiver_idx]
        )
        x[index[cfg.feedback_receptor_gene], sender_idx] += np.log1p(
            cfg.signal_strength * returning
        )

    observed = measure(x, cfg.nb_dispersion, cfg.dropout_rate, seed=cfg.seed + 1)
    return TissueOutput(
        latent=x,
        observed=observed,
        cell_labels=labels,
        positions=positions,
        gene_names=list(cfg.gene_names),
    )


def benchmark_preset(
    five_gene_ct2: bool = False, seed: int = 0
) -> tuple[TissueConfig, tuple[GeneSelection, GeneSelection], list[GroundTruthEdge]]:
    """Benchmark configuration: panels for both cell types and the true edge list,
    read from the generator's role genes and GRN edges.

    The CT2 panel defaults to the four-gene readout {g60, g70, g71, g80};
    ``five_gene_ct2`` adds the g72 branch for the five-gene variant.
    """
    cfg = TissueConfig(seed=seed)
    ct1 = GeneSelection(cell_type_label="CT1", genes=["g50", "g90"])
    ct2_genes = ["g60", "g70", "g71", "g72", "g80"] if five_gene_ct2 else ["g60", "g70", "g71", "g80"]
    ct2 = GeneSelection(cell_type_label="CT2", genes=ct2_genes)
    truth = [
        GroundTruthEdge(cfg.ligand_gene, cfg.receptor_gene, EDGE_INTERCELLULAR),
        *(GroundTruthEdge(source, target, EDGE_INTRACELLULAR) for source, target in _CASCADE_EDGES),
        GroundTruthEdge(cfg.feedback_ligand_gene, cfg.feedback_receptor_gene, EDGE_INTERCELLULAR),
        *(GroundTruthEdge(source, target, EDGE_AUTONOMOUS) for source, target in _AUTONOMOUS_EDGES),
    ]
    return cfg, (ct1, ct2), truth
