"""Config-driven command line for the full pipeline and its stages.

``run`` executes ingest -> encode -> prune -> search -> tune -> ablate ->
export in one process.  Each stage subcommand loads its predecessor's
artifacts from the run directory, calls the same stage function as ``run``
and writes its output through the same writer, so a staged run leaves the
same stage artifacts as ``run``.  Configuration is a flat ``key = value``
text file, overridable first by ``QXTALK_<KEY>`` environment variables and
then by command-line flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ingest, prune, search, synth, tune
from .cost import CostReport, Problem, evaluate
from .ingest import GeneSelection
from .qsim import GateSpec, RegisterLayout, StateVector, Topology, from_amplitudes, tensor
from .search import SearchConfig, SearchResult
from .tune import AngleVector, ContributionTable

log = logging.getLogger("qxtalk")

ENV_PREFIX = "QXTALK_"
STRATEGIES = ("local", "multi-epoch", "qubo-exact", "qubo-annealing", "qubo-vqe", "qubo-qaoa")
MATRIX_KEYS = ("mono_ct1", "mono_ct2", "co_ct1", "co_ct2")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


class PipelineError(Exception):
    """Domain failure tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass
class RunConfig:
    """Flat run settings; field names double as config-file keys."""

    synthetic: bool = False
    five_gene_ct2: bool = False
    mono_ct1: str = ""
    mono_ct2: str = ""
    co_ct1: str = ""
    co_ct2: str = ""
    delimiter: str = ""
    ct1_label: str = "CT1"
    ct2_label: str = "CT2"
    ct1_genes: list[str] = field(default_factory=list)
    ct2_genes: list[str] = field(default_factory=list)
    threshold: float = 0.01
    strategy: str = "multi-epoch"
    kl_tol: float = 0.01
    eps_prune: float = 1e-4
    n_choose: int = 2
    n_epochs: int = 0  # 0 -> one epoch per candidate
    max_depth: int = 12
    eval_mode: str = "exact"
    nshots: int = 8192
    seed: int = 0
    top_k: int = 4
    out: str = "runs/latest"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.eval_mode not in ("exact", "shots"):
            raise ValueError("eval_mode must be 'exact' or 'shots'")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be >= 0 (0 means one epoch per candidate)")


@dataclass
class RunReport:
    """Everything a finished run reports; serialized to report.json/report.txt."""

    config: dict
    encoded: EncodedInputs
    baseline: CostReport
    candidates: prune.CandidateSet
    search_result: SearchResult
    angles: AngleVector
    tuned: CostReport
    contributions: ContributionTable
    edges: list[tune.NetworkEdge]
    wall_time_s: float
    # (matrices, truth, co-culture run) of a synthetic run, which ``run`` writes out.
    synthetic: tuple | None = None

    @property
    def ct1_genes(self) -> list[str]:
        return list(self.encoded.ct1_sel.genes)

    @property
    def ct2_genes(self) -> list[str]:
        return list(self.encoded.ct2_sel.genes)


# --- configuration handling ----------------------------------------------

_LIST_FIELDS = {"ct1_genes", "ct2_genes"}
_BOOL_FIELDS = {"synthetic", "five_gene_ct2"}
_INT_FIELDS = {"n_choose", "n_epochs", "max_depth", "nshots", "seed", "top_k"}
_FLOAT_FIELDS = {"threshold", "kl_tol", "eps_prune"}


def _coerce(key: str, raw: str):
    value = raw.strip()
    if key in _BOOL_FIELDS:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")
    if key in _INT_FIELDS:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"config key {key!r}: expected an integer, got {value!r}") from None
    if key in _FLOAT_FIELDS:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"config key {key!r}: expected a number, got {value!r}") from None
    if key in _LIST_FIELDS:
        return [item.strip() for item in value.split(",") if item.strip()]
    return value


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` document; '#' starts a comment, blank lines ignored."""
    known = {f.name for f in dataclasses.fields(RunConfig)}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    values: dict = {}
    for f in dataclasses.fields(RunConfig):
        raw = environ.get(ENV_PREFIX + f.name.upper())
        if raw is not None:
            values[f.name] = _coerce(f.name, raw)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: defaults < config file < environment < flags."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    values.update(env_overrides())
    for key in ("strategy", "seed", "threshold", "kl_tol", "nshots", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "exact", False):
        values["eval_mode"] = "exact"
    if getattr(args, "synthetic", False):
        values["synthetic"] = True
    return RunConfig(**values)


# --- stages -----------------------------------------------------------------


@contextmanager
def _stage(stage: str):
    """Report a ValueError raised inside the block as a failure of ``stage``."""
    try:
        yield
    except ValueError as exc:
        raise PipelineError(stage, str(exc)) from exc


def _drop_empty_cells(matrix: ingest.ExpressionMatrix, name: str) -> ingest.ExpressionMatrix:
    totals = matrix.values.sum(axis=1)
    keep = totals > 0
    dropped = int((~keep).sum())
    if dropped:
        log.warning("%s: dropping %d cell(s) with zero total count", name, dropped)
        return ingest.ExpressionMatrix(values=matrix.values[keep], gene_names=matrix.gene_names)
    return matrix


def _cells_of(output: synth.TissueOutput, groups: tuple[str, ...]) -> ingest.ExpressionMatrix:
    mask = np.array([lab in groups for lab in output.cell_labels])
    return ingest.ExpressionMatrix(
        values=output.observed[:, mask].T.astype(np.float64), gene_names=list(output.gene_names)
    )


def synthetic_matrices(cfg: RunConfig):
    """Benchmark tissues for both conditions, split into the four input matrices.

    Returns the (matrices, truth, co-culture run) triple that
    :func:`write_synthetic` takes.
    """
    tissue_cfg, _, truth = synth.benchmark_preset(five_gene_ct2=cfg.five_gene_ct2, seed=cfg.seed)
    mono = synth.simulate(tissue_cfg, interaction_enabled=False)
    co = synth.simulate(tissue_cfg, interaction_enabled=True)
    sender_groups = (synth.GROUP_INTERACTING_SENDER, synth.GROUP_LONE_SENDER)
    receiver_groups = (synth.GROUP_INTERACTING_RECEIVER, synth.GROUP_LONE_RECEIVER)
    matrices = {
        "mono_ct1": _cells_of(mono, sender_groups),
        "mono_ct2": _cells_of(mono, receiver_groups),
        "co_ct1": _cells_of(co, (synth.GROUP_INTERACTING_SENDER,)),
        "co_ct2": _cells_of(co, (synth.GROUP_INTERACTING_RECEIVER,)),
    }
    return matrices, truth, co


def write_synthetic(outdir: Path, matrices: dict, truth, co: synth.TissueOutput) -> None:
    """The four simulated matrices, the co-culture cell labels and the true edges."""
    outdir.mkdir(parents=True, exist_ok=True)
    for key, matrix in matrices.items():
        write_matrix_csv(outdir / f"{key}.csv", matrix)
    with (outdir / "labels.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_index", "group", "x", "y"])
        for i, (label, pos) in enumerate(zip(co.cell_labels, co.positions)):
            writer.writerow([i, label, repr(float(pos[0])), repr(float(pos[1]))])
    with (outdir / "ground_truth.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "kind"])
        for edge in truth:
            writer.writerow([edge.source, edge.target, edge.kind])


def gene_panels(cfg: RunConfig) -> tuple[GeneSelection, GeneSelection]:
    """The configured gene panels; synthetic inputs take the preset's for an unset one."""
    ct1_genes, ct2_genes = cfg.ct1_genes, cfg.ct2_genes
    if cfg.synthetic:
        _, (ct1_preset, ct2_preset), _ = synth.benchmark_preset(
            five_gene_ct2=cfg.five_gene_ct2, seed=cfg.seed
        )
        ct1_genes, ct2_genes = ct1_genes or ct1_preset.genes, ct2_genes or ct2_preset.genes
    elif not ct1_genes or not ct2_genes:
        raise ValueError("ct1_genes and ct2_genes must be set for file inputs")
    return (
        GeneSelection(cell_type_label=cfg.ct1_label, genes=list(ct1_genes)),
        GeneSelection(cell_type_label=cfg.ct2_label, genes=list(ct2_genes)),
    )


def load_matrices(cfg: RunConfig) -> dict:
    """The four input matrices from the configured files.

    For synthetic inputs these are the CSVs ``simulate`` wrote to the run directory.
    """
    if cfg.synthetic:
        paths = {key: Path(cfg.out) / f"{key}.csv" for key in MATRIX_KEYS}
        for path in paths.values():
            _require_artifact(path, "simulate")
    else:
        paths = {key: getattr(cfg, key) for key in MATRIX_KEYS}
        missing = [key for key, path in paths.items() if not path]
        if missing:
            raise ValueError(
                f"missing input matrix path(s) {missing}; "
                "set them in the config or use synthetic = true"
            )
    delim = cfg.delimiter or None
    return {key: ingest.load_matrix(str(path), delimiter=delim) for key, path in paths.items()}


@dataclass
class EncodedInputs:
    """State histograms of the four inputs and the two joint states encoded from them."""

    ct1_sel: GeneSelection
    ct2_sel: GeneSelection
    histograms: dict[str, ingest.StateHistogram]  # keyed by MATRIX_KEYS
    layout: RegisterLayout = field(init=False)
    mono: StateVector = field(init=False)
    co: StateVector = field(init=False)

    def __post_init__(self):
        self.layout = RegisterLayout(n_ct1=len(self.ct1_sel.genes), n_ct2=len(self.ct2_sel.genes))
        self.mono = self._joint_state("mono")
        self.co = self._joint_state("co")

    def _joint_state(self, condition: str) -> StateVector:
        ct1, ct2 = (
            from_amplitudes(ingest.amplitudes(self.histograms[f"{condition}_{ct}"]))
            for ct in ("ct1", "ct2")
        )
        return tensor(ct1, ct2, self.layout)

    @property
    def gene_map(self) -> dict[int, str]:
        names = list(self.ct1_sel.genes) + list(self.ct2_sel.genes)
        return dict(enumerate(names))


def encode_inputs(matrices: dict, ct1_sel: GeneSelection, ct2_sel: GeneSelection) -> EncodedInputs:
    """Binarize each input matrix over its panel, skipping cells with a zero total.

    A gene is active when its raw count is above 0.  Median scaling and
    log1p keep that sign, so the counts are binarized without normalizing.
    """
    histograms = {}
    for key in MATRIX_KEYS:
        sel = ct1_sel if key.endswith("ct1") else ct2_sel
        histograms[key] = ingest.binarize(_drop_empty_cells(matrices[key], key), sel)
    return EncodedInputs(ct1_sel=ct1_sel, ct2_sel=ct2_sel, histograms=histograms)


def build_problem(enc: EncodedInputs, cfg: RunConfig) -> Problem:
    return Problem(
        initial_state=enc.mono,
        layout=enc.layout,
        target_ct1=ingest.target_distribution(enc.histograms["co_ct1"]),
        target_ct2=ingest.target_distribution(enc.histograms["co_ct2"]),
        eval_mode=cfg.eval_mode,
        nshots=cfg.nshots,
        shots_seed=cfg.seed,
    )


def extract_candidate_pairs(enc: EncodedInputs, cfg: RunConfig) -> prune.CandidateSet:
    dr = prune.delta_rho(enc.mono, enc.co)
    return prune.extract_candidates(dr, enc.layout, threshold=cfg.threshold)


def search_config(cfg: RunConfig) -> SearchConfig:
    return SearchConfig(
        kl_tol=cfg.kl_tol,
        eps_prune=cfg.eps_prune,
        n_choose=cfg.n_choose,
        n_epochs=cfg.n_epochs or None,
        max_depth=cfg.max_depth,
        shuffle_seed=cfg.seed,
    )


def run_strategy(problem: Problem, cands: prune.CandidateSet, cfg: RunConfig) -> SearchResult:
    scfg = search_config(cfg)
    if cfg.strategy == "local":
        return search.local_search(problem, cands, scfg)
    if cfg.strategy == "multi-epoch":
        return search.multi_epoch(problem, cands, scfg)
    solver = cfg.strategy.split("-", 1)[1]
    return search.qubo_search(problem, cands, scfg, solver=solver, seed=cfg.seed, top_k=cfg.top_k)


def tune_angles(
    problem: Problem, topology: Topology, searched: CostReport
) -> tuple[AngleVector, CostReport]:
    """Tune the topology's angles from zero, never ending above the searched cost.

    When the zero-start optimizer lands above ``searched``, the angles are
    polished from the searched ones instead; if that lands above too, the
    searched angles stand.
    """
    angles, tuned = tune.optimize_angles(problem, topology)
    if tuned.total > searched.total and len(topology) > 0:
        log.info("zero-start tuning landed at %.6f (search found %.6f); re-tuning "
                 "from the searched angles", tuned.total, searched.total)
        start = AngleVector(values=np.array([g.angle for g in topology], dtype=np.float64))
        angles, tuned = tune.optimize_angles(problem, topology, start)
        if tuned.total > searched.total:
            angles, tuned = start, searched
    return angles, tuned


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Full pipeline on one configuration; deterministic for exact evaluation."""
    started = time.perf_counter()
    with _stage("ingest"):
        panels = gene_panels(cfg)
        if cfg.synthetic:
            synthetic = synthetic_matrices(cfg)
            matrices = synthetic[0]
        else:
            synthetic, matrices = None, load_matrices(cfg)
    with _stage("encode"):
        enc = encode_inputs(matrices, *panels)
        problem = build_problem(enc, cfg)
    with _stage("prune"):
        cands = extract_candidate_pairs(enc, cfg)
    baseline = evaluate(problem, Topology(()))
    with _stage("search"):
        result = run_strategy(problem, cands, cfg)
    with _stage("tune"):
        angles, tuned = tune_angles(problem, result.topology, result.cost)
    with _stage("ablate"):
        contributions = tune.contribution_analysis(problem, result.topology, angles, enc.gene_map)
    with _stage("export"):
        edges = tune.export_network(result.topology, angles, enc.gene_map, enc.layout)
    return RunReport(
        config=dataclasses.asdict(cfg),
        encoded=enc,
        baseline=baseline,
        candidates=cands,
        search_result=result,
        angles=angles,
        tuned=tuned,
        contributions=contributions,
        edges=edges,
        wall_time_s=time.perf_counter() - started,
        synthetic=synthetic,
    )


# --- serialization --------------------------------------------------------


def gate_to_dict(gate: GateSpec) -> dict:
    return {"kind": gate.kind, "control": gate.control, "target": gate.target, "angle": gate.angle}


def gate_from_dict(data: dict) -> GateSpec:
    return GateSpec(
        kind=data["kind"], target=data["target"], control=data.get("control"), angle=data.get("angle")
    )


def _cost_dict(report: CostReport) -> dict:
    return {"total": report.total, "kl_ct1": report.kl_ct1, "kl_ct2": report.kl_ct2}


def report_to_dict(report: RunReport) -> dict:
    return {
        "config": report.config,
        "registers": {"ct1_genes": report.ct1_genes, "ct2_genes": report.ct2_genes},
        "baseline": _cost_dict(report.baseline),
        "candidates": [list(p) for p in report.candidates.pairs],
        "search": {
            "strategy": report.config["strategy"],
            "cost": _cost_dict(report.search_result.cost),
            "evaluations": report.search_result.evaluations,
            "topology": [gate_to_dict(g) for g in report.search_result.topology],
        },
        "tuned": {
            "cost": _cost_dict(report.tuned),
            "angles": [float(a) for a in report.angles.values],
        },
        "contributions": {
            "baseline_kl": report.contributions.baseline_kl,
            "rows": [dataclasses.asdict(r) for r in report.contributions.rows],
        },
        "edges": [dataclasses.asdict(e) for e in report.edges],
        "timing": {"wall_time_s": report.wall_time_s},
    }


def _format_report_text(report: RunReport) -> str:
    lines = []
    lines.append("qxtalk run report")
    lines.append(f"registers: CT1={report.ct1_genes} CT2={report.ct2_genes}")
    lines.append(
        f"baseline KL: total={report.baseline.total:.6f} "
        f"(ct1={report.baseline.kl_ct1:.6f}, ct2={report.baseline.kl_ct2:.6f})"
    )
    lines.append(f"candidate pairs: {report.candidates.pairs}")
    lines.append(
        f"searched topology ({len(report.search_result.topology)} gates, "
        f"{report.search_result.evaluations} evaluations): total={report.search_result.cost.total:.6f}"
    )
    for gate in report.search_result.topology:
        lines.append(f"  CRX control=q{gate.control} target=q{gate.target}")
    lines.append(f"tuned cost: total={report.tuned.total:.6f}")
    lines.append("contributions (per gate):")
    for row in report.contributions.rows:
        lines.append(
            f"  {row.source} -> {row.target}: angle={row.angle:.4f} "
            f"kl={row.kl_after_prefix:.6f} delta={row.kl_delta:+.6f} ({row.percent_contribution:.1f}%)"
        )
    lines.append("edges:")
    for edge in report.edges:
        lines.append(f"  {edge.source} -> {edge.target} [{edge.edge_class}] angle={edge.angle:.4f}")
    return "\n".join(lines) + "\n"


def write_matrix_csv(path: Path, matrix: ingest.ExpressionMatrix) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix.gene_names)
        for row in matrix.values:
            writer.writerow([("%g" % v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require_artifact(path: Path, producer: str) -> None:
    if not path.exists():
        raise ValueError(f"missing artifact {path.name} (run the {producer} stage first)")


def _read_json(path: Path, producer: str) -> dict:
    _require_artifact(path, producer)
    return json.loads(path.read_text(encoding="utf-8"))


def write_encoded(enc: EncodedInputs, outdir: Path) -> None:
    _write_json(outdir / "encoded.json", {
        "ct1": {"label": enc.ct1_sel.cell_type_label, "genes": enc.ct1_sel.genes},
        "ct2": {"label": enc.ct2_sel.cell_type_label, "genes": enc.ct2_sel.genes},
        "histograms": {
            key: {"num_genes": h.num_genes, "counts": h.counts} for key, h in enc.histograms.items()
        },
    })


def load_encoded(outdir: Path) -> EncodedInputs:
    data = _read_json(outdir / "encoded.json", "encode")
    ct1_sel, ct2_sel = (
        GeneSelection(cell_type_label=data[ct]["label"], genes=list(data[ct]["genes"]))
        for ct in ("ct1", "ct2")
    )
    histograms = {}
    for key in MATRIX_KEYS:
        raw = data["histograms"][key]
        histograms[key] = ingest.StateHistogram(
            num_genes=raw["num_genes"], counts={k: int(v) for k, v in raw["counts"].items()}
        )
    return EncodedInputs(ct1_sel=ct1_sel, ct2_sel=ct2_sel, histograms=histograms)


def write_candidates(cands: prune.CandidateSet, gene_map: dict[int, str], outdir: Path) -> None:
    _write_json(outdir / "candidates.json",
                {"threshold": cands.threshold_used, "pairs": [list(p) for p in cands.pairs]})
    with (outdir / "candidates.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["control_gene", "target_gene"])
        for control, target in cands.pairs:
            writer.writerow([gene_map[control], gene_map[target]])


def load_candidates(outdir: Path) -> prune.CandidateSet:
    data = _read_json(outdir / "candidates.json", "prune")
    pairs = [tuple(p) for p in data["pairs"]]
    return prune.CandidateSet(pairs=pairs, threshold_used=data["threshold"])


def write_search(result: SearchResult, outdir: Path) -> None:
    _write_json(outdir / "topology.json", {
        "topology": [gate_to_dict(g) for g in result.topology],
        "cost": _cost_dict(result.cost),
        "evaluations": result.evaluations,
    })
    write_trace(result, outdir / "trace.jsonl")


def load_search(outdir: Path) -> tuple[Topology, CostReport]:
    """The searched topology and its cost."""
    data = _read_json(outdir / "topology.json", "search")
    topology = Topology(gates=tuple(gate_from_dict(g) for g in data["topology"]))
    return topology, CostReport(**data["cost"])


def write_tuned(angles: AngleVector, cost: CostReport, outdir: Path) -> None:
    angle_list = [float(a) for a in angles.values]
    _write_json(outdir / "tuned.json", {"angles": angle_list, "cost": _cost_dict(cost)})


def load_tuned(outdir: Path) -> AngleVector:
    data = _read_json(outdir / "tuned.json", "tune")
    return AngleVector(values=np.array(data["angles"], dtype=np.float64))


def write_contributions(table: ContributionTable, outdir: Path) -> None:
    with (outdir / "contributions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["source", "target", "angle", "kl_after_prefix", "kl_delta", "percent_contribution"]
        )
        for row in table.rows:
            writer.writerow(
                [row.source, row.target, repr(row.angle), repr(row.kl_after_prefix),
                 repr(row.kl_delta), repr(row.percent_contribution)]
            )


def write_report_files(report: RunReport, outdir: Path) -> None:
    """The report, the learned network and every stage artifact of a run."""
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report_to_dict(report))
    (outdir / "report.txt").write_text(_format_report_text(report), encoding="utf-8")
    with (outdir / "edges.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "angle", "edge_class"])
        for edge in report.edges:
            writer.writerow([edge.source, edge.target, repr(edge.angle), edge.edge_class])
    write_encoded(report.encoded, outdir)
    write_candidates(report.candidates, report.encoded.gene_map, outdir)
    write_search(report.search_result, outdir)
    write_tuned(report.angles, report.tuned, outdir)
    write_contributions(report.contributions, outdir)


def write_trace(result: SearchResult, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for entry in result.history:
            record = {
                "phase": entry.phase,
                "cost": entry.cost.total,
                "sequence": [[g.kind, g.control, g.target, g.angle] for g in entry.topology],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# --- stage subcommands ----------------------------------------------------


def cmd_run(cfg: RunConfig) -> int:
    report = run_pipeline(cfg)
    outdir = Path(cfg.out)
    if report.synthetic is not None:
        write_synthetic(outdir, *report.synthetic)
    write_report_files(report, outdir)
    print(_format_report_text(report), end="")
    print(f"wall time: {report.wall_time_s:.2f}s")
    print(f"report written to {outdir / 'report.json'}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    if not cfg.synthetic:
        raise PipelineError("simulate", "simulate requires synthetic = true")
    with _stage("simulate"):
        matrices, truth, co = synthetic_matrices(cfg)
    outdir = Path(cfg.out)
    write_synthetic(outdir, matrices, truth, co)
    sparsity = float((co.observed == 0).mean())
    print(f"wrote {len(matrices)} matrices to {outdir} (co-run sparsity {sparsity:.1%})")
    return EXIT_OK


def cmd_encode(cfg: RunConfig) -> int:
    outdir = Path(cfg.out)
    with _stage("ingest"):
        panels = gene_panels(cfg)
        matrices = load_matrices(cfg)
    with _stage("encode"):
        enc = encode_inputs(matrices, *panels)
    outdir.mkdir(parents=True, exist_ok=True)
    write_encoded(enc, outdir)
    print(f"encoded histograms written to {outdir / 'encoded.json'}")
    return EXIT_OK


def cmd_prune(cfg: RunConfig) -> int:
    outdir = Path(cfg.out)
    with _stage("prune"):
        enc = load_encoded(outdir)
        cands = extract_candidate_pairs(enc, cfg)
    write_candidates(cands, enc.gene_map, outdir)
    print(f"{len(cands.pairs)} candidate pair(s) written to {outdir / 'candidates.json'}")
    return EXIT_OK


def cmd_search(cfg: RunConfig) -> int:
    outdir = Path(cfg.out)
    with _stage("search"):
        enc = load_encoded(outdir)
        cands = load_candidates(outdir)
        result = run_strategy(build_problem(enc, cfg), cands, cfg)
    write_search(result, outdir)
    print(
        f"{cfg.strategy} selected {len(result.topology)} gate(s) at cost "
        f"{result.cost.total:.6f} ({result.evaluations} evaluations)"
    )
    return EXIT_OK


def cmd_tune(cfg: RunConfig) -> int:
    outdir = Path(cfg.out)
    with _stage("tune"):
        enc = load_encoded(outdir)
        topology, searched = load_search(outdir)
        angles, tuned = tune_angles(build_problem(enc, cfg), topology, searched)
    write_tuned(angles, tuned, outdir)
    print(f"tuned cost {tuned.total:.6f} written to {outdir / 'tuned.json'}")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig) -> int:
    outdir = Path(cfg.out)
    with _stage("ablate"):
        enc = load_encoded(outdir)
        topology, _ = load_search(outdir)
        angles = load_tuned(outdir)
        table = tune.contribution_analysis(build_problem(enc, cfg), topology, angles, enc.gene_map)
    write_contributions(table, outdir)
    print(f"contribution table written to {outdir / 'contributions.csv'}")
    return EXIT_OK


COMMANDS = {
    "run": cmd_run,
    "simulate": cmd_simulate,
    "encode": cmd_encode,
    "prune": cmd_prune,
    "search": cmd_search,
    "tune": cmd_tune,
    "ablate": cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--strategy", choices=STRATEGIES, help="search strategy")
    common.add_argument("--seed", type=int, help="master seed (shuffle, shots, solvers)")
    common.add_argument("--threshold", type=float, help="candidate extraction threshold")
    common.add_argument("--kl-tol", dest="kl_tol", type=float, help="search acceptance tolerance")
    common.add_argument("--nshots", type=int, help="shots per evaluation in shots mode")
    common.add_argument("--exact", action="store_true", help="force exact evaluation mode")
    common.add_argument("--out", help="run directory for artifacts")
    common.add_argument("--synthetic", action="store_true", help="use the built-in benchmark tissue")
    parser = argparse.ArgumentParser(
        prog="qxtalk",
        description="Learn cell-cell interaction circuits from binarized expression states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "full pipeline: ingest, encode, prune, search, tune, ablate, export"),
        ("simulate", "generate the synthetic benchmark tissue matrices"),
        ("encode", "binarize and encode the input matrices"),
        ("prune", "extract candidate gate pairs from the density-matrix difference"),
        ("search", "run the configured topology search"),
        ("tune", "optimize rotation angles of the searched topology"),
        ("ablate", "per-gate contribution analysis of the tuned circuit"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except PipelineError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
