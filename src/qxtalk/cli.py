"""Config-driven command line for the full pipeline and its stages.

``run`` executes ingest -> encode -> prune -> search -> tune -> ablate ->
export in one process.  Each stage is one function that reads and sets
attributes of a :class:`RunReport`.  ``run`` walks them in memory; a stage
subcommand walks its entry of one table, ``STAGE_COMMANDS``, on a staged
report, which reads each input no stage of the process has set from the
artifact an earlier command wrote.  Both write through the same writers, so
a staged run leaves the same stage artifacts as ``run``, and each staged JSON
artifact fails to load once an artifact it was built from (``BUILT_FROM``) has
changed on disk, and a scored one once the run's evaluation settings differ
from those it was scored with.  Configuration is a flat ``key = value`` text
file, overridable first by ``QXTALK_<KEY>`` environment variables and then by
command-line flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import json
import os
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ingest, prune, search, synth, tune
from .cost import CostReport, Problem, evaluate
from .ingest import GeneSelection
from .qsim import GateSpec, RegisterLayout, StateVector, Topology, from_amplitudes, tensor
from .search import SearchConfig, SearchResult

ENV_PREFIX = "QXTALK_"
STRATEGIES = ("local", "multi-epoch", "qubo-exact", "qubo-annealing", "qubo-vqe", "qubo-qaoa")
MATRIX_KEYS = ("mono_ct1", "mono_ct2", "co_ct1", "co_ct2")

EXIT_OK = 0
EXIT_ERROR = 1


class PipelineError(Exception):
    """Domain failure tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class ArtifactError(ValueError):
    """A staged artifact that is missing, stale or at odds with the run; raised as it is, not as malformed."""


@dataclass(eq=False, repr=False)
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
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.nshots <= 0:
            raise ValueError("nshots must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if len(self.delimiter) > 1:  # "" auto-detects tab or comma
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        if not self.out:
            raise ValueError("out must name a run directory; use '.' for the working directory")
        search_config(self)  # SearchConfig's own checks on kl_tol, eps_prune, n_choose, n_epochs and max_depth


class RunReport:
    """A run's values, each set by the stage that makes it; serialized to report.json/report.txt.

    ``problem`` is built from ``encoded`` on first use.  A staged report reads
    ``encoded``, ``candidates``, ``topology`` or the tuned ``circuit`` that no
    stage of this process has set from the artifacts an earlier stage command wrote.
    """

    def __init__(self, cfg: RunConfig, staged: bool = False):
        self.cfg, self.staged = cfg, staged
        # (matrices, truth, co-culture run) of a synthetic run, which ``run`` writes out.
        self.synthetic: tuple | None = None
        self.stage_s: dict[str, float] = {}  # seconds of each stage, keyed by stage name

    def __getattr__(self, name: str):
        if name == "problem":
            value = build_problem(self.encoded, self.cfg)
        elif name in ("encoded", "candidates", "topology", "circuit") and self.staged:
            value = globals()[f"load_{name}"](self.cfg)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def run(self, stages: tuple[str, ...]) -> None:
        """The stages' bodies in order, each one's seconds kept in ``stage_s``;
        a ValueError raised in a body is reported as a failure of its stage."""
        for stage in stages:
            started = time.perf_counter()
            try:
                globals()[f"_{stage}"](self)
            except ValueError as exc:
                raise PipelineError(stage, str(exc)) from exc
            self.stage_s[stage] = time.perf_counter() - started

    @property
    def ct1_genes(self) -> list[str]:
        return list(self.encoded.ct1_sel.genes)

    @property
    def ct2_genes(self) -> list[str]:
        return list(self.encoded.ct2_sel.genes)


# --- configuration handling ----------------------------------------------

def _coerce(key: str, raw: str):
    """``raw`` as the type that ``RunConfig`` annotates field ``key`` with."""
    value = raw.strip()
    kind = {f.name: f.type for f in dataclasses.fields(RunConfig)}[key]
    if kind == "bool":
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")
    if kind in ("int", "float"):
        try:
            return int(value) if kind == "int" else float(value)
        except ValueError:
            expected = "an integer" if kind == "int" else "a number"
            raise ValueError(f"config key {key!r}: expected {expected}, got {value!r}") from None
    if kind == "list[str]":
        return [item.strip() for item in value.split(",") if item.strip()]
    return value


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` document; '#' starts a comment, blank lines ignored."""
    known = {f.name for f in dataclasses.fields(RunConfig)}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
    receiver_groups = (synth.GROUP_INTERACTING_RECEIVER, synth.GROUP_LONE_RECEIVER)
    matrices = {
        "mono_ct1": _cells_of(mono, synth.SENDER_GROUPS),
        "mono_ct2": _cells_of(mono, receiver_groups),
        "co_ct1": _cells_of(co, (synth.GROUP_INTERACTING_SENDER,)),
        "co_ct2": _cells_of(co, (synth.GROUP_INTERACTING_RECEIVER,)),
    }
    return matrices, truth, co


def write_synthetic(report: RunReport, outdir: Path) -> None:
    """The four simulated matrices, the co-culture cell labels and the true edges, into an existing ``outdir``."""
    matrices, truth, co = report.synthetic
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
    """The configured gene panels; synthetic inputs take the preset's for an unset one.

    Both the per-type gene cap and the qubit cap of their joint layout fail
    here, before any input matrix is read.
    """
    ct1_genes, ct2_genes = cfg.ct1_genes, cfg.ct2_genes
    if cfg.synthetic:
        _, (ct1_preset, ct2_preset), _ = synth.benchmark_preset(
            five_gene_ct2=cfg.five_gene_ct2, seed=cfg.seed
        )
        ct1_genes, ct2_genes = ct1_genes or ct1_preset.genes, ct2_genes or ct2_preset.genes
    elif not ct1_genes or not ct2_genes:
        raise ValueError("ct1_genes and ct2_genes must be set for file inputs")
    panels = (
        GeneSelection(cell_type_label=cfg.ct1_label, genes=list(ct1_genes)),
        GeneSelection(cell_type_label=cfg.ct2_label, genes=list(ct2_genes)),
    )
    RegisterLayout(n_ct1=len(panels[0].genes), n_ct2=len(panels[1].genes))  # the qubit cap
    return panels


def load_matrices(cfg: RunConfig) -> dict:
    """The panel read of each configured input file: ``ingest.load_matrix``'s
    (matrix of the panel's columns, cells left out for a zero total) pair.

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
    panels = gene_panels(cfg)
    return {key: ingest.load_matrix(str(path), delimiter=delim, genes=panels[key.endswith("ct2")].genes)
            for key, path in paths.items()}


def panel_reads(matrices: dict, panels: tuple[GeneSelection, GeneSelection]) -> dict:
    """In-memory input matrices as :func:`load_matrices` reads files: each one's
    ``ingest.select_panel`` pair for its panel."""
    return {key: ingest.select_panel(matrix, panels[key.endswith("ct2")].genes) for key, matrix in matrices.items()}


@dataclass(eq=False, repr=False)
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


def encode_inputs(reads: dict, ct1_sel: GeneSelection, ct2_sel: GeneSelection) -> EncodedInputs:
    """Binarize each input's panel read, a (panel matrix, cells left out) pair.

    Cells with a zero total count have no activity state; each input that
    left any out gets one warning line.  A gene is active when its raw
    count is above 0.  Median scaling and log1p keep that sign, so the
    counts are binarized without normalizing.
    """
    histograms = {}
    for key in MATRIX_KEYS:
        matrix, dropped = reads[key]
        if dropped:
            print(f"WARNING qxtalk: {key}: dropping {dropped} cell(s) with zero total count", file=sys.stderr)
        histograms[key] = ingest.binarize(matrix, ct1_sel if key.endswith("ct1") else ct2_sel)
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
        n_epochs=cfg.n_epochs,
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


def _simulate(r: RunReport) -> None:
    if not r.cfg.synthetic:
        raise ValueError("simulate requires synthetic = true")
    r.synthetic = synthetic_matrices(r.cfg)


def _ingest(r: RunReport) -> None:
    """The gene panels, then the panel reads of the four matrices: a staged
    report reads the files ``simulate`` wrote, an in-memory synthetic run
    simulates its own."""
    r.panels = gene_panels(r.cfg)
    if r.cfg.synthetic and not r.staged:
        r.synthetic = synthetic_matrices(r.cfg)
    r.reads = panel_reads(r.synthetic[0], r.panels) if r.synthetic else load_matrices(r.cfg)


def _encode(r: RunReport) -> None:
    r.encoded = encode_inputs(r.reads, *r.panels)
    del r.reads  # free them before search


def _prune(r: RunReport) -> None:
    r.candidates = extract_candidate_pairs(r.encoded, r.cfg)


def _search(r: RunReport) -> None:
    r.search_result = run_strategy(r.problem, r.candidates, r.cfg)
    r.topology = r.search_result.topology


def _tune(r: RunReport) -> None:
    r.circuit, r.tuned = tune.optimize_angles(r.problem, r.topology)


def _ablate(r: RunReport) -> None:
    r.contributions = tune.contribution_analysis(r.problem, r.circuit, r.encoded.gene_map)


def _export(r: RunReport) -> None:
    r.edges = tune.export_network(r.circuit, r.encoded.gene_map, r.encoded.layout)


PIPELINE = ("ingest", "encode", "prune", "search", "tune", "ablate", "export")


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Full pipeline on one configuration; deterministic for exact evaluation."""
    started = time.perf_counter()
    report = RunReport(cfg)
    report.run(PIPELINE)
    report.baseline = evaluate(report.problem, Topology(()))  # untimed: in no stage's seconds
    report.wall_time_s = time.perf_counter() - started
    return report


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
        "config": dataclasses.asdict(report.cfg),
        "registers": {"ct1_genes": report.ct1_genes, "ct2_genes": report.ct2_genes},
        "baseline": _cost_dict(report.baseline),
        "candidates": [list(p) for p in report.candidates.pairs],
        "search": {
            "strategy": report.cfg.strategy,
            "cost": _cost_dict(report.search_result.cost),
            "evaluations": report.search_result.evaluations,
            "topology": [gate_to_dict(g) for g in report.search_result.topology],
        },
        "tuned": {
            "cost": _cost_dict(report.tuned),
            "angles": [g.angle for g in report.circuit],
        },
        "contributions": {
            "baseline_kl": report.contributions.baseline_kl,
            "rows": [dataclasses.asdict(r) for r in report.contributions.rows],
        },
        "edges": [dataclasses.asdict(e) for e in report.edges],
        "timing": {"wall_time_s": report.wall_time_s, "stages": report.stage_s},
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
    bits = np.ascontiguousarray(matrix.values).view(np.uint64)
    # Each distinct value is formatted once, keyed by its bits, so that -0.0 and 0.0 keep their own text.
    text = {k: "%g" % v for k, v in dict(zip(bits.ravel().tolist(), bits.view(np.float64).ravel().tolist())).items()}
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(matrix.gene_names)
        fh.writelines(",".join(map(text.__getitem__, row)) + "\r\n" for row in bits.tolist())


# Each staged JSON artifact: (the stage that writes it, the artifacts it is built from).
BUILT_FROM = {"encoded.json": ("encode", ()), "candidates.json": ("prune", ("encoded.json",)),
              "topology.json": ("search", ("encoded.json", "candidates.json")),
              "tuned.json": ("tune", ("encoded.json", "topology.json"))}


def _write_json(path: Path, payload: dict) -> None:
    """``payload`` and, for a staged artifact, ``built_from``: the CRC-32 of each file it is built from."""
    inputs = BUILT_FROM.get(path.name, ("", ()))[1]
    if inputs:
        payload = {**payload, "built_from": {name: zlib.crc32((path.parent / name).read_bytes()) for name in inputs}}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require_artifact(path: Path, producer: str) -> None:
    if not path.exists():
        raise ArtifactError(f"missing artifact {path.name} (run the {producer} stage first)")


def _evaluation(cfg: RunConfig) -> dict:
    """The settings a score depends on, which ``topology.json`` and ``tuned.json`` record."""
    if cfg.eval_mode == "shots":
        return {"eval_mode": "shots", "nshots": cfg.nshots, "seed": cfg.seed}
    return {"eval_mode": "exact"}


@contextlib.contextmanager
def _read_json(path: Path, evaluation: dict | None = None):
    """The JSON of staged artifact ``path``, for a ``with`` body to parse; it fails once a file it is built
    from has changed or, given the run's ``evaluation`` settings, once ``path`` was scored with others,
    and names ``path`` when it is malformed: a missing key, or a wrongly typed or invalid value, in the body too."""
    producer, inputs = BUILT_FROM[path.name]
    _require_artifact(path, producer)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        for name in inputs:
            _require_artifact(path.parent / name, BUILT_FROM[name][0])
            if data["built_from"][name] != zlib.crc32((path.parent / name).read_bytes()):
                raise ArtifactError(f"{path.name} was built from another {name}; run the {producer} stage again")
        if evaluation is not None and data["evaluation"] != evaluation:
            recorded, wanted = (", ".join(f"{k}={v}" for k, v in e.items()) for e in (data["evaluation"], evaluation))
            raise ArtifactError(f"{path.name} was scored with {recorded}, not {wanted}; "
                                f"run the {producer} stage again")
        yield data
    except ArtifactError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path.name} is malformed ({type(exc).__name__}: {exc}); "
                         f"run the {producer} stage again") from exc


def write_encoded(report: RunReport, outdir: Path) -> None:
    enc = report.encoded
    _write_json(outdir / "encoded.json", {
        "ct1": {"label": enc.ct1_sel.cell_type_label, "genes": enc.ct1_sel.genes},
        "ct2": {"label": enc.ct2_sel.cell_type_label, "genes": enc.ct2_sel.genes},
        "histograms": {
            key: {"num_genes": h.num_genes, "counts": h.counts} for key, h in enc.histograms.items()
        },
    })


def load_encoded(cfg: RunConfig) -> EncodedInputs:
    with _read_json(Path(cfg.out) / "encoded.json") as data:
        ct1_sel, ct2_sel = (GeneSelection(cell_type_label=data[ct]["label"], genes=list(data[ct]["genes"]))
                            for ct in ("ct1", "ct2"))
        histograms = {}
        for key in MATRIX_KEYS:
            raw = data["histograms"][key]
            histograms[key] = ingest.StateHistogram(num_genes=raw["num_genes"], counts=raw["counts"])
        return EncodedInputs(ct1_sel=ct1_sel, ct2_sel=ct2_sel, histograms=histograms)


def write_candidates(report: RunReport, outdir: Path) -> None:
    cands, gene_map = report.candidates, report.encoded.gene_map
    _write_json(outdir / "candidates.json",
                {"threshold": cands.threshold_used, "pairs": [list(p) for p in cands.pairs]})
    with (outdir / "candidates.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["control_gene", "target_gene"])
        for control, target in cands.pairs:
            writer.writerow([gene_map[control], gene_map[target]])


def load_candidates(cfg: RunConfig) -> prune.CandidateSet:
    with _read_json(Path(cfg.out) / "candidates.json") as data:
        return prune.CandidateSet(pairs=[tuple(p) for p in data["pairs"]], threshold_used=data["threshold"])


def write_search(report: RunReport, outdir: Path) -> None:
    result = report.search_result
    _write_json(outdir / "topology.json", {
        "topology": [gate_to_dict(g) for g in result.topology],
        "cost": _cost_dict(result.cost),
        "evaluations": result.evaluations,
        "evaluation": _evaluation(report.cfg),
    })
    write_trace(result, outdir / "trace.jsonl")


def load_topology(cfg: RunConfig) -> Topology:
    """The searched topology, at its searched angles."""
    with _read_json(Path(cfg.out) / "topology.json", _evaluation(cfg)) as data:
        return Topology(gates=tuple(gate_from_dict(g) for g in data["topology"]))


def write_tuned(report: RunReport, outdir: Path) -> None:
    _write_json(outdir / "tuned.json", {"angles": [g.angle for g in report.circuit],
                                        "cost": _cost_dict(report.tuned), "evaluation": _evaluation(report.cfg)})


def load_circuit(cfg: RunConfig) -> Topology:
    """The tuned circuit: the gates of topology.json at the angles of ``tuned.json``, one per gate."""
    topology = load_topology(cfg)
    with _read_json(Path(cfg.out) / "tuned.json", _evaluation(cfg)) as data:
        angles = data["angles"]
        if len(angles) != len(topology):
            raise ArtifactError(f"tuned.json has {len(angles)} angles for the {len(topology)} gates of topology.json")
        return tune.with_angles(topology, angles)


def write_contributions(report: RunReport, outdir: Path) -> None:
    with (outdir / "contributions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["source", "target", "angle", "kl_after_prefix", "kl_delta", "percent_contribution"]
        )
        for row in report.contributions.rows:
            writer.writerow(
                [row.source, row.target, repr(row.angle), repr(row.kl_after_prefix),
                 repr(row.kl_delta), repr(row.percent_contribution)]
            )


def write_report_files(report: RunReport, outdir: Path) -> None:
    """Every artifact of a run, the synthetic inputs included, into an existing ``outdir``;
    ``report.json`` goes last, with the seconds of the earlier writes as ``timing.write_s``."""
    started = time.perf_counter()
    if report.synthetic is not None:
        write_synthetic(report, outdir)
    (outdir / "report.txt").write_text(_format_report_text(report), encoding="utf-8")
    with (outdir / "edges.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "angle", "edge_class"])
        for edge in report.edges:
            writer.writerow([edge.source, edge.target, repr(edge.angle), edge.edge_class])
    # In this order: each of these records the CRC-32 of the earlier ones it is built from, as read from disk.
    write_encoded(report, outdir)
    write_candidates(report, outdir)
    write_search(report, outdir)
    write_tuned(report, outdir)
    write_contributions(report, outdir)
    payload = report_to_dict(report)
    payload["timing"]["write_s"] = time.perf_counter() - started
    _write_json(outdir / "report.json", payload)


def write_trace(result: SearchResult, path: Path) -> None:
    """One line per history batch, in scoring order: ``json.dumps`` with sorted keys of
    {"phase", "parent", "appended", "total"}.  Row r of a line is the (control, target)
    pairs ``parent + appended[r]``, each the search gate CRX(control, target) at pi/2,
    scored at ``total[r]``."""
    path.write_text("".join(json.dumps({"phase": b.phase, "parent": b.parent, "appended": b.appended,
                                        "total": b.total.tolist()}, sort_keys=True) + "\n"
                            for b in result.history.batches), encoding="utf-8")


# --- stage subcommands ----------------------------------------------------


def cmd_run(cfg: RunConfig) -> int:
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)  # an unusable run directory fails before any stage
    report = run_pipeline(cfg)
    write_report_files(report, outdir)
    print(_format_report_text(report), end="")
    print(f"wall time: {report.wall_time_s:.2f}s")
    print(f"report written to {outdir / 'report.json'}")
    return EXIT_OK


# Each stage command: its help text, the stages it runs, the writer of its artifacts and its one-line message.
STAGE_COMMANDS = {
    "simulate": ("generate the synthetic benchmark tissue matrices", ("simulate",), "write_synthetic",
                 lambda r, out: f"wrote {len(r.synthetic[0])} matrices to {out} "
                                f"(co-run sparsity {float((r.synthetic[2].observed == 0).mean()):.1%})"),
    "encode": ("binarize and encode the input matrices", ("ingest", "encode"), "write_encoded",
               lambda r, out: f"encoded histograms written to {out / 'encoded.json'}"),
    "prune": ("extract candidate gate pairs from the density-matrix difference", ("prune",), "write_candidates",
              lambda r, out: f"{len(r.candidates.pairs)} candidate pair(s) written to {out / 'candidates.json'}"),
    "search": ("run the configured topology search", ("search",), "write_search",
               lambda r, out: f"{r.cfg.strategy} selected {len(r.topology)} gate(s) at cost "
                              f"{r.search_result.cost.total:.6f} ({r.search_result.evaluations} evaluations)"),
    "tune": ("optimize rotation angles of the searched topology", ("tune",), "write_tuned",
             lambda r, out: f"tuned cost {r.tuned.total:.6f} written to {out / 'tuned.json'}"),
    "ablate": ("per-gate contribution analysis of the tuned circuit", ("ablate",), "write_contributions",
               lambda r, out: f"contribution table written to {out / 'contributions.csv'}"),
}


def cmd_stage(command: str, cfg: RunConfig) -> int:
    """``command``'s stages on a staged report, then its writer and its message."""
    _, stages, writer, message = STAGE_COMMANDS[command]
    outdir = Path(cfg.out)
    if command in ("simulate", "encode"):  # the commands that read no artifact make the run directory first
        outdir.mkdir(parents=True, exist_ok=True)
    report = RunReport(cfg, staged=True)
    report.run(stages)
    globals()[writer](report, outdir)  # looked up at call time, as a wrapped or patched writer is bound
    print(message(report, outdir))
    return EXIT_OK


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
    sub.add_parser("run", parents=[common], help="full pipeline: " + ", ".join(PIPELINE))
    for name, (help_text, *_) in STAGE_COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Every object alive when a command returns, ends in an error or raises is
    moved to the collector's permanent generation (``gc.freeze``), so the
    full collections the interpreter runs while it shuts down have nothing to
    walk.  An in-process caller inherits that: the collector stays enabled and
    collects what is made after ``main`` returns, but cyclic garbage alive at
    that moment (99 to 165 objects after a run of the 4-gene synthetic panel)
    is never collected, unless the caller calls ``gc.unfreeze``.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return cmd_run(cfg) if args.command == "run" else cmd_stage(args.command, cfg)
    except PipelineError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
