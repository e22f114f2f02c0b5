"""Command-line pipeline: config handling, staged artifacts, full runs."""

import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qxtalk.cli import (
    EXIT_ERROR,
    EXIT_OK,
    MATRIX_KEYS,
    STRATEGIES,
    RunConfig,
    build_parser,
    build_problem,
    encode_inputs,
    env_overrides,
    extract_candidate_pairs,
    gate_from_dict,
    gate_to_dict,
    gene_panels,
    main,
    panel_reads,
    parse_config_file,
    resolve_config,
    run_pipeline,
    run_strategy,
    synthetic_matrices,
    write_matrix_csv,
    write_trace,
)
import qxtalk
from qxtalk import ingest, search, synth
from qxtalk._kernel import Kernel
from qxtalk.cost import Problem
from qxtalk.ingest import TargetDistribution
from qxtalk.prune import CandidateSet
from qxtalk.qsim import GateSpec, RegisterLayout, StateVector, Topology
from qxtalk.search import History, SearchResult, multi_epoch

SMALL_CONFIG = """\
# four-qubit benchmark slice, kept small for fast runs
synthetic = true
ct1_genes = g50, g90
ct2_genes = g60, g70
strategy = local
seed = 0
"""


# Six genes per type: the 12-qubit cap, which prune handles without a cap of its own.
TWELVE_QUBIT_CONFIG = """\
synthetic = true
ct1_genes = g50, g90, g73, g74, g75, g1
ct2_genes = g60, g70, g71, g72, g80, g2
strategy = local
threshold = 0.05
seed = 0
"""


def strategy_config(strategy: str, extra: str = "") -> str:
    """The default panel at seed 0 under ``strategy``; the exact and variational QUBO
    solvers run at threshold 0.07, which keeps them under their caps."""
    threshold = "threshold = 0.07\n" if strategy in ("qubo-exact", "qubo-vqe", "qubo-qaoa") else ""
    return f"synthetic = true\nstrategy = {strategy}\n{threshold}seed = 0\n{extra}"


def write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfigFile:
    def test_types_and_comments(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "# full line comment\n"
            "\n"
            "synthetic = yes\n"
            "threshold = 0.05  # trailing comment\n"
            "nshots = 4096\n"
            "strategy = local\n"
            "ct2_genes = g60, g70 , g80\n",
            encoding="utf-8",
        )
        values = parse_config_file(str(path))
        assert values == {
            "synthetic": True,
            "threshold": 0.05,
            "nshots": 4096,
            "strategy": "local",
            "ct2_genes": ["g60", "g70", "g80"],
        }

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("seed = 1\nbogus = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"b\.cfg:2.*bogus"):
            parse_config_file(str(path))

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"c\.cfg:1"):
            parse_config_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_config_file(str(tmp_path / "nope.cfg"))

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text("synthetic = maybe\n", encoding="utf-8")
        with pytest.raises(ValueError, match="boolean"):
            parse_config_file(str(path))

    def test_bad_integer(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("nshots = many\n", encoding="utf-8")
        with pytest.raises(ValueError, match="integer"):
            parse_config_file(str(path))


class TestEnvOverrides:
    def test_prefix_and_coercion(self):
        values = env_overrides({"QXTALK_SEED": "9", "QXTALK_SYNTHETIC": "true", "HOME": "/x"})
        assert values == {"seed": 9, "synthetic": True}

    def test_empty_environment(self):
        assert env_overrides({}) == {}


class TestResolveConfig:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        cfg = resolve_config(args)
        assert cfg.strategy == "multi-epoch"
        assert cfg.seed == 0
        assert cfg.out == "runs/latest"

    def test_file_overrides_defaults(self, tmp_path):
        config = write_config(tmp_path)
        args = build_parser().parse_args(["run", "--config", config])
        cfg = resolve_config(args)
        assert cfg.strategy == "local"
        assert cfg.synthetic is True
        assert cfg.ct2_genes == ["g60", "g70"]

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("QXTALK_STRATEGY", "qubo-exact")
        args = build_parser().parse_args(["run", "--config", config])
        assert resolve_config(args).strategy == "qubo-exact"

    def test_flags_override_env(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("QXTALK_SEED", "5")
        args = build_parser().parse_args(
            ["run", "--config", config, "--seed", "7", "--strategy", "multi-epoch"]
        )
        cfg = resolve_config(args)
        assert cfg.seed == 7
        assert cfg.strategy == "multi-epoch"

    def test_synthetic_flag(self):
        args = build_parser().parse_args(["run", "--synthetic"])
        assert resolve_config(args).synthetic is True


class TestRunConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            RunConfig(strategy="simulated-annealing")

    def test_bad_eval_mode_rejected(self):
        with pytest.raises(ValueError, match="eval_mode"):
            RunConfig(eval_mode="sampled")

    def test_top_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            RunConfig(top_k=0)

    def test_negative_n_epochs_rejected(self):
        assert RunConfig(n_epochs=0).n_epochs == 0
        with pytest.raises(ValueError, match="n_epochs must be >= 0"):
            RunConfig(n_epochs=-1)

    def test_all_strategies_accepted(self):
        for strategy in (
            "local",
            "multi-epoch",
            "qubo-exact",
            "qubo-annealing",
            "qubo-vqe",
            "qubo-qaoa",
        ):
            assert RunConfig(strategy=strategy).strategy == strategy


class TestGateSerialization:
    def test_round_trip(self):
        gate = GateSpec(kind="CRX", target=3, control=1, angle=0.75)
        assert gate_from_dict(gate_to_dict(gate)) == gate

    def test_single_qubit_round_trip(self):
        gate = GateSpec(kind="RX", target=2, control=None, angle=math.pi / 3)
        assert gate_from_dict(gate_to_dict(gate)) == gate


def per_row_trace(result: SearchResult) -> str:
    """The trace as one ``json.dumps`` per history entry."""
    return "".join(
        json.dumps({
            "phase": entry.phase,
            "cost": entry.cost.total,
            "sequence": [[g.kind, g.control, g.target, g.angle] for g in entry.topology],
        }, sort_keys=True) + "\n"
        for entry in result.history
    )


@pytest.mark.parametrize("five_gene_ct2,threshold", [(False, 0.07), (True, 0.06)])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_scored_topology_is_one_history_entry_and_trace_line(tmp_path, strategy, five_gene_ct2, threshold):
    """On the 4-gene and 5-gene panels at 5 candidates each, a search's
    evaluations are its history's length and the kernel rows it scored, and its
    trace has that many lines.  Each row's pairs are its entry's gates."""
    cfg = RunConfig(synthetic=True, five_gene_ct2=five_gene_ct2, threshold=threshold, strategy=strategy)
    panels = gene_panels(cfg)
    encoded = encode_inputs(panel_reads(synthetic_matrices(cfg)[0], panels), *panels)
    problem = build_problem(encoded, cfg)
    cands = extract_candidate_pairs(encoded, cfg)
    result = run_strategy(problem, cands, cfg)
    assert result.evaluations == len(result.history) == problem.kernel.rows_scored
    rows = [b.parent + appended for b in result.history.batches for appended in b.appended]
    assert rows == [tuple((g.control, g.target) for g in entry.topology) for entry in result.history]
    lengths = np.concatenate([b.lengths() for b in result.history.batches])
    assert lengths.tolist() == [len(entry.topology) for entry in result.history]
    write_trace(result, tmp_path / "trace.jsonl")
    assert len((tmp_path / "trace.jsonl").read_bytes().splitlines()) == result.evaluations


def test_trace_bytes_match_per_row_json_dumps(tmp_path, synth4):
    # Rows of pairs: a parent with and without appended pairs, appended pairs alone, and
    # pairs that recur within a row, across rows and between parent and appended pairs.
    rows = [((), ()), ((), ((0, 1),)), (((0, 1),), ((1, 0),)), (((0, 1), (2, 3)), ()), (((3, 2),), ((3, 2), (0, 1))),
            ((), ((2, 0), (0, 2), (2, 0))), (((1, 3),), ()), ((), ()), (((2, 3), (1, 0)), ((3, 0),)), ((), ((0, 1),))]
    costs = [(0.5, 0.25), (1e-17, 3.0), (math.inf, 0.0), (0.1, 0.2), (math.nan, 1.0), (-math.inf, 0.5),
             (np.float64(0.1), np.float64(0.7)), (1, 2), (np.float64(math.nan), 0.0), (-0.0, -0.0)]
    phases = ["baseline", "forward", 'quote"d', "caf\u00e9", "refine", "x", "forward", "x", 'quote"d', "baseline"]
    history = History()
    for (parent, appended), (kl_ct1, kl_ct2), phase in zip(rows, costs, phases):
        history.add(phase, parent, ([kl_ct1], [kl_ct2]), [appended])
    history.add("forward", ((1, 2),), ([0.25, 0.5, 0.75], [0.0, 1.0, 2.0]), [(), ((2, 1),), ((0, 3), (3, 0))])
    rng = np.random.default_rng(7)
    amps = rng.uniform(0.1, 1.0, size=16)
    targets = [TargetDistribution(num_qubits=2, probabilities=t / t.sum()) for t in rng.uniform(0.1, 1.0, (2, 4))]
    problem = Problem(initial_state=StateVector(4, amps / np.linalg.norm(amps)),
                      layout=RegisterLayout(n_ct1=2, n_ct2=2), target_ct1=targets[0], target_ct2=targets[1])
    searched = multi_epoch(problem, CandidateSet(pairs=[(0, 2), (2, 1), (1, 3), (3, 0)], threshold_used=0.01))
    # Real histories of every strategy: rows that append pairs to a parent, or that are a whole
    # sequence of pairs (insertions, deletions, refinements, pairwise rows, orderings).
    strategies = ["local", "multi-epoch", "qubo-annealing", "qubo-exact", "qubo-vqe", "qubo-qaoa"]
    real = [synth4.search(strategy) for strategy in strategies]
    batches = [b for result in real for b in result.history.batches]
    assert {b.phase for b in batches} == {"baseline", "insertion", "addition", "deletion", "pairwise", "epoch-start",
                                          "forward", "refine", "ordering"}
    assert {bool(b.parent) for b in batches} == {False, True}
    # Rows of no pair up to a whole identity ordering of 29 pairs.
    assert {*range(6), 29} <= set(np.concatenate([b.lengths() for b in batches]).tolist())
    for result in (SearchResult(Topology(()), history[0].cost, history), searched, *real):
        path = tmp_path / "trace.jsonl"
        write_trace(result, path)
        assert path.read_bytes() == per_row_trace(result).encode("utf-8")



@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.1, 2.5, 1e-300, 5e-324, 123456789.0, 1e21])
                              | st.floats(0.0, 1e6), min_size=3, max_size=3), max_size=30),
       reverse=st.booleans())
def test_matrix_csv_bytes_match_per_cell_formatting(tmp_path_factory, rows, reverse):
    """Each distinct value is formatted once: -0.0 and 0.0 keep their own text, a strided
    matrix reads in row order, and rows end in csv's \r\n after the csv-quoted header."""
    values = np.array(rows, dtype=np.float64).reshape(-1, 3)
    matrix = ingest.ExpressionMatrix(values[:, ::-1] if reverse else values, ["g1", "g,2", 'g"3'])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(matrix.gene_names)
    for row in matrix.values:
        writer.writerow(["%g" % v for v in row])
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_matrix_csv(path, matrix)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")

# Count-like values.  Within a matrix spanning more than ~1e300, median
# scaling can underflow a positive value to 0, which normalizing first reads
# as inactive; the raw counts read it as active.
_count = st.one_of(st.just(0.0), st.integers(1, 10**6).map(float), st.floats(1e-3, 1e6))


@st.composite
def encode_cases(draw):
    genes = [f"g{i}" for i in range(draw(st.integers(1, 4)))]
    matrices = {}
    for key in MATRIX_KEYS:
        rows = draw(st.lists(st.lists(_count, min_size=len(genes), max_size=len(genes)),
                             min_size=1, max_size=12))
        matrices[key] = ingest.ExpressionMatrix(values=np.array(rows), gene_names=genes)
    panels = []
    for label in ("CT1", "CT2"):
        order = draw(st.permutations(genes))
        size = draw(st.integers(1, len(genes)))
        panels.append(ingest.GeneSelection(cell_type_label=label, genes=order[:size]))
    return matrices, *panels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=encode_cases())
def test_encoded_histograms_match_normalizing_first(case):
    matrices, ct1, ct2 = case
    kept = {key: m.values[m.values.sum(axis=1) > 0] for key, m in matrices.items()}
    assume(all(len(values) for values in kept.values()))
    enc = encode_inputs(panel_reads(matrices, (ct1, ct2)), ct1, ct2)
    for key, values in kept.items():
        normalized = ingest.log_normalize(ingest.ExpressionMatrix(values, matrices[key].gene_names))
        assert enc.histograms[key] == ingest.binarize(normalized, ct1 if key.endswith("ct1") else ct2)


def report_without_timing(outdir: Path) -> dict:
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    report.pop("timing")
    report["config"].pop("out")
    return report


class TestFullRun:
    def test_run_synthetic_writes_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
        for name in (
            "report.json",
            "report.txt",
            "edges.csv",
            "contributions.csv",
            "trace.jsonl",
            "topology.json",
            "tuned.json",
            "encoded.json",
            "candidates.json",
            "candidates.csv",
            "mono_ct1.csv",
            "mono_ct2.csv",
            "co_ct1.csv",
            "co_ct2.csv",
            "labels.csv",
            "ground_truth.csv",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["registers"]["ct1_genes"] == ["g50", "g90"]
        assert report["registers"]["ct2_genes"] == ["g60", "g70"]
        assert report["search"]["strategy"] == "local"
        assert report["tuned"]["cost"]["total"] <= report["baseline"]["total"]
        timing = report["timing"]
        assert timing["wall_time_s"] > 0
        stages = timing["stages"]
        assert set(stages) == {"ingest", "encode", "prune", "search", "tune", "ablate", "export"}
        assert all(seconds >= 0 for seconds in stages.values())
        assert sum(stages.values()) <= timing["wall_time_s"]
        assert timing["write_s"] > 0
        captured = capsys.readouterr()
        assert "wall time" in captured.out

    def test_run_simulates_each_tissue_once(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(sim)]) == EXIT_OK
        calls = []
        simulate = synth.simulate

        def counting(*args, **kwargs):
            calls.append(kwargs["interaction_enabled"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(synth, "simulate", counting)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
        assert sorted(calls) == [False, True]
        for name in ("mono_ct1.csv", "mono_ct2.csv", "co_ct1.csv", "co_ct2.csv",
                     "labels.csv", "ground_truth.csv"):
            assert (out / name).read_bytes() == (sim / name).read_bytes(), name

    def test_contribution_deltas_telescope_in_report(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        deltas = [row["kl_delta"] for row in report["contributions"]["rows"]]
        gap = report["tuned"]["cost"]["total"] - report["baseline"]["total"]
        assert sum(deltas) == pytest.approx(gap, abs=1e-9)
        assert report["contributions"]["baseline_kl"] == report["baseline"]["total"]

    def test_deterministic_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--config", config, "--out", str(out_b)]) == EXIT_OK
        for name in (
            "report.txt",
            "edges.csv",
            "contributions.csv",
            "trace.jsonl",
            "topology.json",
            "tuned.json",
            "co_ct1.csv",
        ):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        assert report_without_timing(out_a) == report_without_timing(out_b)


class TestStageChain:
    def test_stages_produce_artifacts_in_order(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "staged"
        base = ["--config", config, "--out", str(out)]
        assert main(["simulate", *base]) == EXIT_OK
        assert (out / "co_ct2.csv").exists()
        assert main(["encode", *base]) == EXIT_OK
        encoded = json.loads((out / "encoded.json").read_text(encoding="utf-8"))
        assert encoded["ct1"]["genes"] == ["g50", "g90"]
        assert main(["prune", *base]) == EXIT_OK
        cands = json.loads((out / "candidates.json").read_text(encoding="utf-8"))
        assert len(cands["pairs"]) > 0
        assert main(["search", *base]) == EXIT_OK
        topo = json.loads((out / "topology.json").read_text(encoding="utf-8"))
        assert "cost" in topo
        assert main(["tune", *base]) == EXIT_OK
        tuned = json.loads((out / "tuned.json").read_text(encoding="utf-8"))
        assert len(tuned["angles"]) == len(topo["topology"])
        assert main(["ablate", *base]) == EXIT_OK
        lines = (out / "contributions.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "source,target,angle,kl_after_prefix,kl_delta,percent_contribution"
        assert len(lines) == 1 + len(topo["topology"])

    # The default six-qubit tissue with local search at seed 0: twelve gates,
    # tuned from eight starts to a cost below the searched one.
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(SMALL_CONFIG, id="small"),
            pytest.param(strategy_config("local"), id="default-local"),
            pytest.param(TWELVE_QUBIT_CONFIG, id="twelve-qubit"),
            *(pytest.param(strategy_config(strategy), id=strategy) for strategy in STRATEGIES[1:]),
            pytest.param(strategy_config("local", "eval_mode = shots\n"), id="shots-local"),
        ],
    )
    def test_stage_results_match_full_run(self, tmp_path, text):
        config = write_config(tmp_path, text)
        staged, full = tmp_path / "staged", tmp_path / "full"
        for cmd in ("simulate", "encode", "prune", "search", "tune", "ablate"):
            assert main([cmd, "--config", config, "--out", str(staged)]) == EXIT_OK
        assert main(["run", "--config", config, "--out", str(full)]) == EXIT_OK
        written = sorted(path.name for path in staged.iterdir())
        for name in ("encoded.json", "candidates.json", "candidates.csv", "topology.json",
                     "trace.jsonl", "tuned.json", "contributions.csv"):
            assert name in written
        for name in written:
            assert (staged / name).read_bytes() == (full / name).read_bytes(), name
        searched = json.loads((staged / "topology.json").read_text(encoding="utf-8"))
        tuned = json.loads((staged / "tuned.json").read_text(encoding="utf-8"))
        assert tuned["cost"]["total"] <= searched["cost"]["total"]


def _candidate_problem() -> Problem:
    layout = RegisterLayout(n_ct1=3, n_ct2=3)
    amps = np.zeros(1 << 6, dtype=complex)
    amps[0] = 1.0
    uniform = TargetDistribution(num_qubits=3, probabilities=np.full(8, 1 / 8))
    return Problem(initial_state=StateVector(6, amps), layout=layout,
                   target_ct1=uniform, target_ct2=uniform)


# Config values that no stage can run with, and the error each one names.
BAD_VALUES = [
    pytest.param("kl_tol = -1", r"tolerances must be non-negative", id="kl_tol-negative"),
    pytest.param("eps_prune = -1", r"tolerances must be non-negative", id="eps_prune-negative"),
    pytest.param("kl_tol = nan", r"tolerances must be non-negative, got kl_tol = nan", id="kl_tol-nan"),
    pytest.param("eps_prune = nan", r"tolerances must be non-negative, got eps_prune = nan", id="eps_prune-nan"),
    pytest.param("seed = -1", r"error: seed must be >= 0", id="seed-negative"),
    pytest.param("n_choose = 0", r"n_choose must be >= 1", id="n_choose-0"),
    pytest.param("max_depth = 0", r"max_depth must be >= 1", id="max_depth-0"),
    pytest.param("threshold = 0", r"threshold must be positive", id="threshold-0"),
    pytest.param("nshots = 0", r"nshots must be positive", id="nshots-0"),
]


@pytest.mark.parametrize(
    "case,limit",
    [
        pytest.param("ct1_genes = g50, g90, g73, g74, g75, g1, g3\nct2_genes = g60, g70, g71, g72, g80, g2",
                     r"layout needs 13 qubits, exceeding the cap of 12", id="13-qubits"),
        pytest.param("ct1_genes = " + ", ".join(f"g{i}" for i in range(1, 10)),
                     r"must contain 1\.\.8 genes, got 9", id="9-genes"),
        pytest.param(("qubo-exact", 23), r"exact solver is capped at 22 variables, got 23 candidates",
                     id="qubo-exact-23-candidates"),
        pytest.param(("qubo-vqe", 13), r"variational solvers are capped at 12 variables, got 13 candidates",
                     id="qubo-vqe-13-candidates"),
        pytest.param(("qubo-qaoa", 13), r"variational solvers are capped at 12 variables, got 13 candidates",
                     id="qubo-qaoa-13-candidates"),
        pytest.param("strategy = qubo-vqe\ntop_k = 0", r"top_k must be >= 1", id="top_k-0"),
        *BAD_VALUES,
    ],
)
def test_size_caps_fail_before_any_score(tmp_path, capsys, monkeypatch, case, limit):
    """Every size cap and bad value fails with an error naming its limit before a circuit
    is scored; those a run config holds fail before a tissue is simulated."""
    scored, simulated = [], []
    divergences = Kernel.divergences

    def counting(self, states):
        scored.append(len(states))
        return divergences(self, states)

    monkeypatch.setattr(Kernel, "divergences", counting)
    monkeypatch.setattr(synth, "simulate", lambda *args, **kwargs: simulated.append(args))
    if isinstance(case, tuple):  # a search over a given number of candidates
        strategy, count = case
        pairs = [(c, t) for c in range(6) for t in range(6) if c != t][:count]
        with pytest.raises(ValueError, match=limit):
            run_strategy(_candidate_problem(), CandidateSet(pairs, 0.01), RunConfig(strategy=strategy))
    else:  # a whole run of the synthetic pipeline
        config = write_config(tmp_path, "synthetic = true\n" + case + "\n")
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert re.search(limit, capsys.readouterr().err)
        assert simulated == []
    assert scored == []


THIRTEEN_QUBITS = ("ct1_genes = a1, a2, a3, a4, a5, a6, a7\nct2_genes = b1, b2, b3, b4, b5, b6",
                   r"layout needs 13 qubits, exceeding the cap of 12")


@pytest.mark.parametrize(
    "command,case,limit",
    [
        pytest.param("run", *THIRTEEN_QUBITS, id="run"),
        pytest.param("encode", *THIRTEEN_QUBITS, id="encode"),
        *(pytest.param(command, *bad.values, id=f"{command}-{bad.id}")
          for command in ("run", "encode") for bad in BAD_VALUES),
    ],
)
def test_qubit_cap_fails_before_any_matrix_is_read(tmp_path, capsys, monkeypatch, command, case, limit):
    """A 7+6-gene panel, or a bad config value, on file inputs fails without parsing a matrix."""
    loads = []
    monkeypatch.setattr("qxtalk.cli.load_matrices", lambda cfg: loads.append(cfg))
    paths = "".join(f"{key} = {tmp_path / key}.csv\n" for key in MATRIX_KEYS)
    config = write_config(tmp_path, paths + case + "\n")
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert re.search(limit, capsys.readouterr().err)
    assert loads == []


@pytest.mark.parametrize("command,first_stage", [("run", "run_pipeline"), ("simulate", "synthetic_matrices"),
                                                 ("encode", "load_matrices")])
def test_unusable_out_fails_before_any_stage(tmp_path, capsys, monkeypatch, command, first_stage):
    """An --out below a regular file is an error line and exit 1, not a traceback,
    reported before the command's first stage runs."""
    stages = []
    monkeypatch.setattr(f"qxtalk.cli.{first_stage}", lambda cfg: stages.append(cfg))
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main([command, "--synthetic", "--out", str(blocker / "out")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert stages == []


@pytest.mark.parametrize("command", ["run", "encode"])
def test_multi_character_delimiter_fails_up_front(tmp_path, capsys, monkeypatch, command):
    """A synthetic run reads no matrix file, yet it rejects the delimiter as encode does."""
    monkeypatch.setenv("QXTALK_DELIMITER", "ab")
    assert main([command, "--synthetic", "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: delimiter must be a single character, got 'ab'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("delimiter", ["", ",", "\t"])
def test_single_character_delimiters_run(tmp_path, monkeypatch, delimiter):
    assert RunConfig(delimiter=delimiter).delimiter == delimiter
    monkeypatch.setenv("QXTALK_DELIMITER", delimiter)
    out = str(tmp_path / "out")
    assert main(["run", "--synthetic", "--strategy", "local", "--out", out]) == EXIT_OK
    assert main(["encode", "--synthetic", "--out", out]) == EXIT_OK


def test_readme_lists_every_config_key():
    """The README's key table has one row per RunConfig field, in field order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Configuration keys\n", 1)[1].split("\n#", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", table, flags=re.M) == [f.name for f in dataclasses.fields(RunConfig)]


def test_every_public_record_keeps_fields_asdict_and_replace(tmp_path):
    """Records generate only the methods something uses, yet each stays a dataclass.
    A run's report is a plain object, so its values are walked through ``vars``."""
    cfg = resolve_config(build_parser().parse_args(["run", "--config", write_config(tmp_path), "--out", str(tmp_path)]))
    report = run_pipeline(cfg)
    found = {}

    def collect(obj):
        if dataclasses.is_dataclass(obj):
            found.setdefault(type(obj), obj)
            obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, (list, tuple)):
            for item in obj:
                collect(item)

    collect([cfg, vars(report), build_problem(report.encoded, cfg), search.SearchConfig(), synth.TissueConfig(),
             ingest.amplitudes(report.encoded.histograms["mono_ct1"]), search.build_qubo(np.eye(2), 1.0)])
    records = [getattr(qxtalk, name) for name in qxtalk.__all__ if dataclasses.is_dataclass(getattr(qxtalk, name))]
    for cls in [*records, RunConfig]:
        obj = found[cls]
        names = [f.name for f in dataclasses.fields(obj)]
        assert list(dataclasses.asdict(obj)) == names
        copy = dataclasses.replace(obj)
        assert type(copy) is cls and copy is not obj
        assert all(getattr(copy, name) is getattr(obj, name) for name in names), cls


class TestMissingArtifacts:
    @pytest.mark.parametrize(
        "command,missing,producer",
        [
            ("encode", "mono_ct1.csv", "simulate"),
            ("prune", "encoded.json", "encode"),
            ("search", "encoded.json", "encode"),
            ("search", "candidates.json", "prune"),
            ("tune", "topology.json", "search"),
            ("ablate", "topology.json", "search"),
            ("ablate", "tuned.json", "tune"),
        ],
    )
    def test_error_names_producer_stage(self, tmp_path, capsys, command, missing, producer):
        """The chain up to the producer of ``missing`` leaves ``missing`` and every later
        artifact unwritten; a command reads its artifacts in a fixed order, so it names ``missing``."""
        config = write_config(tmp_path)
        out = tmp_path / "empty"
        out.mkdir()
        chain = ("simulate", "encode", "prune", "search", "tune")
        for earlier in chain[:chain.index(producer)]:
            assert main([earlier, "--config", config, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        code = main([command, "--config", config, "--out", str(out)])
        assert code == EXIT_ERROR
        assert f"missing artifact {missing} (run the {producer} stage first)\n" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2

    def test_bad_strategy_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--strategy", "psychic"])
        assert excinfo.value.code == 2

    def test_simulate_requires_synthetic(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "x")]) == EXIT_ERROR
        assert "synthetic" in capsys.readouterr().err

    def test_config_error_is_reported_not_raised(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_ERROR
        assert "bogus" in capsys.readouterr().err


def write_counts(path: Path, matrix: ingest.ExpressionMatrix, newline: str) -> None:
    """``write_matrix_csv``'s CRLF file, or for LF a plain grid of integer counts."""
    if newline == "\r\n":
        write_matrix_csv(path, matrix)
    else:
        rows = [",".join(matrix.gene_names)] + [",".join(map(str, row)) for row in matrix.values.astype(int).tolist()]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("command", ["run", "encode"])
@pytest.mark.parametrize("newline", ["\r\n", "\n"])
def test_every_file_is_read_before_a_panel_gene_is_looked_up(tmp_path, capsys, command, newline):
    """A parse error in co_ct2 is reported by ingest, with no warning line, before
    mono_ct1's missing panel gene.  Once co_ct2 parses, mono_ct1's zero-total warning
    comes first, then encode names the gene."""
    config = "".join(f"{key} = {tmp_path / key}.csv\n" for key in MATRIX_KEYS)
    config += "ct1_genes = a, b\nct2_genes = d, e\nstrategy = local\n"
    cfg = write_config(tmp_path, config)
    counts = np.array([[1, 0, 2], [0, 0, 0], [3, 1, 0]])
    for key in MATRIX_KEYS:
        genes = ["x", "b", "c"] if key == "mono_ct1" else ["a", "b", "c"] if key.endswith("ct1") else ["d", "e", "f"]
        write_counts(tmp_path / f"{key}.csv", ingest.ExpressionMatrix(counts, genes), newline)
    co_ct2 = tmp_path / "co_ct2.csv"
    good = co_ct2.read_text(encoding="utf-8")
    co_ct2.write_text(good.replace("3,1,0", "3,q,0"), encoding="utf-8")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error in ingest: {co_ct2}: non-numeric value 'q' at row 4, column 'e'\n"
    co_ct2.write_text(good, encoding="utf-8")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err == ("WARNING qxtalk: mono_ct1: dropping 1 cell(s) with zero total count\n"
                                       "error in encode: gene 'a' from selection 'CT1' not present in matrix\n")


def run_child(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """``args`` through ``main`` in a fresh interpreter, as the benchmark starts a run."""
    env = {**os.environ, "PYTHONPATH": str(Path(qxtalk.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from qxtalk.cli import main; sys.exit(main())", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env(**variables: str) -> dict:
    """The caller's environment without OpenBLAS's thread-count variables, plus ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, "PYTHONPATH": str(Path(qxtalk.__file__).parents[1]), **variables}


def child_threads(code: str, cwd: Path, **variables: str) -> tuple[int, dict]:
    """A fresh child's thread count after ``code``, and which thread-count variables it then has."""
    report = (f"; import json, os; print(json.dumps([len(os.listdir('/proc/self/task')),"
              f" {{k: os.environ[k] for k in os.environ.keys() & {BLAS_THREAD_VARS!r}}}]))")
    proc = subprocess.run([sys.executable, "-c", code + report], capture_output=True, text=True,
                          env=blas_env(**variables), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.fixture(scope="module")
def numpy_threads(tmp_path_factory) -> int:
    """Threads of a bare ``import numpy`` child; the thread tests need OpenBLAS to start a worker."""
    if not sys.platform.startswith("linux"):
        pytest.skip("counts threads in /proc/self/task")
    threads = child_threads("import numpy", cwd=tmp_path_factory.mktemp("numpy"))[0]
    if threads == 1:
        pytest.skip("a bare numpy import starts no BLAS worker here")
    return threads


class TestExitPath:
    """What a process keeps once ``main`` has frozen every live object."""

    def test_child_run_prints_and_writes_what_an_in_process_run_does(self, tmp_path, capsys):
        child, here = tmp_path / "child", tmp_path / "here"
        proc = run_child("run", "--synthetic", "--out", str(child), cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(["run", "--synthetic", "--out", str(here)]) == EXIT_OK
        capsys.readouterr()
        *body, wall, written = proc.stdout.splitlines(keepends=True)
        assert "".join(body) == (child / "report.txt").read_text(encoding="utf-8")
        assert re.fullmatch(r"wall time: \d+\.\d\ds\n", wall)
        assert written == f"report written to {child / 'report.json'}\n"
        names = sorted(path.name for path in child.iterdir())
        assert names == sorted(path.name for path in here.iterdir())
        for name in names:
            if name != "report.json":
                assert (child / name).read_bytes() == (here / name).read_bytes(), name
        assert report_without_timing(child) == report_without_timing(here)

    def test_child_drops_empty_cells_with_one_warning_line(self, tmp_path):
        """Cells with a zero total count leave one stderr line and the run of the inputs
        without them; ``write_matrix_csv``'s CRLF files take the text path."""
        self.check_empty_cells_are_dropped(tmp_path, "\r\n")

    def test_child_drops_empty_cells_of_an_lf_count_grid(self, tmp_path):
        """The same from LF count grids, which take the digit scanner."""
        self.check_empty_cells_are_dropped(tmp_path, "\n")

    @staticmethod
    def check_empty_cells_are_dropped(tmp_path, newline):
        rng = np.random.default_rng(5)
        # The third gene is off both panels; its count of at least 1 keeps every drawn cell's total above 0.
        counts = {key: rng.poisson(1.0, size=(24, 3)) + np.array([0.0, 0.0, 1.0]) for key in MATRIX_KEYS}
        config = "".join(f"{key} = {key}.csv\n" for key in MATRIX_KEYS) + "ct1_genes = a, b\nct2_genes = d, e\nstrategy = local\n"
        runs = {}
        for name, zeros in (("clean", []), ("zeros", [0, 9, 24])):
            cwd = tmp_path / name
            cwd.mkdir()
            for key, values in counts.items():
                if key == "mono_ct1":
                    values = np.insert(values, zeros, 0.0, axis=0)
                genes = ["a", "b", "c"] if key.endswith("ct1") else ["d", "e", "f"]
                write_counts(cwd / f"{key}.csv", ingest.ExpressionMatrix(values, genes), newline)
            (cwd / "run.cfg").write_text(config, encoding="utf-8")
            runs[name] = run_child("run", "--config", "run.cfg", "--out", "out", cwd=cwd)
            assert runs[name].returncode == EXIT_OK, runs[name].stderr
        assert runs["clean"].stderr == ""
        assert runs["zeros"].stderr == "WARNING qxtalk: mono_ct1: dropping 3 cell(s) with zero total count\n"
        stdout = {name: re.sub(r"wall time: .*\n", "", proc.stdout) for name, proc in runs.items()}
        assert stdout["zeros"] == stdout["clean"]
        clean, zeros = (tmp_path / name / "out" for name in runs)
        names = sorted(path.name for path in clean.iterdir())
        assert names == sorted(path.name for path in zeros.iterdir())
        for name in names:
            if name != "report.json":
                assert (clean / name).read_bytes() == (zeros / name).read_bytes(), name
        assert report_without_timing(clean) == report_without_timing(zeros)

    def test_child_import_leaves_logging_unloaded(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(qxtalk.__file__).parents[1])}
        code = "import sys, qxtalk.cli; print('logging' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_child_import_starts_no_blas_worker(self, numpy_threads, tmp_path):
        assert child_threads("import qxtalk.cli", cwd=tmp_path) == (1, {})

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_child_import_keeps_a_thread_count_the_caller_sets(self, numpy_threads, tmp_path, name):
        threads, env = child_threads("import qxtalk.cli", cwd=tmp_path, **{name: "2"})
        assert (threads, env) == (child_threads("import numpy", cwd=tmp_path, **{name: "2"})[0], {name: "2"})

    def test_child_import_after_numpy_changes_nothing(self, numpy_threads, tmp_path):
        assert child_threads("import numpy, qxtalk.cli", cwd=tmp_path) == (numpy_threads, {})

    def test_child_subprocess_after_import_sees_the_callers_environment(self, numpy_threads, tmp_path):
        code = "import subprocess, sys, qxtalk; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
        probe = f"import os; print(sorted(os.environ.keys() & {BLAS_THREAD_VARS!r}))"
        proc = subprocess.run([sys.executable, "-c", code, probe], capture_output=True, text=True,
                              env=blas_env(), cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_child_error_exits_one_without_a_traceback(self, tmp_path):
        proc = run_child("run", "--synthetic", "--kl-tol", "nan", "--out", str(tmp_path / "nan"), cwd=tmp_path)
        assert proc.returncode == EXIT_ERROR
        assert "error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_in_process_main_leaves_the_collector_working(self, tmp_path):
        gc.unfreeze()
        assert main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert gc.get_freeze_count() > 0
        assert gc.isenabled()

        class Node:
            pass

        node = Node()
        node.self = node
        alive = weakref.ref(node)
        del node
        gc.collect()
        assert alive() is None
