"""Command-line pipeline: config handling, staged artifacts, full runs."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qxtalk.cli import (
    EXIT_ERROR,
    EXIT_OK,
    MATRIX_KEYS,
    RunConfig,
    build_parser,
    encode_inputs,
    env_overrides,
    gate_from_dict,
    gate_to_dict,
    main,
    parse_config_file,
    resolve_config,
    run_strategy,
)
from qxtalk import ingest, synth
from qxtalk._kernel import Kernel
from qxtalk.cost import Problem
from qxtalk.ingest import TargetDistribution
from qxtalk.prune import CandidateSet
from qxtalk.qsim import GateSpec, RegisterLayout, StateVector

SMALL_CONFIG = """\
# four-qubit benchmark slice, kept small for fast runs
synthetic = true
ct1_genes = g50, g90
ct2_genes = g60, g70
strategy = local
seed = 0
"""


DEFAULT_LOCAL_CONFIG = """\
synthetic = true
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
    enc = encode_inputs(matrices, ct1, ct2)
    for key, values in kept.items():
        normalized = ingest.log_normalize(ingest.ExpressionMatrix(values, matrices[key].gene_names))
        assert enc.histograms[key] == ingest.binarize(normalized, ct1 if key.endswith("ct1") else ct2)


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
        assert report["timing"]["wall_time_s"] > 0
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
        a = json.loads((out_a / "report.json").read_text(encoding="utf-8"))
        b = json.loads((out_b / "report.json").read_text(encoding="utf-8"))
        for report in (a, b):
            report.pop("timing")
            report["config"].pop("out")
        assert a == b


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

    # On the default six-qubit tissue, local search at seed 0 is a case where
    # zero-start tuning lands above the searched cost and the guard re-tunes.
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(SMALL_CONFIG, id="small"),
            pytest.param(DEFAULT_LOCAL_CONFIG, id="default-local"),
            pytest.param(TWELVE_QUBIT_CONFIG, id="twelve-qubit"),
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
    ],
)
def test_size_caps_fail_before_any_score(tmp_path, capsys, monkeypatch, case, limit):
    """Every size cap fails with an error naming its limit before a circuit is scored."""
    scored = []
    divergences = Kernel.divergences

    def counting(self, states):
        scored.append(len(states))
        return divergences(self, states)

    monkeypatch.setattr(Kernel, "divergences", counting)
    if isinstance(case, tuple):  # a search over a given number of candidates
        strategy, count = case
        pairs = [(c, t) for c in range(6) for t in range(6) if c != t][:count]
        with pytest.raises(ValueError, match=limit):
            run_strategy(_candidate_problem(), CandidateSet(pairs, 0.01), RunConfig(strategy=strategy))
    else:  # a whole run of the synthetic pipeline
        config = write_config(tmp_path, "synthetic = true\n" + case + "\n")
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert re.search(limit, capsys.readouterr().err)
    assert scored == []


class TestMissingArtifacts:
    @pytest.mark.parametrize(
        "command,missing,producer",
        [
            ("encode", "mono_ct1.csv", "simulate"),
            ("prune", "encoded.json", "encode"),
            ("search", "encoded.json", "encode"),
            ("tune", "topology.json", "search"),
            ("ablate", "topology.json", "search"),
        ],
    )
    def test_error_names_producer_stage(self, tmp_path, capsys, command, missing, producer):
        config = write_config(tmp_path)
        out = tmp_path / "empty"
        out.mkdir()
        if command in ("tune", "ablate"):
            # give them the encode artifact so the topology check is reached
            assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
            assert main(["encode", "--config", config, "--out", str(out)]) == EXIT_OK
        code = main([command, "--config", config, "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert missing in err
        assert producer in err


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
