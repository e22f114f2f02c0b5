"""Per-layer tracing of one in-process `qxtalk run`, from outside the program.

Run as ``python3 qxbench/tracing.py SPANS.npz run --config CFG``: it wraps
every public function of the eight ``qxtalk`` modules under every name it is
bound to in the package (``cost.evaluate`` is also ``search.evaluate``,
``tune.evaluate`` and ``cli.evaluate``), calls ``qxtalk.cli.main`` with the
remaining arguments, and writes the recorded spans to SPANS.npz when the run
ends.  A span is a function id, its parent span, its start and end, whether
it returned, and one number taken from its arguments or result where a
metric needs it.  ``layer_metrics`` turns a spans file into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("synth", "ingest", "prune", "qsim", "cost", "search", "tune", "cli")
SOLVER_MODES = ("annealing", "vqe", "qaoa", "exact")


def _solver_mode(args, kwargs, result):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    return SOLVER_MODES.index(mode) if mode in SOLVER_MODES else -1


# Numbers kept per span for the metrics below: fn(args, kwargs, result or None).
OBSERVERS = {
    "search.solve_qubo_heuristic": _solver_mode,
    "tune.minimize_simplex": lambda args, kwargs, result: result[2] if result else -1,
    "search.order_selected": lambda args, kwargs, result: result.evaluations if result else -1,
}


class Tracer:
    """Spans in flat arrays, so a run of a million calls stays small."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.value = array("d")
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.ok.append(0)
            self.value.append(-1.0)
            stack.append(idx)
            result = None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                self.ok[idx] = 1
                return result
            finally:
                self.end[idx] = clock()
                stack.pop()
                if observe is not None:
                    self.value[idx] = observe(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap each public function of MODULES wherever the package binds it."""
        package = importlib.import_module("qxtalk")
        modules = [importlib.import_module(f"qxtalk.{m}") for m in MODULES]
        bindings = [package] + modules
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{module.__name__.split('.')[-1]}.{attr}", fn)
                for holder in bindings:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, traced)

    def save(self, path: Path, wall_s: float) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            ok=np.frombuffer(self.ok, dtype=np.int8),
            value=np.frombuffer(self.value, dtype=np.float64),
            wall_s=wall_s,
        )


class Spans:
    """A saved spans file with the queries the metrics need."""

    def __init__(self, path: Path):
        with np.load(path) as data:
            self.names = list(data["names"])
            self.fid = data["fid"]
            self.parent = data["parent"]
            self.dur = data["end"] - data["start"]
            self.ok = data["ok"]
            self.value = data["value"]
            self.wall_s = float(data["wall_s"])

    def members(self, *names: str) -> np.ndarray:
        """Boolean mask of the spans of the given functions."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.fid, ids)

    def under(self, *names: str) -> np.ndarray:
        """Boolean mask of the spans with an ancestor among the given functions."""
        group = self.members(*names)
        found = np.zeros(self.fid.size, dtype=bool)
        anc = self.parent.copy()
        while (live := anc >= 0).any():
            found[live] |= group[anc[live]]
            anc[live] = self.parent[anc[live]]
        return found

    def count(self, *names: str) -> int:
        return int(self.members(*names).sum())

    def seconds(self, *names: str) -> float:
        """Time inside the given functions, counting nested calls among them once."""
        outer = self.members(*names) & ~self.under(*names)
        return float(self.dur[outer].sum())

    def self_seconds_by_module(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed per module."""
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child], minlength=self.fid.size)
        own = np.bincount(self.fid, weights=self.dur - covered, minlength=len(self.names))
        out: dict[str, float] = {}
        for name, seconds in zip(self.names, own):
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + float(seconds)
        return out


def layer_metrics(spans: Spans, report: dict, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by the names in BENCHMARK.json."""
    search_fns = [n for n in spans.names if n.startswith("search.")]
    search_s = spans.seconds(*search_fns)
    gate_calls = spans.count("qsim.apply_gate")
    eval_calls = spans.count("cost.evaluate")
    evaluate = spans.members("cost.evaluate")
    in_solver = spans.members("tune.minimize_simplex") & spans.under("search.solve_qubo_heuristic")
    order = spans.members("search.order_selected") & ~spans.under("search.order_selected")
    return {
        "synth.simulate_calls": spans.count("synth.simulate"),
        "ingest.matrices_s": spans.seconds("synth.simulate", "ingest.load_matrix"),
        "ingest.encode_s": spans.seconds(
            "ingest.log_normalize", "ingest.binarize", "ingest.amplitudes", "ingest.target_distribution"
        ),
        "prune.s": spans.seconds("prune.delta_rho", "prune.extract_candidates"),
        "prune.candidates": len(report["candidates"]),
        "qsim.apply_gate_calls": gate_calls,
        "qsim.apply_gate_us": 1e6 * spans.seconds("qsim.apply_gate") / max(gate_calls, 1),
        "cost.evaluate_calls": eval_calls,
        "cost.evaluate_us": 1e6 * spans.seconds("cost.evaluate") / max(eval_calls, 1),
        "search.s": search_s,
        "search.evaluations": report["search"]["evaluations"],
        "search.evals_per_s": report["search"]["evaluations"] / search_s,
        "search.kl_matrix_pct": 100.0 * spans.seconds("search.build_kl_matrix") / search_s,
        "search.solver_pct": 100.0 * spans.seconds("search.solve_qubo_heuristic") / search_s,
        "search.solver_evals": int(spans.value[in_solver].sum()),
        "search.order_pct": 100.0 * spans.seconds("search.order_selected") / search_s,
        "search.order_evaluations": int(spans.value[order].sum()),
        "tune.optimize_s": spans.seconds("tune.optimize_angles"),
        "tune.optimize_calls": spans.count("tune.optimize_angles"),
        "tune.optimize_evals": int((evaluate & spans.under("tune.optimize_angles")).sum()),
        "tune.ablate_s": spans.seconds("tune.contribution_analysis"),
        "tune.ablate_evals": int((evaluate & spans.under("tune.contribution_analysis")).sum()),
        "cli.write_s": spans.seconds("cli.write_report_files", "cli.write_trace", "cli.write_matrix_csv"),
        "cli.artifact_mib": artifact_bytes / 2**20,
    }


def solver_calls(spans: Spans) -> list[tuple[str, bool]]:
    """(mode, returned) for every call of search.solve_qubo_heuristic."""
    mask = spans.members("search.solve_qubo_heuristic")
    return [
        (SOLVER_MODES[int(v)] if v >= 0 else "?", bool(ok))
        for v, ok in zip(spans.value[mask], spans.ok[mask])
    ]


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("qxtalk.cli")
    started = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - started
    tracer.save(spans_path, wall)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
