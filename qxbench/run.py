"""Benchmark of `qxtalk run` on two workloads.

    python3 qxbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qxbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Every pipeline run is a fresh
``qxtalk run`` process (``src/`` on ``PYTHONPATH``), started one at a time
from this process.  A run of the benchmark starts whole pipeline runs until
``--seconds`` have passed, at least one.  It times a run of ``calibrate.py``
before each, and a set-up probe before every ``SETUP_PROBE_EVERY``-th of them
(at least ``SETUP_MIN_PROBES``, each after its own ``calibrate.py`` run), so
all three samples spread over the same window.  Every pipeline run is checked against the independent reference in
``reference.py``; the first one also drives the checker's self-test.  All
runs of one invocation must write the same artifacts.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, medians over the pipeline runs and set-up probes; each
time is first scaled by the ``calibrate.py`` run just before it, to a host on
which ``calibrate.py`` takes ``CALIBRATION_S``.
With ``--trace 1`` each pipeline run is traced in process by ``tracing.py`` and the
object holds the per-layer metrics instead.  ``--workload all`` runs every
workload untraced and traced, prints both sets of metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".qxbench"
SETUP_MIN_PROBES = 5
# A probe of files10-qaoa parses all four CSVs again, about half a pipeline run;
# probing before every other run leaves more pipeline runs in the window.
SETUP_PROBE_EVERY = 2
# The shared host runs everything up to 1.9 times slower for minutes at a
# time.  run_s and setup_s are given in seconds of a host on which
# calibrate.py takes this long: each wall time is multiplied by
# CALIBRATION_S / (wall time of the calibrate.py run just before it), and the
# metric is the median of the products.  Pairing each sample with its own
# calibrate.py run follows the host's drift within a run of the benchmark.
CALIBRATION_S = 0.5
# A pipeline run is killed after this long, and no new one starts once a run
# of the benchmark has used this much, so every run ends within 180 s.
CHILD_TIMEOUT_S = 150.0
CLI_MAIN = "import sys; from qxtalk.cli import main; sys.exit(main())"
FALLBACK_MESSAGE = "falling back to annealing"


def child_env() -> dict:
    """The caller's environment without QXTALK_* overrides, with the checkout's sources."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QXTALK_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    seconds: float
    peak_rss_mib: float
    code: int
    stdout: str
    stderr: str


def spawn(argv: list[str], logdir: Path) -> Child:
    """Run one process to its end; wall time from spawn to exit and its own peak RSS."""
    logdir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logdir / "stdout.txt", logdir / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        seconds=seconds,
        # ru_maxrss is in KiB on Linux, and covers this child alone.
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def artifact_hash(outdir: Path) -> str:
    """Hash of every artifact, without report.json's timing and the config's out path."""
    digest = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("timing", None)
            report["config"].pop("out", None)
            data = json.dumps(report, sort_keys=True).encode("utf-8")
        digest.update(path.relative_to(outdir).as_posix().encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest()


@dataclass
class Round:
    """One pipeline run and what its checks found."""

    child: Child
    # Wall time of the calibrate.py run just before this pipeline run.
    calibration_s: float
    failed: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    report: dict | None = None
    digest: str = ""
    layers: dict | None = None
    traced_wall_s: float = 0.0
    self_s_by_module: dict | None = None


@dataclass
class Result:
    workload: str
    traced: bool
    rounds: list[Round]
    setup_s: list[float]
    # Wall time of the calibrate.py run just before each set-up probe.
    setup_calibration_s: list[float]
    problems: list[str]

    @property
    def good(self) -> list[Round]:
        return [r for r in self.rounds if not r.failed]

    @property
    def correct(self) -> bool:
        return not self.problems and not any(r.wrong for r in self.good)


class Bench:
    def __init__(self, name: str, seed: int):
        self.workload = workloads.WORKLOADS[name]
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = workloads.prepare(self.workload, seed, self.dir)
        # Arguments of the set-up probe, which builds the same Problem and CandidateSet.
        self.probe_spec = self.dir / "probe.json"
        self.probe_spec.write_text(json.dumps({
            "synthetic": self.workload.synthetic,
            "ct1_genes": self.inputs.ct1_genes,
            "ct2_genes": self.inputs.ct2_genes,
            "threshold": self.workload.threshold,
            "matrices": {key: str(path) for key, path in self.inputs.matrices.items()},
        }), encoding="utf-8")
        self._reference = None

    def reference(self) -> reference.Reference:
        """The independent computation; synthetic inputs are re-read from each run's CSVs."""
        if self._reference is None or self.workload.synthetic:
            inp = self.inputs
            self._reference = reference.Reference(inp.matrices, inp.ct1_genes, inp.ct2_genes, self.workload.threshold)
        return self._reference

    def setup_probe(self, index: int) -> tuple[float, list]:
        """Seconds of one set-up probe and the candidates it found."""
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.probe_spec)]
        child = spawn(argv, self.dir / "logs" / f"setup{index}")
        if child.code != 0:
            raise RuntimeError(f"set-up probe exited {child.code}: {child.stderr.strip()}")
        return child.seconds, json.loads(child.stdout.strip().splitlines()[-1])

    def calibrate(self, index: int) -> float:
        """Seconds of one run of the host-speed probe."""
        child = spawn([sys.executable, str(HERE / "calibrate.py")], self.dir / "logs" / f"calibrate{index}")
        if child.code != 0:
            raise RuntimeError(f"calibrate.py exited {child.code}: {child.stderr.strip()}")
        return child.seconds

    def pipeline_round(self, index: int, traced: bool, calibration_s: float) -> Round:
        out = self.inputs.outdir
        shutil.rmtree(out, ignore_errors=True)
        spans = self.dir / "spans.npz"
        cli_args = ["run", "--config", str(self.inputs.config)]
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans)] + cli_args
        else:
            argv = [sys.executable, "-c", CLI_MAIN] + cli_args
        rnd = Round(child=spawn(argv, self.dir / "logs" / f"run{index}"), calibration_s=calibration_s)
        if rnd.child.code != 0:
            rnd.failed.append(f"qxtalk run exited {rnd.child.code}: {rnd.child.stderr.strip()[-500:]}")
            return rnd
        rnd.report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rnd.wrong, rnd.failed = reference.check_run(out, self.reference(), self.workload.intercellular_required)
        rnd.digest = artifact_hash(out)
        if self.workload.qaoa_required and FALLBACK_MESSAGE in rnd.child.stderr:
            rnd.failed.append("the QAOA solver fell back to annealing")
        if traced:
            recorded = tracing.Spans(spans)
            size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            rnd.layers = tracing.layer_metrics(recorded, rnd.report, size)
            rnd.self_s_by_module = recorded.self_seconds_by_module()
            rnd.traced_wall_s = recorded.wall_s
            calls = tracing.solver_calls(recorded)
            if self.workload.qaoa_required and (
                ("qaoa", True) not in calls or any(mode == "annealing" for mode, _ in calls)
            ):
                rnd.failed.append(f"solve_qubo_heuristic calls {calls}: expected qaoa, returned, no annealing")
        return rnd

    def run(self, seconds: float, traced: bool) -> Result:
        started = time.perf_counter()
        # Compile the package once, so no timed process pays for writing bytecode.
        warm = spawn([sys.executable, "-c", "import qxtalk.cli"], self.dir / "logs" / "warm")
        if warm.code != 0:
            raise RuntimeError(f"cannot import qxtalk from {SRC}: {warm.stderr.strip()}")
        if not self.workload.synthetic:
            self.reference()  # parse the generated inputs before the measured window
        problems: list[str] = []
        rounds: list[Round] = []
        probes: list[tuple[float, list, float]] = []
        calibrations = 0
        tested = False
        measuring = time.perf_counter()
        while not rounds or time.perf_counter() - measuring < seconds:
            if rounds and time.perf_counter() - started + rounds[-1].child.seconds > CHILD_TIMEOUT_S:
                break
            calibration_s = self.calibrate(calibrations)
            calibrations += 1
            if len(rounds) % SETUP_PROBE_EVERY == 0:
                probes.append(self.setup_probe(len(probes)) + (calibration_s,))
            rounds.append(self.pipeline_round(len(rounds), traced, calibration_s))
            if not tested and not rounds[-1].failed:
                tested = True
                problems += reference.self_test(self.inputs.outdir, self._reference,
                                                self.workload.intercellular_required, self.dir / "selftest")
        while len(probes) < SETUP_MIN_PROBES:
            calibration_s = self.calibrate(calibrations)
            calibrations += 1
            probes.append(self.setup_probe(len(probes)) + (calibration_s,))
        good = [r for r in rounds if not r.failed]
        if good:
            if len({r.digest for r in good}) != 1:
                problems.append("pipeline runs of one invocation wrote different artifacts")
            if any(c != good[0].report["candidates"] for _, c, _ in probes):
                problems.append("the set-up probe found other candidates than the run")
        return Result(self.workload.name, traced, rounds, [s for s, _, _ in probes],
                      [c for _, _, c in probes], problems)


def wall_s(result: Result) -> float:
    """Median wall time of the good pipeline runs, as measured."""
    return statistics.median(r.child.seconds for r in result.good)


def host_factor(result: Result) -> float:
    """How much slower than the reference host this run's host ran, over the whole run."""
    return statistics.median(r.calibration_s for r in result.rounds) / CALIBRATION_S


def scaled_median(seconds: list[float], calibration_s: list[float]) -> float:
    """Median of wall times, each scaled by the calibrate.py run just before it."""
    return statistics.median(s * CALIBRATION_S / c for s, c in zip(seconds, calibration_s))


def run_s(result: Result) -> float:
    good = result.good
    return scaled_median([r.child.seconds for r in good], [r.calibration_s for r in good])


def end_to_end(result: Result) -> dict[str, float]:
    good = result.good
    report = good[0].report
    return {
        "run_s": run_s(result),
        "setup_s": scaled_median(result.setup_s, result.setup_calibration_s),
        "peak_rss_mib": statistics.median(r.child.peak_rss_mib for r in good),
        "searched_kl": report["search"]["cost"]["total"],
        "tuned_kl": report["tuned"]["cost"]["total"],
    }


def per_layer(result: Result) -> dict[str, float]:
    layers = [r.layers for r in result.good]
    return {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}


def metric_specs(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def summarize(result: Result) -> dict:
    """The result object of one run, after printing its metrics one per line."""
    kind = "per_layer" if result.traced else "end_to_end"
    units = metric_specs(kind)
    values = per_layer(result) if result.traced else end_to_end(result)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"[{result.workload}] {'traced' if result.traced else 'untraced'}: "
          f"{len(result.rounds)} pipeline runs attempted, {len(result.rounds) - len(result.good)} failed")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print("  pipeline run wall times (s): " + " ".join(f"{r.child.seconds:.3f}" for r in result.rounds))
    print("  calibrate.py before each (s): " + " ".join(f"{r.calibration_s:.3f}" for r in result.rounds))
    print("  set-up probe wall times (s): " + " ".join(f"{s:.3f}" for s in result.setup_s))
    print("  calibrate.py before each (s): " + " ".join(f"{s:.3f}" for s in result.setup_calibration_s))
    print(f"  host factor {host_factor(result):.3f}; wall-time medians as measured: pipeline run "
          f"{wall_s(result):.3f} s, set-up probe {statistics.median(result.setup_s):.3f} s")
    if result.traced:
        own = statistics.median(r.traced_wall_s for r in result.good)
        print(f"  traced cli.main wall {own:.3f} s; self time by module (last run):")
        for module, seconds in result.good[-1].self_s_by_module.items():
            print(f"    {module:10s} {seconds:10.4f} s")
    for rnd in result.rounds:
        for line in rnd.failed + rnd.wrong:
            print(f"  ! {line}")
    for line in result.problems:
        print(f"  ! {line}")
    return {
        "correct": result.correct,
        "attempted": len(result.rounds),
        "failed": len(result.rounds) - len(result.good),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of qxtalk run.")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so a running pipeline process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qxtalk" / "cli.py").is_file():
        print(f"error: no qxtalk sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    summary = {}
    for name in names:
        for traced in modes:
            result = Bench(name, args.seed).run(args.seconds, traced)
            if not result.good:
                print(f"error: every pipeline run of {name} failed", file=sys.stderr)
                for rnd in result.rounds:
                    print("\n".join(rnd.failed), file=sys.stderr)
                return 1
            if traced and len(modes) == 2 and result.good[0].digest != digest:
                result.problems.append("the traced run wrote other artifacts than the untraced run")
            digest = result.good[0].digest
            summary.setdefault(name, {})["trace" if traced else "run"] = summarize(result)
            if traced and len(modes) == 2:
                # Both sides scaled by their own calibrate.py runs, as run_s is.
                walls = run_s(result)
                base = summary[name]["run"]["metrics"]["run_s"]["value"]
                print(f"  tracing overhead: {walls:.3f} s traced vs {base:.3f} s untraced "
                      f"({100.0 * (walls / base - 1.0):+.1f}%)")
                summary[name]["tracing_overhead_pct"] = 100.0 * (walls / base - 1.0)
    if args.workload == "all":
        print(json.dumps(summary))
    else:
        print(json.dumps(summary[args.workload]["trace" if args.trace else "run"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
