"""Independent check of one `qxtalk run` output directory.

Everything here is recomputed with numpy from the four input matrices and the
gene panels, and nothing is imported from ``qxtalk``: not its simulator, its
cost, its pruning or its ingest code.  A gene is active in a cell when its
raw count is above 0, and only cells whose total is above 0 count.  Each
register's activity histogram is L2-normalised into amplitudes; the targets
are the squared-count distributions of the co-culture histograms.  Gene k of
a panel is bit k of its register, CT1 holds the low qubits and CT2 the high
ones.

``check_run`` compares the candidate list exactly, every KL value to
``KL_TOL`` and the artifacts with each other, and checks the properties the
benchmark requires of every run.  ``self_test`` shows that it rejects
tampered artifacts.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np

KL_TOL = 1e-9
SMOOTHING = 1e-9
MATRIX_KEYS = ("mono_ct1", "mono_ct2", "co_ct1", "co_ct2")
ARTIFACTS = ("report.json", "topology.json", "tuned.json", "edges.csv", "contributions.csv")


def load_counts(path: Path) -> tuple[list[str], np.ndarray]:
    """Gene names and the (cells, genes) matrix of a comma-separated file."""
    with open(path, encoding="utf-8") as fh:
        names = [name.strip() for name in fh.readline().rstrip("\n").split(",")]
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)
    return names, values


def histogram(names: list[str], values: np.ndarray, panel: list[str]) -> np.ndarray:
    """Cells per activity state of ``panel`` (gene k is bit k), over cells with a nonzero total."""
    cells = values[values.sum(axis=1) > 0]
    index = np.zeros(len(cells), dtype=np.int64)
    for k, gene in enumerate(panel):
        index |= (cells[:, names.index(gene)] > 0).astype(np.int64) << k
    return np.bincount(index, minlength=1 << len(panel)).astype(np.float64)


class Reference:
    """Encoded states, targets and candidates of one workload input."""

    def __init__(self, matrices: dict, ct1_genes: list[str], ct2_genes: list[str], threshold: float):
        self.genes = list(ct1_genes) + list(ct2_genes)
        self.n1, self.n2 = len(ct1_genes), len(ct2_genes)
        hist = {}
        for key in MATRIX_KEYS:
            names, values = load_counts(matrices[key])
            hist[key] = histogram(names, values, ct1_genes if key.endswith("ct1") else ct2_genes)
        amp = {key: h / np.linalg.norm(h) for key, h in hist.items()}
        # CT1 holds the low-order bits, so it is the fast index of the product.
        self.mono = np.kron(amp["mono_ct2"], amp["mono_ct1"])
        self.co = np.kron(amp["co_ct2"], amp["co_ct1"])
        self.target_ct1 = hist["co_ct1"] ** 2 / np.sum(hist["co_ct1"] ** 2)
        self.target_ct2 = hist["co_ct2"] ** 2 / np.sum(hist["co_ct2"] ** 2)
        self.candidates = self._candidates(threshold)

    def _candidates(self, threshold: float) -> list[list[int]]:
        """Pairs from single-bit-flip entries rho[r, c] = psi_r * psi_c above threshold.

        Entries are scanned row-major; a flip of bit t is gated by any other
        qubit set in both states, and pairs keep first-seen order.
        """
        n = self.n1 + self.n2
        rows = np.arange(1 << n)
        flips = rows[:, None] ^ (1 << np.arange(n))
        delta = self.co[:, None] * self.co[flips] - self.mono[:, None] * self.mono[flips]
        hot = np.abs(delta) > threshold
        pairs: list[list[int]] = []
        for r in np.flatnonzero(hot.any(axis=1)):
            for t in sorted(np.flatnonzero(hot[r]), key=lambda t: flips[r, t]):
                shared = int(r) & int(flips[r, t])
                for control in range(n):
                    pair = [control, int(t)]
                    if control != t and (shared >> control) & 1 and pair not in pairs:
                        pairs.append(pair)
        return pairs

    def kl(self, gates) -> tuple[float, float, float]:
        """(total, kl_ct1, kl_ct2) after CRX gates given as (control, target, angle)."""
        psi = self.mono.astype(np.complex128)
        index = np.arange(psi.size)
        for control, target, angle in gates:
            lo = index[((index >> control) & 1 == 1) & ((index >> target) & 1 == 0)]
            hi = lo | (1 << target)
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
            a0, a1 = psi[lo], psi[hi]
            psi[lo], psi[hi] = c * a0 - 1j * s * a1, -1j * s * a0 + c * a1
        probs = (np.abs(psi) ** 2).reshape(1 << self.n2, 1 << self.n1)
        kl1 = _kl(probs.sum(axis=0), self.target_ct1)
        kl2 = _kl(probs.sum(axis=1), self.target_ct2)
        return kl1 + kl2, kl1, kl2

    def register_of(self, gene: str) -> int:
        return 1 if self.genes.index(gene) < self.n1 else 2


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    p = p / p.sum()
    q = (q + SMOOTHING) / np.sum(q + SMOOTHING)
    keep = p > 0
    return float(np.sum(p[keep] * np.log(p[keep] / q[keep])))


def _close(label: str, got: float, want: float, errors: list[str]) -> None:
    if not abs(got - want) <= KL_TOL:
        errors.append(f"{label}: program {got!r}, reference {want!r}")


def _close_cost(label: str, cost: dict, want: tuple, errors: list[str]) -> None:
    for key, value in zip(("total", "kl_ct1", "kl_ct2"), want):
        _close(f"{label} {key}", cost[key], value, errors)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_run(outdir: Path, ref: Reference, intercellular_required: bool) -> tuple[list[str], list[str]]:
    """(mismatches, failed properties) of one run directory; both empty when it is right.

    A mismatch is an output that disagrees with the reference computation or
    with another artifact; a failed property makes the run count as failed.
    """
    wrong: list[str] = []
    failed: list[str] = []
    report = _load_json(outdir / "report.json")
    topo = _load_json(outdir / "topology.json")
    tuned = _load_json(outdir / "tuned.json")
    edges = _read_csv(outdir / "edges.csv")
    contributions = _read_csv(outdir / "contributions.csv")

    registers = report["registers"]
    if registers["ct1_genes"] + registers["ct2_genes"] != ref.genes:
        return [f"registers {registers} do not match the panel {ref.genes}"], failed
    if report["candidates"] != ref.candidates:
        wrong.append(f"candidates {report['candidates']} differ from reference {ref.candidates}")
    _close_cost("baseline", report["baseline"], ref.kl([]), wrong)

    gates = topo["topology"]
    if gates != report["search"]["topology"]:
        wrong.append("topology.json and report.json disagree on the searched gates")
    for gate in gates:
        if gate["kind"] != "CRX" or [gate["control"], gate["target"]] not in ref.candidates:
            failed.append(f"searched gate {gate} is not a CRX on a candidate pair")
    if len(gates) > report["config"]["max_depth"]:
        failed.append(f"{len(gates)} searched gates exceed max_depth {report['config']['max_depth']}")
    searched = ref.kl([(g["control"], g["target"], g["angle"]) for g in gates])
    _close_cost("searched", topo["cost"], searched, wrong)
    _close_cost("report searched", report["search"]["cost"], searched, wrong)

    angles = tuned["angles"]
    if angles != report["tuned"]["angles"] or len(angles) != len(gates):
        wrong.append("tuned.json angles disagree with report.json or with the gate count")
        return wrong, failed
    tuned_gates = [(g["control"], g["target"], a) for g, a in zip(gates, angles)]
    tuned_kl = ref.kl(tuned_gates)
    _close_cost("tuned", tuned["cost"], tuned_kl, wrong)
    _close_cost("report tuned", report["tuned"]["cost"], tuned_kl, wrong)

    b, s, t = report["baseline"]["total"], report["search"]["cost"]["total"], report["tuned"]["cost"]["total"]
    if not t <= s <= b:
        failed.append(f"expected tuned <= searched <= baseline, got {t!r}, {s!r}, {b!r}")

    rows = report["contributions"]["rows"]
    if len(rows) != len(gates) or len(contributions) != len(gates):
        wrong.append("the contribution table does not have one row per gate")
    else:
        for i, (row, line) in enumerate(zip(rows, contributions)):
            _close(f"contribution row {i + 1} kl_after_prefix", row["kl_after_prefix"],
                   ref.kl(tuned_gates[: i + 1])[0], wrong)
            if float(line["kl_delta"]) != row["kl_delta"] or float(line["angle"]) != angles[i]:
                wrong.append(f"contributions.csv row {i + 1} disagrees with report.json")
        _close("contribution deltas vs tuned - baseline", sum(r["kl_delta"] for r in rows), t - b, failed)

    if len(edges) != len(gates):
        wrong.append("edges.csv does not have one row per gate")
    else:
        for gate, angle, edge in zip(gates, angles, edges):
            source, target = ref.genes[gate["control"]], ref.genes[gate["target"]]
            regs = {ref.register_of(source), ref.register_of(target)}
            want = "intercellular" if len(regs) == 2 else f"intracellular-ct{regs.pop()}"
            if (edge["source"], edge["target"]) != (source, target) or float(edge["angle"]) != angle:
                wrong.append(f"edge {edge} disagrees with gate {source} -> {target} at {angle!r}")
            if edge["edge_class"] != want:
                failed.append(f"edge {source} -> {target} is classed {edge['edge_class']}, not {want}")
    if intercellular_required and not any(e["edge_class"] == "intercellular" for e in edges):
        failed.append("no intercellular gate in the learned network")
    return wrong, failed


def _edit_json(path: Path, edit) -> None:
    data = _load_json(path)
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


# Each tamper edits report.json and the artifact that repeats it alike, so that
# only the reference computation (or the CSVs) can see the change.
def _move_tuned_angle(outdir: Path) -> None:
    def edit(angles):
        angles[0] += 1e-3

    _edit_json(outdir / "tuned.json", lambda d: edit(d["angles"]))
    _edit_json(outdir / "report.json", lambda d: edit(d["tuned"]["angles"]))


def _swap_searched_gates(outdir: Path) -> None:
    """Swap two gates that do not commute (one's target is the other's control), if any.

    When every pair commutes, the first two gates are swapped; no final KL
    value changes then, but the contribution prefixes and edges.csv do.
    """
    gates = _load_json(outdir / "topology.json")["topology"]
    pairs = [(i, j) for i in range(len(gates)) for j in range(i + 1, len(gates))]
    i, j = next(
        ((i, j) for i, j in pairs
         if gates[i]["target"] == gates[j]["control"] or gates[j]["target"] == gates[i]["control"]),
        pairs[0],
    )

    def edit(seq):
        seq[i], seq[j] = seq[j], seq[i]

    _edit_json(outdir / "topology.json", lambda d: edit(d["topology"]))
    _edit_json(outdir / "report.json", lambda d: edit(d["search"]["topology"]))


def _drop_candidate(outdir: Path) -> None:
    _edit_json(outdir / "report.json", lambda d: d["candidates"].pop())


TAMPERS = {
    "untouched": None,
    "tuned angle moved by 1e-3": _move_tuned_angle,
    "two searched gates swapped": _swap_searched_gates,
    "one candidate dropped": _drop_candidate,
}


def self_test(outdir: Path, ref: Reference, intercellular_required: bool, scratch: Path) -> list[str]:
    """Problems found when checking tampered copies of a good run; empty when the checker works."""
    problems = []
    for name, tamper in TAMPERS.items():
        case = scratch / name.replace(" ", "_")
        shutil.rmtree(case, ignore_errors=True)
        case.mkdir(parents=True)
        for artifact in ARTIFACTS:
            shutil.copyfile(outdir / artifact, case / artifact)
        try:
            if tamper is not None:
                tamper(case)
        except IndexError:
            problems.append(f"self-test case '{name}': the run has too few gates or candidates to tamper with")
            continue
        wrong, failed = check_run(case, ref, intercellular_required)
        if (tamper is None) != (not wrong and not failed):
            verdict = "rejected" if tamper is None else "accepted"
            problems.append(f"self-test case '{name}': the checker {verdict} it")
    return problems
