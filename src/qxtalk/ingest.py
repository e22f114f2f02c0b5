"""Expression-matrix ingestion and amplitude encoding.

Cells arrive as rows of a delimited text matrix whose header names the
genes.  A per-cell-type gene selection is binarized (a gene is "active"
when its raw count is strictly positive; library-size normalization by
:func:`log_normalize` keeps that sign for count data), per-cell activity
bitstrings are tallied into a state histogram, and the counts are
L2-normalized into real amplitudes.  Squaring the amplitudes yields the
target probability mass per activity state; note this weights states by
squared counts rather than by relative frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._bits import bitstring_to_index, index_to_bitstring

MAX_GENES_PER_TYPE = 8


@dataclass
class ExpressionMatrix:
    """Non-negative cells x genes matrix with unique gene names."""

    values: np.ndarray
    gene_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("expression matrix must be 2-dimensional (cells x genes)")
        if self.values.shape[1] != len(self.gene_names):
            raise ValueError(
                f"matrix has {self.values.shape[1]} columns but {len(self.gene_names)} gene names"
            )
        if len(set(self.gene_names)) != len(self.gene_names):
            raise ValueError("gene names must be unique")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("expression values must be finite")
        if self.values.size and self.values.min() < 0:
            raise ValueError("expression values must be non-negative")


@dataclass
class GeneSelection:
    """Ordered gene panel for one cell type; gene i maps to qubit i of its register."""

    cell_type_label: str
    genes: list[str]

    def __post_init__(self):
        if not self.cell_type_label:
            raise ValueError("cell_type_label must be non-empty")
        if not 1 <= len(self.genes) <= MAX_GENES_PER_TYPE:
            raise ValueError(
                f"gene selection must contain 1..{MAX_GENES_PER_TYPE} genes, got {len(self.genes)}"
            )
        if len(set(self.genes)) != len(self.genes):
            raise ValueError("selected genes must be unique")


@dataclass
class StateHistogram:
    """Counts of observed activity bitstrings over ``num_genes`` genes."""

    num_genes: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_genes <= 0:
            raise ValueError("num_genes must be positive")
        for key, count in self.counts.items():
            if len(key) != self.num_genes:
                raise ValueError(f"histogram key {key!r} does not have length {self.num_genes}")
            bitstring_to_index(key)  # validates characters
            if count < 0:
                raise ValueError(f"negative count for state {key!r}")

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class AmplitudeVector:
    """Real, non-negative unit-norm amplitudes over the 2**num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        if self.amplitudes.size and self.amplitudes.min() < 0:
            raise ValueError("amplitudes must be non-negative")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitude vector norm {norm} deviates from 1 by more than 1e-12")


@dataclass
class TargetDistribution:
    """Probability vector over the 2**num_qubits activity states."""

    num_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if self.probabilities.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} probabilities, got {self.probabilities.shape}"
            )
        if self.probabilities.size and self.probabilities.min() < -1e-12:
            raise ValueError("probabilities must be non-negative")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")


def _sniff_delimiter(header: str) -> str:
    return "\t" if "\t" in header else ","


def _reads_as_number(raw: str) -> bool:
    """Whether numpy's text parser reads ``raw`` as a float.

    It reads what Python's ``float`` reads, less digit-group underscores
    (``1_000``) and non-ASCII digits.
    """
    text = raw.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _check_rows(path: str, body: list[str], delim: str, header: list[str], labeled: bool) -> None:
    """Raise for the first row with a wrong field count or a non-numeric cell."""
    expected_fields = len(header) + (1 if labeled else 0)
    for row_no, line in enumerate(body, start=2):
        fields = line.split(delim)
        if len(fields) != expected_fields:
            raise ValueError(
                f"{path}: row {row_no} has {len(fields)} fields, expected {expected_fields}"
            )
        for col, raw in enumerate(fields[1:] if labeled else fields):
            if not _reads_as_number(raw):
                raise ValueError(
                    f"{path}: non-numeric value {raw.strip()!r} at row {row_no}, column {header[col]!r}"
                )


def load_matrix(path: str, delimiter: str | None = None) -> ExpressionMatrix:
    """Read a delimited text matrix (header row = gene names, one row per cell).

    ``delimiter=None`` auto-detects tab vs comma from the header line; an
    explicit delimiter must be one character.  Blank lines are skipped
    and row numbers count non-blank lines.  The body is parsed by numpy's
    C reader, with no comment character; parse failures report the
    offending row/column.
    """
    if delimiter is not None and len(delimiter) != 1:
        raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    except FileNotFoundError:
        raise ValueError(f"expression matrix file not found: {path}") from None
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ValueError(f"{path}: file is empty")
    delim = delimiter if delimiter is not None else _sniff_delimiter(lines[0])
    header = [name.strip() for name in lines[0].split(delim)]
    # Tolerate a leading unnamed index column header.
    if header and header[0] == "":
        header = header[1:]
    if not header:
        raise ValueError(f"{path}: header row has no gene names")
    seen: dict[str, int] = {}
    for col, name in enumerate(header):
        if name in seen:
            raise ValueError(
                f"{path}: duplicate gene name {name!r} in header (columns {seen[name] + 1} and {col + 1})"
            )
        seen[name] = col
    body = lines[1:]
    if not body:
        raise ValueError(f"{path}: no cell rows found")
    # The first data row decides whether rows carry a leading label column;
    # every later row must then match that shape exactly.
    labeled = body[0].count(delim) == len(header)
    expected_fields = len(header) + (1 if labeled else 0)
    # Name the first offending row and cell, in file order.  numpy names
    # neither the gene nor a row with extra fields beyond ``usecols``.
    if any(line.count(delim) != expected_fields - 1 for line in body):
        _check_rows(path, body, delim, header, labeled)
    try:
        values = np.loadtxt(
            body,
            dtype=np.float64,
            delimiter=delim,
            comments=None,
            ndmin=2,
            usecols=range(1, len(header) + 1) if labeled else None,
        )
    except ValueError:
        _check_rows(path, body, delim, header, labeled)
        raise
    if values.min() < 0:
        bad = np.argwhere(values < 0)[0]
        raise ValueError(
            f"{path}: negative value at row {int(bad[0]) + 2}, column {header[int(bad[1])]!r}"
        )
    return ExpressionMatrix(values=values, gene_names=header)


def log_normalize(matrix: ExpressionMatrix) -> ExpressionMatrix:
    """Scale each cell to the median library size, then apply ln(1 + x)."""
    totals = matrix.values.sum(axis=1)
    zero_rows = np.flatnonzero(totals == 0)
    if zero_rows.size:
        raise ValueError(f"cell at row {int(zero_rows[0]) + 1} has zero total count")
    median = float(np.median(totals))
    scaled = matrix.values * (median / totals)[:, None]
    return ExpressionMatrix(values=np.log1p(scaled), gene_names=list(matrix.gene_names))


def binarize(matrix: ExpressionMatrix, selection: GeneSelection) -> StateHistogram:
    """Tally per-cell activity bitstrings over the selected genes (active iff value > 0)."""
    columns = []
    for gene in selection.genes:
        try:
            columns.append(matrix.gene_names.index(gene))
        except ValueError:
            raise ValueError(
                f"gene {gene!r} from selection {selection.cell_type_label!r} not present in matrix"
            ) from None
    active = matrix.values[:, columns] > 0
    d = len(selection.genes)
    indices = active @ (1 << np.arange(d, dtype=np.int64))
    tallies = np.bincount(indices, minlength=1 << d)
    counts = {
        index_to_bitstring(int(i), d): int(c) for i, c in enumerate(tallies) if c > 0
    }
    return StateHistogram(num_genes=d, counts=counts)


def amplitudes(histogram: StateHistogram) -> AmplitudeVector:
    """L2-normalize histogram counts into amplitudes: a_s = C(s) / sqrt(sum C(s')^2)."""
    if histogram.total() == 0:
        raise ValueError("cannot encode an empty histogram")
    vec = np.zeros(1 << histogram.num_genes, dtype=np.float64)
    for state, count in histogram.counts.items():
        vec[bitstring_to_index(state)] = count
    vec /= np.linalg.norm(vec)
    return AmplitudeVector(num_qubits=histogram.num_genes, amplitudes=vec)


def target_distribution(histogram: StateHistogram) -> TargetDistribution:
    """Squared-amplitude target mass per state: Q(s) = C(s)^2 / sum C(s')^2."""
    amps = amplitudes(histogram)
    return TargetDistribution(num_qubits=amps.num_qubits, probabilities=amps.amplitudes**2)
