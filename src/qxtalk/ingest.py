"""Expression-matrix ingestion and amplitude encoding.

Cells arrive as rows of a delimited text matrix whose header names the
genes.  A per-cell-type gene selection is binarized (a gene is "active"
when its raw count is strictly positive; library-size normalization by
:func:`log_normalize` keeps that sign for count data), per-cell activity
bitstrings are tallied into a state histogram, and the counts are
L2-normalized into real amplitudes.  Squaring the amplitudes yields the
target probability mass per activity state; note this weights states by
squared counts rather than by relative frequency.

A run reads each count file for its panel (``load_matrix(..., genes=...)``):
it holds only the panel's columns of the cells with a nonzero total, so its
memory grows with cells x panel genes, not with cells x genes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from ._bits import bitstring_to_index, index_to_bitstring, is_integer

MAX_GENES_PER_TYPE = 8


@dataclass(eq=False, repr=False)
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
        low, high = (self.values.min(), self.values.max()) if self.values.size else (0.0, 0.0)
        if not (np.isfinite(low) and np.isfinite(high)):  # NaN propagates into both
            raise ValueError("expression values must be finite")
        if low < 0:
            raise ValueError("expression values must be non-negative")


@dataclass(eq=False, repr=False)
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


@dataclass(repr=False)
class StateHistogram:
    """Counts of observed activity bitstrings over ``num_genes`` genes."""

    num_genes: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not is_integer(self.num_genes) or self.num_genes <= 0:
            raise ValueError(f"num_genes must be a positive integer, got {self.num_genes!r}")
        for key, count in self.counts.items():
            if len(key) != self.num_genes:
                raise ValueError(f"histogram key {key!r} does not have length {self.num_genes}")
            bitstring_to_index(key)  # validates characters
            if not is_integer(count):
                raise ValueError(f"count for state {key!r} must be an integer, got {count!r}")
            if count < 0:
                raise ValueError(f"negative count for state {key!r}")

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(eq=False, repr=False)
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


@dataclass(eq=False, repr=False)
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


def _parse_header(path: str, line: str, delimiter: str | None) -> tuple[str, list[str]]:
    """The delimiter and the gene names of the header line; raises for a bad header."""
    delim = delimiter if delimiter is not None else ("\t" if "\t" in line else ",")
    header = [name.strip() for name in line.split(delim)]
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
    return delim, header


# Each digit place costs the scanner one gather over the wider fields, so
# it loses to np.loadtxt on wide fields: on grids whose every field has the
# same width, it is faster up to 4 digits, even at 5 and slower from 6 on
# (BENCH_9.json).
# Counts of up to 4 digits take the scanner; their digit sums are exact in
# float64.
_MAX_GRID_DIGITS = 4
# Rows are converted in blocks of about this many bytes, so the temporaries
# stay small next to the (rows, fields) result.
_GRID_BLOCK_BYTES = 1 << 16
_NEWLINE = ord("\n")
_ZERO = ord("0")


def _workspace(size: int) -> tuple[np.ndarray, ...]:
    """The temporaries of :func:`_scan_block` for blocks of up to ``size`` bytes.  One set
    serves every block of a grid: made anew per block, they are freed at the top of the
    heap, which glibc can return to the kernel, and each block faults them in again."""
    return tuple(np.empty(size, dtype) for dtype in (np.uint8, bool, bool, bool, np.intp))


def _scan_block(chars: np.ndarray, sep: int, n_fields: int, work: tuple[np.ndarray, ...], dest: np.ndarray,
                cols: list[int] | None = None, nonzero: np.ndarray | None = None) -> int | None:
    """Write the integers of a block of whole rows, ending in a newline, into
    the first rows of ``dest``, a (rows, fields) array, with the temporaries
    ``work`` (a :func:`_workspace`); returns how many rows were written, or
    None unless every row is ``n_fields`` fields of 1-4 ASCII digits joined by ``sep``.

    With ``cols``, only the fields of those columns are written, and
    ``nonzero`` takes one flag per row: whether any of its digits is
    nonzero, that is whether its total count is above 0.
    """
    digits, newline, is_end, flags, span = (array[: len(chars)] for array in work)
    np.equal(chars, _NEWLINE, out=newline)
    np.equal(chars, sep, out=is_end)
    is_end |= newline
    ends = np.flatnonzero(is_end)
    np.subtract(chars, _ZERO, out=digits)  # bytes below '0' wrap past 9
    if np.count_nonzero(np.less(digits, 10, out=flags)) != len(chars) - len(ends):
        return None
    rows = np.count_nonzero(newline)
    if rows * n_fields != len(ends) or not newline[ends[n_fields - 1 :: n_fields]].all():
        return None
    # A field and its end byte span the gap from the previous end: one byte for an
    # empty field (a separator that opens the block or follows another).
    span = span[: len(ends)]
    span[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=span[1:])
    if span.min() < 2 or span.max() > _MAX_GRID_DIGITS + 1:
        return None
    if cols is not None:
        # The digits 1-9: the bytes flagged as digits whose value is not 0.
        row_starts = np.concatenate(([0], ends[n_fields - 1 : -1 : n_fields] + 1))
        nonzero[:rows] = np.logical_or.reduceat(np.logical_and(flags, digits, out=flags), row_starts)
        ends = ends.reshape(rows, n_fields)[:, cols].ravel()
        span = span.reshape(rows, n_fields)[:, cols].ravel()
    ends -= 1  # the last digit of each field
    out = dest[:rows].reshape(-1)
    out[:] = digits[ends]
    place = 1  # the fields with a digit at this place span more than place + 1 bytes
    wider = np.flatnonzero(span > place + 1)
    while wider.size:
        out[wider] += digits[ends[wider] - place] * 10.0**place
        place += 1
        wider = wider[span[wider] > place + 1]
    return rows


def _scan_grid(data: bytes, start: int, delim: str, n_fields: int,
               cols: list[int] | None = None) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``data[start:]`` as a (rows, n_fields) float64 array when it is a plain
    grid of unsigned integers (see :func:`load_matrix`), else None.

    With ``cols`` the array holds only those columns, and comes with a
    (rows,) flag of the rows whose total count is above 0 (None without).
    Every byte is checked either way.

    The last row is read first, so a body that ends in a row that is not plain
    (a blank line, a decimal, a wide count) falls back before any block is
    scanned and before the result is made.  A plain row takes at least two
    bytes per field (the last row may lack its newline), which bounds the
    rows; the pages of rows a body does not fill are never touched.
    """
    end = len(data)
    if start >= end or not delim.isascii() or delim in "0123456789\r\n":
        return None
    sep = ord(delim)
    width = n_fields if cols is None else len(cols)
    tail = max(start, data.rfind(b"\n", start, end - 1) + 1)
    chars = np.frombuffer(data, dtype=np.uint8, count=end - tail, offset=tail)
    if chars[-1] != _NEWLINE:  # the last row has no final newline
        chars = np.append(chars, np.uint8(_NEWLINE))
    last, last_nonzero = np.empty((1, width)), np.empty(1, dtype=bool)
    work = _workspace(max(len(chars), min(tail - start, _GRID_BLOCK_BYTES)))
    if _scan_block(chars, sep, n_fields, work, last, cols, last_nonzero) is None:
        return None
    values = np.empty(((end - start + 1) // (2 * n_fields), width), dtype=np.float64)
    nonzero = None if cols is None else np.empty(len(values), dtype=bool)
    rows = 0
    while start < tail:
        stop = tail if tail - start <= _GRID_BLOCK_BYTES else data.rfind(b"\n", start, start + _GRID_BLOCK_BYTES) + 1
        if stop <= start:  # a row longer than a block
            stop = data.find(b"\n", start) + 1
        chars = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
        if len(chars) > len(work[0]):  # a row longer than the workspace
            work = _workspace(len(chars))
        scanned = _scan_block(chars, sep, n_fields, work, values[rows:], cols, None if cols is None else nonzero[rows:])
        if scanned is None:
            return None
        rows += scanned
        start = stop
    values[rows] = last[0]
    if cols is None:
        return values[: rows + 1], None
    nonzero[rows] = last_nonzero[0]
    return values[: rows + 1], nonzero[: rows + 1]


def _header_line(head: bytes) -> str | None:
    """``head``, the bytes before the first newline, decoded when the text
    path would take them unchanged as the header: UTF-8 (a leading byte-order
    mark dropped), no CR, not blank."""
    if b"\r" in head:
        return None
    try:
        line = head.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    return line if line.strip() else None


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


def _load_text(path: str, data: bytes, delimiter: str | None) -> ExpressionMatrix:
    """Parse ``data`` as text, line by line, with numpy's C reader."""
    # Decoded and split into lines exactly as a text-mode open(encoding="utf-8-sig") of the file.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ValueError(f"{path}: file is empty")
    delim, header = _parse_header(path, lines[0], delimiter)
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


def load_matrix(path: str, delimiter: str | None = None,
                genes: list[str] | None = None) -> ExpressionMatrix | tuple[ExpressionMatrix, int]:
    """Read a delimited text matrix (header row = gene names, one row per cell).

    ``delimiter=None`` auto-detects tab vs comma from the header line; an
    explicit delimiter must be one character.  A leading UTF-8 byte-order
    mark is dropped.  Blank lines are skipped and row numbers count
    non-blank lines.  Parse failures report the offending row/column.

    A raw count matrix whose first line is the header and whose body is a
    plain grid (only ASCII digits, the delimiter and LF; every row exactly
    one field per gene; every field 1-4 digits, so counts up to 9999; the
    final newline optional) is converted by a block-wise digit scan of the
    bytes.  Every other body (decimals, exponents, signs, spaces, CR, blank
    lines, a label column, a count of 5 or more digits) is parsed by
    numpy's C text reader, with no comment character.  Both give the same
    values and the same errors for the same file.

    With ``genes``, the result is what :func:`select_panel` makes of the
    whole matrix, a (matrix, cells left out) pair, and the whole file is
    still checked as above.  The digit scan then converts only the panel's
    columns and flags the rows with a nonzero digit, so no cells x genes
    array is made.
    """
    if delimiter is not None and len(delimiter) != 1:
        raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ValueError(f"expression matrix file not found: {path}") from None
    first = data.find(b"\n")
    line = _header_line(data[:first]) if first >= 0 else None
    scanned = None
    if line is not None:
        # A bad header is reported by the text path, which decodes the whole
        # file first and so raises for invalid UTF-8 anywhere before it.
        try:
            delim, header = _parse_header(path, line, delimiter)
        except ValueError:
            pass
        else:
            cols = None if genes is None else [header.index(gene) for gene in genes if gene in header]
            scanned = _scan_grid(data, first + 1, delim, len(header), cols)
    if scanned is None:
        matrix = _load_text(path, data, delimiter)
        return matrix if genes is None else select_panel(matrix, genes)
    values, nonzero = scanned
    if genes is None:
        return ExpressionMatrix(values=values, gene_names=header)
    panel = ExpressionMatrix(values=values[nonzero], gene_names=[header[col] for col in cols])
    return panel, len(nonzero) - int(np.count_nonzero(nonzero))


def select_panel(matrix: ExpressionMatrix, genes: list[str]) -> tuple[ExpressionMatrix, int]:
    """The columns of those of ``genes`` that ``matrix`` names, in the order
    of ``genes``, over the cells whose total count is above 0, and the
    number of cells left out.

    A gene the matrix lacks is left out too, so :func:`binarize` names it.
    """
    keep = matrix.values.sum(axis=1) > 0
    cols = [matrix.gene_names.index(gene) for gene in genes if gene in matrix.gene_names]
    panel = ExpressionMatrix(values=matrix.values[:, cols][keep], gene_names=[matrix.gene_names[col] for col in cols])
    return panel, len(keep) - int(np.count_nonzero(keep))


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
