"""Matrix loading, normalization, binarization and amplitude encoding."""

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qxtalk import ingest
from qxtalk.ingest import (
    MAX_GENES_PER_TYPE,
    AmplitudeVector,
    ExpressionMatrix,
    GeneSelection,
    StateHistogram,
    TargetDistribution,
    amplitudes,
    binarize,
    load_matrix,
    log_normalize,
    target_distribution,
)


def write(tmp_path, text, name="matrix.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadMatrix:
    def test_basic_csv(self, tmp_path):
        path = write(tmp_path, "gA,gB,gC\n1,2,3\n0,5,0\n")
        m = load_matrix(path)
        assert m.gene_names == ["gA", "gB", "gC"]
        assert m.values.shape == (2, 3)
        assert m.values[1, 1] == 5.0

    def test_tsv_sniffed(self, tmp_path):
        path = write(tmp_path, "gA\tgB\n1\t2\n", name="matrix.tsv")
        m = load_matrix(path)
        assert m.gene_names == ["gA", "gB"]
        assert m.values[0, 1] == 2.0

    def test_explicit_delimiter(self, tmp_path):
        path = write(tmp_path, "gA;gB\n1;2\n")
        m = load_matrix(path, delimiter=";")
        assert m.gene_names == ["gA", "gB"]

    def test_row_label_column_tolerated(self, tmp_path):
        path = write(tmp_path, "gA,gB\ncell_0,1,2\ncell_1,3,4\n")
        m = load_matrix(path)
        assert m.values.shape == (2, 2)
        assert m.values[1, 0] == 3.0

    def test_leading_unnamed_index_column(self, tmp_path):
        path = write(tmp_path, ",gA,gB\nc0,1,2\nc1,3,4\n")
        m = load_matrix(path)
        assert m.gene_names == ["gA", "gB"]
        assert m.values[0, 1] == 2.0

    def test_duplicate_gene_reports_both_columns(self, tmp_path):
        path = write(tmp_path, "gA,gB,gA\n1,2,3\n")
        with pytest.raises(ValueError, match="duplicate gene"):
            load_matrix(path)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = write(tmp_path, "gA,gB\n1,2\n1,2,3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_matrix(path)

    def test_labeled_row_with_an_extra_field_rejected(self, tmp_path):
        path = write(tmp_path, "gA,gB\nc0,1,2\nc1,3,4,5\n")
        with pytest.raises(ValueError, match="row 3 has 4 fields, expected 3"):
            load_matrix(path)

    def test_non_numeric_reports_row_and_gene(self, tmp_path):
        path = write(tmp_path, "gA,gB\n1,huh\n")
        with pytest.raises(ValueError, match="row 2.*'gB'"):
            load_matrix(path)

    def test_negative_value_rejected(self, tmp_path):
        path = write(tmp_path, "gA,gB\n1,-2\n")
        with pytest.raises(ValueError, match=r"negative value at row 2, column 'gB'"):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValueError, match="file is empty"):
            load_matrix(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "gA,gB\n")
        with pytest.raises(ValueError, match="no cell rows"):
            load_matrix(path)

    def test_blank_only_file_is_empty(self, tmp_path):
        path = write(tmp_path, "\n  \n\t\n")
        with pytest.raises(ValueError, match="file is empty"):
            load_matrix(path)

    def test_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_bytes(b"gA,gB\r\n\r\n1,2\r\n  \r\n3,4\r\n")
        m = load_matrix(str(path))
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_hash_in_a_field_is_data(self, tmp_path):
        path = write(tmp_path, "gA,gB\n1,2\n3,4#note\n")
        with pytest.raises(ValueError, match=r"non-numeric value '4#note' at row 3, column 'gB'"):
            load_matrix(path)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        path = write(tmp_path, "gA,gB\n1,x\n1,2,3\n")
        with pytest.raises(ValueError, match=r"non-numeric value 'x' at row 2"):
            load_matrix(path)

    @pytest.mark.parametrize("literal", ["1_000", "\u0661", "\uff11"])
    def test_literals_numpy_does_not_read_are_non_numeric(self, tmp_path, literal):
        # Python's float() reads these; the matrix parser does not.
        path = write(tmp_path, f"gA,gB\n1,2\n{literal},4\n")
        with pytest.raises(ValueError, match=rf"non-numeric value '{literal}' at row 3, column 'gA'"):
            load_matrix(path)

    def test_multi_character_delimiter_rejected(self, tmp_path):
        path = write(tmp_path, "gA;;gB\n1;;2\n")
        with pytest.raises(ValueError, match="single character"):
            load_matrix(path, delimiter=";;")


class TestLogNormalize:
    def test_median_scaling_and_log1p(self):
        m = ExpressionMatrix(values=np.array([[2.0, 0.0], [4.0, 4.0]]), gene_names=["a", "b"])
        out = log_normalize(m)
        # library sizes 2 and 8, median 5 -> scales 2.5 and 0.625
        assert out.values[0, 0] == pytest.approx(np.log1p(5.0))
        assert out.values[0, 1] == 0.0
        assert out.values[1, 0] == pytest.approx(np.log1p(2.5))

    def test_equal_libraries_unscaled(self):
        m = ExpressionMatrix(values=np.array([[1.0, 3.0], [3.0, 1.0]]), gene_names=["a", "b"])
        out = log_normalize(m)
        assert np.allclose(out.values, np.log1p(m.values))

    def test_zero_cell_reports_row(self):
        m = ExpressionMatrix(values=np.array([[1.0, 1.0], [0.0, 0.0]]), gene_names=["a", "b"])
        with pytest.raises(ValueError, match="row 2"):
            log_normalize(m)


class TestBinarize:
    def test_bitstring_tallies(self):
        # cells: (a on, b off), (a on, b on), (both off), (a on, b on)
        values = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 0.0], [5.0, 3.0]])
        m = ExpressionMatrix(values=values, gene_names=["a", "b"])
        h = binarize(m, GeneSelection(cell_type_label="T", genes=["a", "b"]))
        assert h.num_genes == 2
        assert h.counts == {"10": 1, "11": 2, "00": 1}
        assert h.total() == 4

    def test_gene_order_defines_bit_order(self):
        values = np.array([[1.0, 0.0]])
        m = ExpressionMatrix(values=values, gene_names=["a", "b"])
        h_ab = binarize(m, GeneSelection(cell_type_label="T", genes=["a", "b"]))
        h_ba = binarize(m, GeneSelection(cell_type_label="T", genes=["b", "a"]))
        assert h_ab.counts == {"10": 1}
        assert h_ba.counts == {"01": 1}

    def test_missing_gene(self):
        m = ExpressionMatrix(values=np.array([[1.0]]), gene_names=["a"])
        with pytest.raises(ValueError, match="not present"):
            binarize(m, GeneSelection(cell_type_label="T", genes=["zz"]))

    def test_subset_selection(self):
        values = np.array([[1.0, 9.0, 0.0], [0.0, 9.0, 2.0]])
        m = ExpressionMatrix(values=values, gene_names=["a", "b", "c"])
        h = binarize(m, GeneSelection(cell_type_label="T", genes=["a", "c"]))
        assert h.counts == {"10": 1, "01": 1}


class TestAmplitudeEncoding:
    def test_three_four_five(self):
        h = StateHistogram(num_genes=1, counts={"0": 3, "1": 4})
        a = amplitudes(h)
        assert np.allclose(a.amplitudes, [0.6, 0.8])

    def test_counts_weighted_by_squares_not_frequencies(self):
        # squared-count weighting: P(1) = 16/25, not the frequency 4/7
        h = StateHistogram(num_genes=1, counts={"0": 3, "1": 4})
        q = target_distribution(h)
        assert q.probabilities[1] == pytest.approx(0.64)
        assert q.probabilities[0] == pytest.approx(0.36)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            counts = {}
            for i in rng.choice(1 << d, size=rng.integers(1, 1 << d), replace=False):
                counts[format(int(i), f"0{d}b")[::-1]] = int(rng.integers(1, 50))
            a = amplitudes(StateHistogram(num_genes=d, counts=counts))
            assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            amplitudes(StateHistogram(num_genes=1, counts={}))

    def test_state_placement_is_little_endian(self):
        # bitstring "01" = gene0 off, gene1 on -> basis index 2
        h = StateHistogram(num_genes=2, counts={"01": 1})
        a = amplitudes(h)
        assert a.amplitudes[2] == 1.0


class TestValidation:
    def test_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(values=np.array([[np.nan]]), gene_names=["a"])

    @pytest.mark.parametrize(
        "values, message",
        [
            ([[np.nan]], "finite"),
            ([[1.0, np.inf]], "finite"),
            ([[-np.inf, 1.0]], "finite"),
            ([[1.0, -1.0]], "non-negative"),
            ([[-1.0, np.nan]], "finite"),  # the finite check comes first
            ([[np.nan, -1.0]], "finite"),
        ],
    )
    def test_matrix_value_messages(self, values, message):
        with pytest.raises(ValueError, match=f"^expression values must be {message}$"):
            ExpressionMatrix(values=np.array(values), gene_names=["a", "b"][: len(values[0])])

    def test_matrix_without_rows_passes(self):
        assert ExpressionMatrix(values=np.empty((0, 2)), gene_names=["a", "b"]).values.shape == (0, 2)

    def test_matrix_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(values=np.zeros((1, 2)), gene_names=["a", "a"])

    def test_selection_size_cap(self):
        genes = [f"g{i}" for i in range(MAX_GENES_PER_TYPE + 1)]
        with pytest.raises(ValueError):
            GeneSelection(cell_type_label="T", genes=genes)

    def test_selection_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GeneSelection(cell_type_label="T", genes=["a", "a"])

    def test_selection_rejects_empty(self):
        with pytest.raises(ValueError):
            GeneSelection(cell_type_label="T", genes=[])

    def test_histogram_key_length_checked(self):
        with pytest.raises(ValueError):
            StateHistogram(num_genes=2, counts={"011": 1})

    def test_histogram_key_chars_checked(self):
        with pytest.raises(ValueError):
            StateHistogram(num_genes=2, counts={"0x": 1})

    def test_histogram_negative_count(self):
        with pytest.raises(ValueError):
            StateHistogram(num_genes=1, counts={"0": -1})

    def test_amplitude_vector_requires_unit_norm(self):
        with pytest.raises(ValueError):
            AmplitudeVector(num_qubits=1, amplitudes=np.array([1.0, 1.0]))

    def test_amplitude_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            AmplitudeVector(num_qubits=1, amplitudes=np.array([-0.6, 0.8]))

    def test_target_distribution_sums_to_one(self):
        with pytest.raises(ValueError):
            TargetDistribution(num_qubits=1, probabilities=np.array([0.3, 0.3]))


def per_cell_load_matrix(path, delimiter=None):
    """The per-cell parser ``load_matrix`` replaced, kept as a reference."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ValueError(f"{path}: file is empty")
    delim = delimiter if delimiter is not None else ("\t" if "\t" in lines[0] else ",")
    header = [name.strip() for name in lines[0].split(delim)]
    if header and header[0] == "":
        header = header[1:]
    rows = []
    labeled = len(lines) > 1 and len(lines[1].split(delim)) == len(header) + 1
    expected_fields = len(header) + (1 if labeled else 0)
    for row_no, line in enumerate(lines[1:], start=2):
        fields = line.split(delim)
        if len(fields) != expected_fields:
            raise ValueError(
                f"{path}: row {row_no} has {len(fields)} fields, expected {expected_fields}"
            )
        if labeled:
            fields = fields[1:]
        parsed = np.empty(len(header), dtype=np.float64)
        for col, raw in enumerate(fields):
            try:
                parsed[col] = float(raw)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {raw.strip()!r} at row {row_no}, column {header[col]!r}"
                ) from None
        rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no cell rows found")
    values = np.vstack(rows)
    if values.min() < 0:
        bad = np.argwhere(values < 0)[0]
        raise ValueError(
            f"{path}: negative value at row {int(bad[0]) + 2}, column {header[int(bad[1])]!r}"
        )
    return ExpressionMatrix(values=values, gene_names=header)


def _outcome(loader, path):
    try:
        m = loader(path)
    except ValueError as exc:
        return "error", str(exc)
    return m.values.tobytes(), m.gene_names


_cell_text = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.floats(0, 1e3, allow_nan=False).map(lambda v: f"{v:.3e}"),
    st.sampled_from([" 7 ", "+3", ".5", "5.", "1E2", "-0.0"]),
)


# Unsigned integers, leading zeros included: up to the widest the scanner
# takes, one digit wider, or 16 digits.
_integer_texts = st.sampled_from(
    [ingest._MAX_GRID_DIGITS, ingest._MAX_GRID_DIGITS, ingest._MAX_GRID_DIGITS + 1, 16]
).map(lambda width: st.text(alphabet="0123456789", min_size=1, max_size=width))


@st.composite
def matrix_texts(draw):
    """Matrix files of every kind the parser reads or rejects.

    Half of them are count grids: integer cells only, LF line ends, no label
    column and no blank lines, the final newline optional, and at most one
    other cell, in the last row.
    """
    n_genes = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 6))
    delim = draw(st.sampled_from([",", "\t"]))
    counts = draw(st.booleans())
    labeled = not counts and draw(st.booleans())
    header = [f"g{i}" for i in range(n_genes)]
    if labeled and draw(st.booleans()):
        header = [""] + header
    cell = draw(_integer_texts) if counts else _cell_text
    rows = [draw(st.lists(cell, min_size=n_genes, max_size=n_genes)) for _ in range(n_rows)]
    # At most one value that parses but is not a valid expression level.
    specials = st.sampled_from(["-2", "-0.5", "-inf", "inf", "nan"])
    special = draw(st.none() | (specials | _cell_text if counts else specials))
    if special is not None:
        row = n_rows - 1 if counts else draw(st.integers(0, n_rows - 1))
        rows[row][draw(st.integers(0, n_genes - 1))] = special
    if labeled:
        rows = [[f"cell{r}"] + row for r, row in enumerate(rows)]
    lines = [delim.join(header)] + [delim.join(row) for row in rows]
    if counts:
        return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


def is_plain_grid(text):
    """Whether ``load_matrix`` should take ``text`` by the digit scanner:
    a header line, then rows of one field of 1 to ``_MAX_GRID_DIGITS`` digits
    per gene, LF line ends, the final newline optional."""
    head, _, body = text.partition("\n")
    delim = "\t" if "\t" in head else ","
    names = head.split(delim)
    n_fields = len(names) - (names[0].strip() == "")
    field = f"[0-9]{{1,{ingest._MAX_GRID_DIGITS}}}"
    row = rf"(?:{field}{re.escape(delim)}){{{n_fields - 1}}}{field}"
    return (
        "\r" not in head
        and bool(head.strip())
        and re.fullmatch(rf"(?:{row}\n)*{row}\n?", body) is not None
    )


def _outcome_and_path(path, text):
    """The outcome of ``load_matrix``, after checking that it took the scanner
    exactly when ``text`` is a plain grid."""
    with mock.patch.object(ingest, "_load_text", wraps=ingest._load_text) as text_path:
        outcome = _outcome(load_matrix, path)
    assert text_path.called != is_plain_grid(text)
    return outcome


def _write_temp(text):
    handle = tempfile.NamedTemporaryFile("wb", suffix=".csv", delete=False)
    with handle:
        handle.write(text.encode("utf-8"))
    return handle.name


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=matrix_texts())
def test_load_matrix_matches_per_cell_parser(text):
    path = _write_temp(text)
    try:
        outcome = _outcome_and_path(path, text)
        assert outcome == _outcome(per_cell_load_matrix, path)
    finally:
        Path(path).unlink()


@pytest.mark.parametrize(
    "text",
    [
        "gA,gB\n1,2\n3,4",  # no final newline
        "gA,gB\n111\n222\n",  # two one-field rows hold as many fields as one full row
        "gA,gB\n1,2,3\n4\n",
        "gA,gB\n1,2\n3,4,\n",
        "gA,gB\n,2\n",
        "gA,gB\n1,,2\n",
        "gA,gB\n1,2\n\n",
        "\ngA,gB\n1,2\n",
        "gA,gB\r\n1,2\n",
        "gA,gB\n1,2\r\n",
        "gA,gB\n1, 2\n",
        "gA,gB\n1,+2\n",
        ",gA,gB\n1,2\n3,4\n",  # an empty first header field
        ",gA,gB\n0,1,2\n",  # a numeric label column
        "gA\n" + "9999\n" * 3,
        "gA\n" + "0001\n0\n10000\n",  # one count too wide for the scanner
        "gA\n" + "123456789012345\n" * 3,
    ],
)
def test_near_grids_match_the_per_cell_parser(tmp_path, text):
    path = tmp_path / "matrix.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome_and_path(str(path), text) == _outcome(per_cell_load_matrix, str(path))


@pytest.mark.parametrize(
    "data",
    [
        b"gA,gA\n\xff\n",  # a bad header before invalid UTF-8
        b"gA,gB\n1,\xff\n",
        b"gA,gB\n1,2\n" + b"3,4\n" * 5000 + b"\xff\n",  # beyond the first decoded chunk
        b"\xffgA,gB\n1,2\n",
    ],
)
def test_invalid_utf8_is_reported_like_the_per_cell_parser(tmp_path, data):
    path = tmp_path / "matrix.csv"
    path.write_bytes(data)
    assert _outcome(load_matrix, str(path)) == _outcome(per_cell_load_matrix, str(path))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    text=matrix_texts(),
    bad=st.sampled_from(["x", "1..2", "", " ", "1#", "#1", "--1", "0x10", "'3'", "1_0", "\u0661"]),
    row=st.integers(0, 10**6),
    col=st.integers(0, 10**6),
)
@example(text="g0\n0\n0\n", bad="", row=0, col=0)
def test_one_bad_cell_is_named_like_the_per_cell_parser(text, bad, row, col):
    newline = "\r\n" if text.endswith("\r\n") else "\n"
    lines = text.split(newline)
    nonblank = [i for i, line in enumerate(lines) if line.strip()]
    delim = "\t" if "\t" in lines[nonblank[0]] else ","
    genes = [name for name in lines[nonblank[0]].split(delim) if name]
    row = nonblank[1:][row % (len(nonblank) - 1)]
    fields = lines[row].split(delim)
    # Gene columns are the last len(genes) fields; a label column comes first.
    fields[len(fields) - 1 - col % len(genes)] = bad
    lines[row] = delim.join(fields)
    path = _write_temp(newline.join(lines))
    try:
        outcome = _outcome(load_matrix, path)
        if bad in ("1_0", "\u0661"):
            # float() reads these literals; the matrix parser rejects them
            # exactly where the per-cell parser rejects any other non-number.
            fields[len(fields) - 1 - col % len(genes)] = "x"
            lines[row] = delim.join(fields)
            Path(path).write_text(newline.join(lines), encoding="utf-8")
        expected = _outcome(per_cell_load_matrix, path)
        if expected[0] != "error":
            # Blanking the only cell of a row leaves a blank line, which both parsers skip.
            assert outcome == expected
        else:
            assert outcome == ("error", expected[1].replace("'x'", repr(bad)))
    finally:
        Path(path).unlink()


def test_blank_lines_after_the_first_block_do_not_size_the_result():
    # A plain first block, then blank lines: each would count as a row, so the
    # (rows, fields) result would be sized far past what the file can fill.
    rows = b"1,2\n" * (ingest._GRID_BLOCK_BYTES // 4 + 1)
    data = b"gA,gB\n" + rows + b"\n" * (10 * ingest._GRID_BLOCK_BYTES)
    with mock.patch.object(ingest.np, "empty", wraps=np.empty) as empty:
        assert ingest._scan_grid(data, data.index(b"\n") + 1, ",", 2) is None
    assert max(np.prod(call.args[0]) for call in empty.call_args_list) <= ingest._GRID_BLOCK_BYTES


@pytest.mark.parametrize("bad", ["1,,33", ",22,33", "1,22,"])
def test_an_empty_field_after_the_first_block_is_named_like_the_per_cell_parser(tmp_path, bad):
    row = "1,22,33\n"
    first = ingest._GRID_BLOCK_BYTES // len(row)  # rows that fill the first block exactly
    text = "gA,gB,gC\n" + row * first + bad + "\n" + row * first
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    scanned = []
    scan = ingest._scan_block
    with mock.patch.object(ingest, "_scan_block", side_effect=lambda *args: scanned.append(scan(*args)) or scanned[-1]):
        outcome = _outcome_and_path(str(path), text)
    # The last row and the first block scan; the second block, which opens
    # with the bad row, is where the scan falls back.
    assert scanned == [1, first, None]
    assert outcome == _outcome(per_cell_load_matrix, str(path))
    assert outcome[0] == "error" and "non-numeric value '' at row" in outcome[1]


@pytest.mark.parametrize("shape", [(3000, 40), (3, 30000)])
@pytest.mark.parametrize("last_field", [None, "2.5", "12345", "1234567890123456"])
def test_load_matrix_over_many_blocks_matches_loadtxt(tmp_path, shape, last_field):
    # 3000 x 40 spans several scanner blocks; 30000 fields make rows longer than one.
    rng = np.random.default_rng(shape[0])
    counts = rng.integers(0, 10 ** rng.integers(1, ingest._MAX_GRID_DIGITS + 1, size=shape))
    path = tmp_path / "counts.csv"
    names = ",".join(f"g{i}" for i in range(shape[1]))
    np.savetxt(path, counts, fmt="%d", delimiter=",", header=names, comments="")
    text = path.read_text()
    if last_field is not None:
        # The one field that sends the file back to the text reader, in its last block.
        text = text[: text.rstrip("\n").rfind(",") + 1] + last_field + "\n"
        path.write_text(text)
    outcome = _outcome_and_path(str(path), text)
    expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert outcome == (expected.tobytes(), names.split(","))


def _panel_outcome(path, genes):
    """``load_matrix``'s panel read: its values, gene names and cells left out, or its error."""
    try:
        panel, dropped = load_matrix(path, genes=genes)
    except ValueError as exc:
        return "error", str(exc)
    return panel.values.shape, panel.values.tobytes(), panel.gene_names, dropped


def _selected_outcome(path, genes):
    """The same from the whole matrix: the columns of the panel genes it names,
    then the cells whose total count is above 0."""
    try:
        m = load_matrix(path)
    except ValueError as exc:
        return "error", str(exc)
    cols = [m.gene_names.index(gene) for gene in genes if gene in m.gene_names]
    keep = m.values.sum(axis=1) > 0
    values = m.values[:, cols][keep]
    return values.shape, values.tobytes(), [m.gene_names[col] for col in cols], int(len(keep) - keep.sum())


_zero_fields = st.sampled_from(["0", "00", "000", "0000"])
_count_fields = _zero_fields | st.sampled_from(["0010", "0001", "1", "9999"]) | st.text("0123456789", min_size=1, max_size=4)


@st.composite
def panel_cases(draw):
    """A count grid whose rows often total 0, a panel of its genes and maybe one
    it lacks, and a scanner block size.  Most grids get one change that sends
    them to the text path (CRLF, a decimal, a 5-digit count, a label column) or
    makes them fail (a bad field, a short row)."""
    n_genes = draw(st.integers(1, 6))
    header = [f"g{i}" for i in range(n_genes)]
    delim = draw(st.sampled_from([",", "\t"]))
    rows = [draw(st.lists(_zero_fields if draw(st.booleans()) else _count_fields, min_size=n_genes, max_size=n_genes))
            for _ in range(draw(st.integers(1, 10)))]
    change = draw(st.sampled_from([None, None, "crlf", "decimal", "wide", "label", "bad", "short"]))
    row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n_genes - 1))
    if change in ("decimal", "wide", "bad"):
        rows[row][col] = draw(st.sampled_from({"decimal": ["0.0", "2.5", "0e0", "1e2"], "wide": ["00000", "12345"],
                                               "bad": ["x", "", "-1", "nan"]}[change]))
    elif change == "short":
        rows[row] = rows[row][:-1] or ["1", "2"]
    lines = [delim.join(header)] + [delim.join(fields) for fields in rows]
    if change == "label":
        lines = [delim + lines[0]] + [f"c{i}{delim}{line}" for i, line in enumerate(lines[1:])]
    newline = "\r\n" if change == "crlf" else "\n"
    genes = draw(st.lists(st.sampled_from(header + ["zz"]), min_size=1, max_size=n_genes + 1, unique=True))
    block = draw(st.sampled_from([ingest._GRID_BLOCK_BYTES, 6, 16, 40]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), genes, block


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=panel_cases())
@example(case=("g0,g1,g2\n0,0,0\n1,0010,0\n0000,0,0\n", ["g2", "zz", "g0"], 1 << 16))
@example(case=("g0,g1,g2\r\n0,0,0\r\n1,0010,0\r\n0000,0,0\r\n", ["g2", "g0"], 1 << 16))
# A row that outgrows the block, and the workspace, after a first block of short rows.
@example(case=("g0,g1,g2,g3\n1,2,3,4\n1,2,3,4\n1111,2222,0,4444\n0,0,0,0\n", ["g3", "g0"], 16))
def test_panel_read_matches_selecting_from_the_whole_matrix(case):
    """The panel read equals the whole read, then the panel's columns, then the cells
    with a nonzero total: values, kept cells, the count left out and the exact error,
    on the scanner at any block size and on the text path."""
    text, genes, block = case
    path = _write_temp(text)
    try:
        with mock.patch.object(ingest, "_GRID_BLOCK_BYTES", block), \
                mock.patch.object(ingest, "_load_text", wraps=ingest._load_text) as text_path:
            outcome = _panel_outcome(path, genes)
        assert text_path.called != is_plain_grid(text)
        assert outcome == _selected_outcome(path, genes)
    finally:
        Path(path).unlink()


@pytest.mark.parametrize("zero_rows", [(0,), (3,), (4,), (3, 4), (7, 8), (9,), (0, 3, 4, 7, 8, 9), tuple(range(10))])
def test_zero_total_cells_at_block_edges(tmp_path, monkeypatch, zero_rows):
    """Rows of 8 bytes in blocks of 32: blocks hold rows 0-3, 4-7 and 8, and the
    last row, 9, is scanned first on its own."""
    monkeypatch.setattr(ingest, "_GRID_BLOCK_BYTES", 32)
    rows = ["0,0,0,0" if r in zero_rows else f"{r % 10},0,{r % 3},{9 - r}" for r in range(10)]
    path = tmp_path / "counts.csv"
    path.write_text("g0,g1,g2,g3\n" + "".join(row + "\n" for row in rows))
    blocks = []
    scan = ingest._scan_block
    monkeypatch.setattr(ingest, "_scan_block", lambda *args: blocks.append(scan(*args)) or blocks[-1])
    outcome = _panel_outcome(str(path), ["g3", "g0"])
    assert blocks == [1, 4, 4, 1]
    assert outcome == _selected_outcome(str(path), ["g3", "g0"])
    assert outcome[3] == len(zero_rows)
