import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rareclass import data
from rareclass.data import (DataError, Dataset, FeatureMatrix, column_stats,
                            correlation_matrix, load_delimited, load_secom)


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadSecom:
    def test_basic_load(self, tmp_path):
        data = _write(tmp_path / "d.txt", "1.0 2.0 NaN\n4.0 NaN 6.0\n")
        labels = _write(tmp_path / "l.txt", "-1 19/07/2008 11:55:00\n1 19/07/2008 12:32:00\n")
        d = load_secom(data, labels)
        assert d.n_rows == 2 and d.n_cols == 3
        assert list(d.labels) == [0, 1]
        assert np.isnan(d.features.values[0, 2])
        assert np.isnan(d.features.values[1, 1])
        assert d.features.values[1, 2] == 6.0

    def test_empty_data_file(self, tmp_path):
        data = _write(tmp_path / "d.txt", "")
        labels = _write(tmp_path / "l.txt", "-1 x\n")
        with pytest.raises(DataError, match="empty input"):
            load_secom(data, labels)

    def test_row_count_mismatch(self, tmp_path):
        data = _write(tmp_path / "d.txt", "\n".join("1.0 2.0" for _ in range(10)) + "\n")
        labels = _write(tmp_path / "l.txt", "\n".join("-1 ts" for _ in range(9)) + "\n")
        with pytest.raises(DataError, match="row-count mismatch"):
            load_secom(data, labels)

    def test_unparseable_token(self, tmp_path):
        data = _write(tmp_path / "d.txt", "1.0 oops\n")
        labels = _write(tmp_path / "l.txt", "-1 ts\n")
        with pytest.raises(DataError, match="unparseable"):
            load_secom(data, labels)

    def test_timestamped_label_lines_load_as_labels(self, tmp_path):
        data = _write(tmp_path / "d.txt", "1.0\n2.0\n")
        labels = _write(tmp_path / "l.txt", "-1 19/07/2008 11:55:00\n1 20/07/2008 00:01:00\n")
        d = load_secom(data, labels)
        assert list(d.labels) == [0, 1]


def _reference_load_secom(data_path, labels_path):
    """The token-by-token loader that `load_secom` replaced, kept as the
    oracle for its values and error texts."""
    rows = []
    with open(data_path) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            rows.append([math.nan if t == "NaN" else _reference_float(t, data_path, line_no)
                         for t in line.split()])
    if not rows:
        raise DataError(f"empty input: {data_path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{data_path}: inconsistent column counts {sorted(widths)}")
    labels = []
    with open(labels_path) as fh:
        for line_no, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] not in ("-1", "1"):
                raise DataError(f"{labels_path}:{line_no}: label must be -1 or 1, got {tokens[0]!r}")
            labels.append(0 if tokens[0] == "-1" else 1)
    if not labels:
        raise DataError(f"empty input: {labels_path}")
    if len(labels) != len(rows):
        raise DataError(f"row-count mismatch: {len(rows)} data rows vs {len(labels)} labels")
    values = np.array(rows, dtype=np.float64)
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])), np.array(labels))


def _reference_float(token, path, line_no):
    try:
        return float(token)
    except ValueError:
        raise DataError(f"{path}:{line_no}: unparseable numeric token {token!r}") from None


def _outcome(load, data_path, labels_path):
    """What a loader does with a file pair: the error text, or the bits."""
    try:
        d = load(data_path, labels_path)
    except DataError as e:
        return "error", str(e)
    return d.features.values.shape, d.features.values.tobytes(), d.labels.tobytes()


# a cell: NaN, or a float written as the sensor file (4 decimals), as repr
# (up to 17 significant digits), in exponent form, or with an explicit sign
_cell = st.one_of(
    st.just("NaN"),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(lambda x: st.sampled_from(
        [f"{x:.4f}", repr(x), f"{x:.16e}", f"{x:+.3E}", f"{x:.17g}"])),
    st.sampled_from(["-0.0", "0", "-0", "1e-320", "2.2250738585072014e-308",
                     "0.30000000000000004", "1.7976931348623157e+308", "nan", "-inf"]))


@st.composite
def _secom_text(draw, max_rows=6, max_cols=5):
    """A SECOM-format sensor file: whitespace-separated cells with runs of
    spaces and tabs, leading and trailing blanks, blank lines, and an
    optional final newline."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    sep = st.text(" \t", min_size=1, max_size=3)
    edge = st.text(" \t", max_size=2)
    lines = []
    for _ in range(n_rows):
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(edge))                 # a blank line
        cells = [draw(_cell) for _ in range(n_cols)]
        line = draw(edge)
        for k, c in enumerate(cells):
            line += (draw(sep) if k else "") + c
        lines.append(line + draw(edge))
    text = "\n".join(lines)
    return text + ("\n" if draw(st.booleans()) else ""), n_rows


def _write_pair(dir_path, text, n_labels):
    data_path, labels_path = dir_path / "d.data", dir_path / "l.labels"
    data_path.write_text(text)
    labels_path.write_text("".join("-1 19/07/2008 11:55:00\n" if i % 3 else "1 ts\n"
                                   for i in range(n_labels)))
    return str(data_path), str(labels_path)


@settings(max_examples=300, deadline=None)
@given(case=_secom_text())
def test_c_reader_loads_the_tokenizers_bits(tmp_path_factory, case):
    text, n_rows = case
    data_path, labels_path = _write_pair(tmp_path_factory.mktemp("secom"), text, n_rows)
    with open(data_path) as fh:
        c_path = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
    with open(data_path) as fh:
        tokenized = data._tokenize_secom(fh, data_path)
    # the C reader accepts every such file, so the bits below are its own
    assert c_path.shape == tokenized.shape and c_path.tobytes() == tokenized.tobytes()
    assert (_outcome(load_secom, data_path, labels_path)
            == _outcome(_reference_load_secom, data_path, labels_path))


_FAULTS = ("bad_token", "underscore", "ragged", "empty", "blank_only", "label_count")


@settings(max_examples=200, deadline=None)
@given(case=_secom_text(), fault=st.sampled_from(_FAULTS), where=st.integers(0, 10 ** 6))
def test_rejected_files_fail_as_before(tmp_path_factory, case, fault, where):
    """Files the C reader rejects load, or fail with the same DataError
    text, as with the token-by-token loader."""
    text, n_rows = case
    lines = text.split("\n")
    rows = [i for i, ln in enumerate(lines) if ln.strip()]
    i = rows[where % len(rows)]
    tokens = lines[i].split()
    k = where % len(tokens)
    if fault == "bad_token":
        tokens[k] = "oops"
    elif fault == "underscore":                      # float() reads 1_000.5
        tokens[k] = "1_000.5"
    elif fault == "ragged":
        assume(len(rows) > 1)
        if where % 2 or len(tokens) == 1:
            tokens.append("1.0")
        else:
            del tokens[k]
    lines[i] = " ".join(tokens)
    text = {"empty": "", "blank_only": "\n \t\n\n"}.get(fault, "\n".join(lines))
    n_labels = n_rows + 1 if fault == "label_count" else n_rows
    data_path, labels_path = _write_pair(tmp_path_factory.mktemp("secom"), text, n_labels)
    got = _outcome(load_secom, data_path, labels_path)
    assert got == _outcome(_reference_load_secom, data_path, labels_path)
    assert got[0] == "error" or fault == "underscore"


class TestLoadDelimited:
    def test_minority_maps_to_positive(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,b,cls\n1,2,A\n3,4,A\n5,6,A\n7,8,B\n")
        d = load_delimited(p, "cls")
        assert list(d.labels) == [0, 0, 0, 1]

    def test_three_label_values_rejected(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,cls\n1,A\n2,B\n3,C\n")
        with pytest.raises(DataError, match="exactly 2 distinct"):
            load_delimited(p, "cls")

    def test_missing_label_column(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            load_delimited(p, "nope")

    def test_all_missing_features(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,b,cls\nNaN,,A\n,NaN,A\nNaN,,B\n")
        d = load_delimited(p, "cls")
        stats = column_stats(d)
        assert all(s.missing_fraction == 1.0 for s in stats)

    def test_error_names_the_file_line_after_blank_lines(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,b,cls\n\n\n1,2,A\n3,B\n")
        with pytest.raises(DataError, match=r"f\.csv:5: expected 3 fields, got 2$"):
            load_delimited(p, "cls")


def _reference_load_delimited(path, label_column, delimiter=","):
    """The cell-by-cell loader that `load_delimited` replaced, kept as the
    oracle for its values and error texts.  A row's number is its line in
    the file, blank lines included."""
    with open(path) as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise DataError(f"empty input: {path}")
    header = lines[0][1].split(delimiter)
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not found in header")
    label_pos = header.index(label_column)
    raw_labels, rows = [], []
    for line_no, line in lines[1:]:
        tokens = line.split(delimiter)
        if len(tokens) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} fields, got {len(tokens)}")
        raw_labels.append(tokens[label_pos].strip())
        row = []
        for i, tok in enumerate(tokens):
            if i == label_pos:
                continue
            tok = tok.strip()
            if tok in ("", "NaN", "NA"):
                row.append(math.nan)
            else:
                row.append(_reference_float(tok, str(path), line_no))
        rows.append(row)
    if not rows:
        raise DataError(f"empty input: {path}")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise DataError(f"label column must have exactly 2 distinct values, got {len(distinct)}")
    counts = {v: raw_labels.count(v) for v in distinct}
    positive = (distinct[1] if counts[distinct[0]] == counts[distinct[1]]
                else min(distinct, key=lambda v: counts[v]))
    values = np.array(rows, dtype=np.float64)
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])),
                   np.array([1 if v == positive else 0 for v in raw_labels]))


_DELIMITERS = (",", ";", "\t")
_LABEL_PAIRS = (("pass", "fail"), ("-1", "1"), ("A", " B "), ("", "x"))


@st.composite
def _delimited_text(draw, max_rows=6, max_features=4):
    """A delimited file with a header and a label column first, in the
    middle or last: number cells as in the sensor file, `NaN`, and (unless
    the file is drawn clean) empty and `NA` cells, all padded with spaces,
    with blank lines before the header and between rows (in a clean file,
    only empty ones).  Returns the text and the delimiter."""
    delimiter = draw(st.sampled_from(_DELIMITERS))
    n_features = draw(st.integers(1, max_features))
    label_pos = draw(st.integers(0, n_features))
    clean = draw(st.booleans())
    cell = _cell if clean else st.one_of(_cell, st.sampled_from(["", "NA", "NaN"]))
    blank = st.just("") if clean else st.sampled_from(["", " ", "  "])
    pad = st.text(" ", max_size=2)
    pair = draw(st.sampled_from(_LABEL_PAIRS))
    names = [f"c{j}" for j in range(n_features)]
    names.insert(label_pos, "cls")
    lines = [draw(st.sampled_from(["", " ", "\t"])) for _ in range(draw(st.integers(0, 1)))]
    lines.append(delimiter.join(names))
    for _ in range(draw(st.integers(1, max_rows))):
        lines += [draw(blank) for _ in range(draw(st.integers(0, 1)))]
        cells = [draw(pad) + draw(cell) + draw(pad) for _ in range(n_features)]
        cells.insert(label_pos, draw(st.sampled_from(pair)))
        lines.append(delimiter.join(cells))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else ""), delimiter


def _delimited_outcome(load, path, delimiter):
    try:
        d = load(path, "cls", delimiter)
    except DataError as e:
        return "error", str(e)
    return d.features.values.shape, d.features.values.tobytes(), d.labels.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=_delimited_text())
def test_delimited_loads_the_reference_bits(tmp_path_factory, case):
    text, delimiter = case
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_text(text)
    assert (_delimited_outcome(load_delimited, str(path), delimiter)
            == _delimited_outcome(_reference_load_delimited, str(path), delimiter))


_DELIMITED_FAULTS = ("bad_token", "underscore", "ragged", "extra_field", "header_only", "empty",
                     "no_label_column", "multi_char", "label_only")


@settings(max_examples=300, deadline=None)
@given(case=_delimited_text(), fault=st.sampled_from(_DELIMITED_FAULTS),
       where=st.integers(0, 10 ** 6))
def test_delimited_rejected_files_fail_as_before(tmp_path_factory, case, fault, where):
    """Faulty files load, or fail with the same DataError text, as with
    the cell-by-cell loader."""
    text, delimiter = case
    lines = text.split("\n")
    header, *rows = [i for i, ln in enumerate(lines) if ln.strip()]
    assume(rows)                                     # every data row blank: no row to break
    i = rows[where % len(rows)]
    cells = lines[i].split(delimiter)
    features = [j for j, name in enumerate(lines[header].split(delimiter)) if name != "cls"]
    k = features[where % len(features)]
    if fault == "bad_token":
        cells[k] = "oops"
    elif fault == "underscore":                      # float() reads 1_000.5
        cells[k] = "1_000.5"
    elif fault == "ragged":
        del cells[k]
        if not delimiter.join(cells).strip():        # a blank line would be no row at all
            cells = ["0"] * len(cells)
    elif fault == "extra_field":
        cells.append("1.0")
    elif fault == "multi_char":
        lines = [ln.replace(delimiter, "::") for ln in lines]
        cells = lines[i].split("::")
        delimiter = "::"
    lines[i] = delimiter.join(cells)
    if fault == "label_only":                        # blank lines are not rows
        lines = ["cls", "a", " ", "b", "\t", "a"]
    text = "\n".join(lines)
    text = {"empty": "", "header_only": lines[header] + "\n",
            "no_label_column": text.replace("cls", "class")}.get(fault, text)
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_text(text)
    got = _delimited_outcome(load_delimited, str(path), delimiter)
    assert got == _delimited_outcome(_reference_load_delimited, str(path), delimiter)
    assert got[0] == "error" or fault in ("underscore", "multi_char", "label_only")


class TestColumnStats:
    def test_constant_column(self):
        d = Dataset(FeatureMatrix(np.array([[5.0], [5.0], [5.0], [5.0]]), [0]),
                    np.array([0, 0, 1, 1]))
        s = column_stats(d)[0]
        assert s.is_constant and s.skewness == 0.0

    def test_with_missing(self):
        d = Dataset(FeatureMatrix(np.array([[1.0], [2.0], [3.0], [np.nan]]), [0]),
                    np.array([0, 0, 1, 1]))
        s = column_stats(d)[0]
        assert s.missing_fraction == 0.25
        assert s.mean == 2.0 and s.median == 2.0

    def test_all_missing_column(self):
        d = Dataset(FeatureMatrix(np.full((3, 1), np.nan), [0]), np.array([0, 1, 1]))
        s = column_stats(d)[0]
        assert s.missing_fraction == 1.0
        assert not s.is_constant
        assert s.mean is None and s.median is None

    def test_skewness_sign(self):
        right_skewed = np.array([[1.0], [1.0], [1.0], [1.0], [100.0]])
        d = Dataset(FeatureMatrix(right_skewed, [0]), np.array([0, 0, 0, 1, 1]))
        assert column_stats(d)[0].skewness > 1.0


def _reference_skewness(x):
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    return 0.0 if m2 <= 0 else float(np.mean((x - m) ** 3) / m2 ** 1.5)


_sample = st.one_of(
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=3, max_size=400).map(
        lambda v: np.array(v, dtype=np.float64) / 1000.0),
    st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(3, 2000),
              st.sampled_from([1e-3, 1.0, 1e4]), st.sampled_from([0.0, 1e3])).map(
        lambda a: np.random.default_rng(a[0]).lognormal(size=a[1]) * a[2] + a[3]))


@settings(max_examples=300, deadline=None)
@given(x=_sample, sign=st.sampled_from([1.0, -1.0]))
def test_skewness_matches_the_pow_form(x, sign):
    # skewness is scale-free, so its rounding error is measured against 1
    # when |skew| is smaller
    x = sign * x
    got, want = data._skewness(x), _reference_skewness(x)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
    if abs(want) > 1e-9:
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestCorrelationMatrix:
    def test_diagonal_and_negation(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        values = np.column_stack([x, -x])
        d = Dataset(FeatureMatrix(values, [0, 1]), np.array([0, 0, 0, 1, 1]))
        r = correlation_matrix(d)
        assert r[0, 0] == 1.0 and r[1, 1] == 1.0
        assert r[0, 1] == pytest.approx(-1.0)

    def test_matches_hand_pearson_on_5_points(self):
        # oracle: direct Pearson evaluation
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 7.0])
        expected = (((x - x.mean()) * (y - y.mean())).sum()
                    / np.sqrt(((x - x.mean()) ** 2).sum() * ((y - y.mean()) ** 2).sum()))
        d = Dataset(FeatureMatrix(np.column_stack([x, y]), [0, 1]), np.array([0, 0, 0, 1, 1]))
        r = correlation_matrix(d)
        assert r[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_pairwise_complete_and_symmetry(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(40, 6))
        v[rng.random(v.shape) < 0.2] = np.nan
        y = (rng.random(40) < 0.3).astype(int)
        y[:2] = [0, 1]
        d = Dataset(FeatureMatrix(v, np.arange(6)), y)
        r = correlation_matrix(d)
        finite = np.isfinite(r)
        assert (finite == finite.T).all()
        assert np.nanmax(np.abs(r - r.T)) <= 1e-12

    def test_degenerate_pair_absent(self):
        v = np.array([[1.0, np.nan], [2.0, 3.0], [3.0, np.nan]])
        d = Dataset(FeatureMatrix(v, [0, 1]), np.array([0, 1, 1]))
        r = correlation_matrix(d)
        assert np.isnan(r[0, 1])  # only one shared row


class TestFeatureMatrixInvariants:
    def test_column_ids_survive_selection(self, messy_imbalanced):
        d = messy_imbalanced
        sub = d.select_columns([3, 7, 11])
        assert list(sub.column_ids) == [3, 7, 11]
        assert set(sub.column_ids) <= set(d.column_ids)

    def test_selection_by_unknown_id_raises(self):
        m = FeatureMatrix(np.zeros((2, 3)), [5, 2, 9])
        assert m.select_columns([9, 5]).values.shape == (2, 2)
        with pytest.raises(KeyError, match="unknown column id 4"):
            m.select_columns([9, 4])

    def test_unique_column_ids_enforced(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.zeros((2, 2)), [1, 1])
