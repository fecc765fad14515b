import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.data import Dataset, FeatureMatrix, load_secom
from rareclass.synth import write_secom_like


def _reference_write(d, data_path, labels_path, seed=0):
    """The per-cell writer that `write_secom_like` replaced, kept as the
    oracle for its bytes."""
    rng = np.random.default_rng(seed)
    with open(data_path, "w") as fh:
        for row in d.features.values:
            fh.write(" ".join("NaN" if np.isnan(v) else f"{v:.4f}" for v in row) + "\n")
    with open(labels_path, "w") as fh:
        for i, label in enumerate(d.labels):
            stamp = f"19/07/2008 {rng.integers(0, 24):02d}:{rng.integers(0, 60):02d}:00"
            fh.write(f"{1 if label == 1 else -1} {stamp}\n")


def _bits(b):
    return np.frombuffer(np.uint64(b).tobytes(), dtype=np.float64)[0]


# NaN of either sign and with a payload, signed zeros, cells that print as
# -0.0000 or sit on a rounding edge, infinities and 300-digit magnitudes
_value = st.one_of(
    st.floats(),
    st.floats(-1.0, 1.0),
    st.sampled_from([math.nan, -math.nan, _bits(0x7FF8000000000001), _bits(0xFFF8000000000000),
                     0.0, -0.0, -4e-5, 4e-5, -5e-5, 5e-5, 0.00015, -0.99995, 0.12345,
                     math.inf, -math.inf, 1e300, -1e300, 9.87654321e299, 1.7976931348623157e308,
                     5e-324]))

_shape = st.one_of(st.just((1, 1)), st.tuples(st.just(1), st.integers(1, 8)),
                   st.tuples(st.integers(1, 8), st.just(1)),
                   st.tuples(st.integers(1, 8), st.integers(1, 8)))


@st.composite
def _dataset(draw):
    n, p = draw(_shape)
    values = np.array(draw(st.lists(_value, min_size=n * p, max_size=n * p)),
                      dtype=np.float64).reshape(n, p)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Dataset(FeatureMatrix(values, np.arange(p)), np.array(labels))


@settings(max_examples=300, deadline=None)
@given(d=_dataset(), seed=st.integers(0, 2 ** 32 - 1))
def test_writer_writes_the_per_cell_writers_bytes(tmp_path_factory, d, seed):
    tmp = tmp_path_factory.mktemp("secom")
    write_secom_like(d, tmp / "new.data", tmp / "new.labels", seed=seed)
    _reference_write(d, tmp / "ref.data", tmp / "ref.labels", seed=seed)
    assert (tmp / "new.data").read_bytes() == (tmp / "ref.data").read_bytes()
    assert (tmp / "new.labels").read_bytes() == (tmp / "ref.labels").read_bytes()


@settings(max_examples=200, deadline=None)
@given(d=_dataset())
def test_written_files_load_to_the_rounded_cells(tmp_path_factory, d):
    tmp = tmp_path_factory.mktemp("secom")
    write_secom_like(d, tmp / "x.data", tmp / "x.labels")
    got = load_secom(tmp / "x.data", tmp / "x.labels")
    want = np.array([[math.nan if math.isnan(v) else float(f"{v:.4f}") for v in row]
                     for row in d.features.values.tolist()], dtype=np.float64)
    assert got.features.values.tobytes() == want.tobytes()
    assert got.labels.tobytes() == d.labels.tobytes()
