import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mergepipe.codec import Json
from mergepipe.errors import BadConfig
from mergepipe.neural import TrainConfig
from mergepipe.reduce import PcaModel, pca_fit


def pca_model():
    return pca_fit(np.random.default_rng(5).normal(size=(12, 3)), n_keep=2)


def test_other_format_version_raises():
    doc = {**pca_model().to_json(), "format_version": 1}
    with pytest.raises(BadConfig, match="header"):
        PcaModel.from_json(doc)


def test_unknown_key_raises():
    with pytest.raises(BadConfig, match=r"unknown keys \['epoch'\]"):
        TrainConfig.from_json({"epoch": 3})


def test_nan_cell_travels_as_nan():
    model = pca_model()
    mean = model.mean.copy()
    mean[1] = np.nan
    text = json.dumps(PcaModel(mean, model.scale, model.components, model.eigenvalues,
                               model.total_variance).to_json())
    assert '"mean": {"dtype": "<f8"' in text and "null" not in text and "NaN" not in text
    again = PcaModel.from_json(json.loads(text))
    assert again.mean.dtype == np.float64
    assert again.mean.tobytes() == mean.tobytes()


@dataclass
class Holder(Json):
    array: np.ndarray


def round_trip(array):
    return Holder.from_json(json.loads(json.dumps(Holder(array).to_json()))).array


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=st.floats(width=64)),
    hnp.arrays(np.int64, SHAPES, elements=st.integers(-(2**63), 2**63 - 1)),
))
def test_array_round_trips_bit_for_bit(array):
    again = round_trip(array)
    assert (again.dtype, again.shape) == (array.dtype, array.shape)
    assert again.tobytes() == array.tobytes()


@pytest.mark.parametrize("array", [
    np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2e-308]),
    np.frombuffer(bytes.fromhex("0100000000f8ff7f"), np.float64),  # a NaN with a payload
    np.array([[-1, 0], [2**62, -(2**63)]]),
    np.zeros((3, 0, 2)),
    np.zeros((0,), dtype=np.int64),
])
def test_special_values_and_empty_axes_round_trip(array):
    again = round_trip(array)
    assert again.shape == array.shape and again.tobytes() == array.tobytes()


def test_decoded_array_is_native_writable_and_owns_its_memory():
    again = round_trip(np.arange(6.0).reshape(2, 3))
    assert again.flags.writeable and again.flags.owndata and again.flags.c_contiguous
    assert again.dtype.isnative
    again[0, 0] = 7.0


def block(**change):
    doc = Holder(np.arange(4.0)).to_json()["array"]
    return {**doc, **change}


@pytest.mark.parametrize("damaged", [
    block(data=block()["data"][:-1]),
    block(data=block()["data"] + "AAAA"),
    block(data="!" + block()["data"][1:]),
    block(dtype="<f4"),
    block(dtype=">f8"),
    block(dtype="|O"),
    block(dtype=["<f8"]),
    block(shape=[-4]),
    block(shape=[4.0]),
    block(shape=[True, 4]),
    block(shape=4),
    block(data=None),
    {"dtype": "<f8", "shape": [4]},
    {**block(), "order": "C"},
    [0.0, 1.0, 2.0, 3.0],
], ids=["short", "long", "bad-char", "f4", "big-endian", "object", "dtype-list", "negative",
        "float-dim", "bool-dim", "shape-int", "data-null", "missing-key", "extra-key", "list"])
def test_damaged_block_raises_bad_config(damaged):
    with pytest.raises(BadConfig, match="^array: "):
        Holder.from_json({"array": damaged})


def test_huge_declared_shape_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BadConfig, match="bytes for shape"):
            Holder.from_json({"array": block(shape=[10**12, 20])})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
