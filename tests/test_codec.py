import json

import numpy as np
import pytest

from mergepipe.errors import BadConfig
from mergepipe.neural import TrainConfig
from mergepipe.reduce import PcaModel, pca_fit


def pca_model():
    return pca_fit(np.random.default_rng(5).normal(size=(12, 3)), n_keep=2)


def test_other_format_version_raises():
    doc = {**pca_model().to_json(), "format_version": 2}
    with pytest.raises(BadConfig, match="header"):
        PcaModel.from_json(doc)


def test_unknown_key_raises():
    with pytest.raises(BadConfig, match=r"unknown keys \['epoch'\]"):
        TrainConfig.from_json({"epoch": 3})


def test_nan_cell_writes_null_and_reads_back_nan():
    model = pca_model()
    mean = model.mean.copy()
    mean[1] = np.nan
    text = json.dumps(PcaModel(mean, model.scale, model.components, model.eigenvalues,
                               model.total_variance).to_json())
    assert '"mean": [' in text and "null" in text and "NaN" not in text
    again = PcaModel.from_json(json.loads(text))
    assert again.mean.dtype == np.float64
    assert np.isnan(again.mean[1])
    assert np.array_equal(np.delete(again.mean, 1), np.delete(mean, 1))
