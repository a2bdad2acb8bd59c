import math

import numpy as np
import pytest

from ecatch import training
from ecatch.data import Dataset
from ecatch.trend import trend_features

DAY = 86400


def make_dataset(
    text,
    labels=None,
    timestamps=None,
    image=None,
    has_image=None,
    ids=None,
    extra=None,
):
    """In-memory Dataset with sensible defaults for tests."""
    text = np.asarray(text, dtype=np.float64)
    n = text.shape[0]
    if image is None:
        image = np.zeros((n, 2))
    image = np.asarray(image, dtype=np.float64)
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    if timestamps is None:
        timestamps = np.arange(n, dtype=np.int64)
    if has_image is None:
        has_image = np.any(image != 0.0, axis=1)
    if ids is None:
        ids = [f"p{i}" for i in range(n)]
    return Dataset(
        ids=ids,
        labels=np.asarray(labels),
        timestamps=np.asarray(timestamps),
        text=text,
        image=image,
        has_image=np.asarray(has_image, dtype=bool),
        extra=extra,
    )


def features(aggregates, beta, offsets=None):
    """The trend input node over one tensor of window aggregates, row for row."""
    return trend_features(np.arange(aggregates.shape[0]), [aggregates], beta, offsets)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def nan_gradient_at_epoch_1(monkeypatch):
    """Make ``training.backward`` see a NaN regularizer on its second call."""
    real_backward = training.backward
    calls = []

    def backward_with_nan_reg(artifacts):
        calls.append(None)
        if len(calls) == 2:
            artifacts.report.lambda_reg = math.nan
        return real_backward(artifacts)

    monkeypatch.setattr(training, "backward", backward_with_nan_reg)
