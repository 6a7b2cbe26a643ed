import numpy as np
import pytest

from typetaste import domain, ingest


@pytest.fixture(scope="session")
def survey_dataset() -> domain.Dataset:
    """Synthetic dataset with the reference survey's exact type frequencies."""
    return ingest.generate_synthetic(ingest.SynthConfig(seed=20260822))


@pytest.fixture(scope="session")
def small_dataset() -> domain.Dataset:
    """Small dataset (64 respondents over 4 types) for pipeline-speed tests."""
    frequencies = {"intp": 20, "intj": 16, "enfp": 16, "estj": 12}
    config = ingest.SynthConfig(seed=11, frequencies=frequencies)
    return ingest.generate_synthetic(config)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
