import numpy as np
import pytest

from ptensor.generators import reference_counterexample


@pytest.fixture(scope="session")
def ref_tensor():
    """The built-in symmetric nonnegative counterexample tensor."""
    return reference_counterexample()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
