import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hnn import scheme


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_params():
    """Tiny insecure ring for fast unit tests: N=32, depth 3, scale 2^40."""
    return scheme.param_gen(128, 16, 3, scale_bits=40, allow_insecure=True)


@pytest.fixture(scope="session")
def small_keys(small_params):
    return scheme.keygen(small_params, np.random.default_rng(777))


@pytest.fixture(scope="session")
def head_params():
    """Ring deep enough for the default exp/Newton soft-argmax head, which
    three classes run (depth 11), 32 slots."""
    from hnn import approx, neural

    depth = neural.pipeline_depth(approx.SoftmaxConfig(class_count=3))
    assert depth == 11
    return scheme.param_gen(128, 32, depth, scale_bits=40, allow_insecure=True)


@pytest.fixture(scope="session")
def head_keys(head_params):
    return scheme.keygen(head_params, np.random.default_rng(778))
