"""Byte identity of keys and bundles for fixed seeds.

The recipe is the one ROADMAP.md's hash table records: the default-head
N = 1024 ring, keys from seed 1, a 512 x 64 two-blob batch from seed 2
encrypted with seed 3, and two- and three-class probes from seeds 12 and
13. A change that alters any output byte, or a score ledger, fails here
and must record the new values in both places.
"""

import hashlib

import numpy as np
import pytest

from hnn import neural, scheme, serialize

BLOBS = {
    "pk": ("6eaed6e84452168a", 213_063),
    "sk": ("0ea6610e1abe6e2d", 106_567),
    "evk": ("52e2d2b2b78abd1a", 2_768_967),
    "features": ("b3e8131ef13d0cba", 13_633_360),
    "scores-2": ("874a2a784de15292", 32_876),
    "scores-3": ("3fdad7ce4c3331e6", 32_876),
}
NOISE_BITS = {2: 45.683172919150344, 3: 47.799374034579394}


@pytest.fixture(scope="module")
def recipe():
    depth = neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead()))
    params = scheme.param_gen(128, 512, depth, 40, allow_insecure=True)
    keys = scheme.keygen(params, np.random.default_rng(1))
    data = neural.two_blob_dataset(512, 64, np.random.default_rng(2))
    cts = neural.encrypt_features(keys.pk, data.features, np.random.default_rng(3))
    blobs = {
        "pk": serialize.public_key_to_bytes(keys.pk),
        "sk": serialize.secret_key_to_bytes(keys.sk),
        "evk": serialize.relin_key_to_bytes(keys.evk),
        "features": serialize.bundle_to_bytes(
            serialize.Bundle(serialize.BUNDLE_FEATURES, 512, cts), params
        ),
    }
    noise = {}
    for classes in (2, 3):
        rng = np.random.default_rng(10 + classes)
        weights = rng.normal(0.0, 0.1, (64, classes))
        bias = rng.normal(0.0, 0.1, classes)
        out = neural.forward_encrypted(
            neural.LinearModel(weights, bias),
            neural.SoftArgmaxHead(1.3, classes),
            cts,
            keys.evk,
        )
        blobs[f"scores-{classes}"] = serialize.bundle_to_bytes(
            serialize.Bundle(serialize.BUNDLE_SCORES, 512, [out]), params
        )
        noise[classes] = out.noise_bits
    return blobs, noise


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_blob_bytes_are_pinned(recipe, name):
    blob = recipe[0][name]
    assert (hashlib.sha256(blob).hexdigest()[:16], len(blob)) == BLOBS[name]


def test_score_ledgers_are_pinned(recipe):
    assert recipe[1] == NOISE_BITS
