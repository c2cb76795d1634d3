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
    "pk": ("74546719667086e3", 106_599),
    "sk": ("75528a60326fff1b", 106_567),
    "evk": ("4bff0a7ea2e01e3f", 557_255),
    "features": ("8cee2a841fba900e", 13_633_424),
    "scores-2": ("39e76dfbc5461700", 32_877),
    "scores-3": ("50094c27a0c0d470", 32_877),
}
# the sk blob's residue block, between header and checksum: keygen draws
# s before any seed, so it is the one that blob version 4 held too
SK_RESIDUES = "0cc089124cb0794d"
NOISE_BITS = {2: 45.42402993012839, 3: 47.70009267163758}


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


def test_secret_key_residues_are_pinned(recipe):
    sk = recipe[0]["sk"]
    assert hashlib.sha256(sk[39:-32]).hexdigest()[:16] == SK_RESIDUES
