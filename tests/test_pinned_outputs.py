"""Byte identity of keys and bundles for fixed seeds.

The recipe is the one ROADMAP.md's hash table records: the N = 1024
ring of the deepest head it runs, the three-class one (depth 11), keys
from seed 1, a 512 x 64 two-blob batch from seed 2
encrypted with seed 3, and two- and three-class probes from seeds 12 and
13. A change that alters any output byte, or a score ledger, fails here
and must record the new values in both places.
"""

import hashlib

import numpy as np
import pytest

from hnn import neural, scheme, serialize

from helpers import count_key_switches

BLOBS = {
    "pk": ("dafd35651a94caf4", 98_407),
    "sk": ("5862dc3e34280326", 98_375),
    "evk": ("178e277e5d48944e", 295_047),
    "features": ("1b82c8eeb3fb8d4f", 12_584_848),
    "scores-2": ("da54ba3f8c2ae1d8", 98_413),
    "scores-3": ("d8cc4ea7edbaed5f", 32_877),
}
# the sk blob's residue block, between header and checksum: keygen draws
# s before any seed, so it is the one that blob version 4 held too
SK_RESIDUES = "98a44d88f65c8eae"
NOISE_BITS = {2: 23.409799187564335, 3: 45.59630005920666}
# key switches and ring.divide calls of one forward pass per class count
COUNTS = {
    2: {"switch": 8, "divide": 13},
    3: {"switch": 21, "divide": 32},
}


@pytest.fixture(scope="module")
def recipe():
    depth = neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead(1.3, 3)))
    assert depth == 11
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
    noise, counts = {}, {}
    for classes in (2, 3):
        rng = np.random.default_rng(10 + classes)
        weights = rng.normal(0.0, 0.1, (64, classes))
        bias = rng.normal(0.0, 0.1, classes)
        with pytest.MonkeyPatch.context() as mp:
            counts[classes] = count_key_switches(mp)
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
    return blobs, noise, counts


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_blob_bytes_are_pinned(recipe, name):
    blob = recipe[0][name]
    assert (hashlib.sha256(blob).hexdigest()[:16], len(blob)) == BLOBS[name]


def test_score_ledgers_are_pinned(recipe):
    assert recipe[1] == NOISE_BITS


def test_key_switches_and_divisions_are_counted(recipe):
    # two classes: one logit rescale, which forms u, and the degree-27
    # fit: four squarings for u^2..u^16, u^3 and three node sums, each
    # one switch and division, and four lone rescales of nodes whose
    # leaf c1*u + c2*u^2 + c3*u^3 is the whole node. Three
    # classes: three logit rescales, three degree-7 exp fits of 4
    # switches and 6 divisions each, four Newton steps of 2 products,
    # the index sum's product, folded into the chain as its first, and
    # the first Newton step's two rescales
    assert recipe[2] == COUNTS


def test_secret_key_residues_are_pinned(recipe):
    sk = recipe[0]["sk"]
    assert hashlib.sha256(sk[39:-32]).hexdigest()[:16] == SK_RESIDUES
