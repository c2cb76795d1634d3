import dataclasses
import gc
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnn import approx, cli, encoding, neural, ring, scheme, serialize
from hnn.errors import (
    FormatError,
    NoiseBudgetExceeded,
    ParameterError,
    ParamsHashMismatch,
)

from helpers import split


@pytest.fixture(scope="module")
def params():
    return scheme.param_gen(128, 16, 3, scale_bits=40, allow_insecure=True)


@pytest.fixture(scope="module")
def keys(params):
    return scheme.keygen(params, np.random.default_rng(31337))


@pytest.fixture(scope="module")
def pipeline_params():
    cfg = approx.SoftmaxConfig()
    return scheme.param_gen(
        128, 64, neural.pipeline_depth(cfg), scale_bits=40, allow_insecure=True
    )


class TestParamsFile:
    def test_text_roundtrip_identity(self, params, tmp_path):
        text = serialize.params_to_text(params)
        again = serialize.params_to_text(serialize.params_from_text(text))
        assert text == again
        path = tmp_path / "p.txt"
        serialize.save_params(params, path)
        assert serialize.load_params(path) == params

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            serialize.params_from_text("not a params file")

    @pytest.mark.parametrize(
        "slots, depth, scale_bits",
        [(4, 0, 14), (16, 3, 20), (512, 12, 40), (512, 6, None), (2048, 20, 30), (16384, 2, 40)],
    )
    def test_canonical_file_roundtrip_identity(self, slots, depth, scale_bits):
        # every chain param_gen picks has the sizes its file names, so the
        # file loads to the same chain and writes back unchanged
        made = scheme.param_gen(128, slots, depth, scale_bits, allow_insecure=True)
        text = serialize.params_to_text(made)
        again = serialize.params_from_text(text)
        assert again.ring.moduli == made.ring.moduli
        assert serialize.params_to_text(again) == text

    def test_prime_of_another_size_keygen_exit_code_2(self, tmp_path, capsys):
        # at N = 32768 the first prime ≡ 1 mod 2N is 65537, 17 bits: this
        # file once loaded as a 42,17,20 chain and wrote the 17 back
        text = "\n".join([
            "hnn-params v2", "lambda = 128", "ring_degree = 32768",
            "modulus_bits = 42,14,20", "scale_bits = 20", "slots = 16",
            "allow_insecure = true",
        ]) + "\n"
        with pytest.raises(ParameterError, match="no unused 14-bit prime"):
            serialize.params_from_text(text)
        bad = tmp_path / "p.txt"
        bad.write_text(text)
        out = tmp_path / "keys"
        assert cli.main(["keygen", "--params", str(bad), "--out-dir", str(out)]) == 2
        assert "14-bit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("ring_degree", "lots"),
            ("modulus_bits", "42,x"),
            ("allow_insecure", "maybe"),
            ("scale_bits", "40\nscale_bits = 30"),
            ("scale_bits", "40\nscale_bit = 30"),
        ],
    )
    def test_bad_value_is_format_error(self, params, field, bad):
        text = serialize.params_to_text(params)
        lines = [
            f"{field} = {bad}" if ln.startswith(f"{field} =") else ln
            for ln in text.splitlines()
        ]
        with pytest.raises(FormatError):
            serialize.params_from_text("\n".join(lines))

    def test_six_fields(self, params):
        keys = [ln.split(" =")[0] for ln in serialize.params_to_text(params).splitlines()]
        assert keys == [
            "hnn-params v2", "lambda", "ring_degree", "modulus_bits",
            "scale_bits", "slots", "allow_insecure",
        ]

    @pytest.mark.parametrize(
        "line", ["secret_weight = 1", "err_std = 1e-300", "noise_budget_bits = 1e9"]
    )
    def test_derived_value_line_is_unknown_field(self, params, tmp_path, line):
        # the secret weight, error width and budget are derived, so a
        # file cannot set them, not even to keys with no secret or noise
        text = serialize.params_to_text(params) + line + "\n"
        with pytest.raises(FormatError, match="unknown parameter fields"):
            serialize.params_from_text(text)
        bad = tmp_path / "p.txt"
        bad.write_text(text)
        out = tmp_path / "keys"
        assert cli.main(["keygen", "--params", str(bad), "--out-dir", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("bits", [0, -3, 60, 100])
    def test_scale_outside_the_rule_keygen_exit_code_2(self, params, tmp_path, capsys, bits):
        # the scale rule of `hnn params` holds for a hand-edited file too
        text = serialize.params_to_text(params).replace(
            "scale_bits = 40", f"scale_bits = {bits}"
        )
        with pytest.raises(ParameterError, match=f"scale_bits {bits} outside"):
            serialize.params_from_text(text)
        bad = tmp_path / "p.txt"
        bad.write_text(text)
        out = tmp_path / "keys"
        assert cli.main(["keygen", "--params", str(bad), "--out-dir", str(out)]) == 2
        assert "scale_bits" in capsys.readouterr().err
        assert not out.exists()

    def test_version_1_names_hnn_params(self, params, tmp_path, capsys):
        text = serialize.params_to_text(params).replace("hnn-params v2", "hnn-params v1")
        text += "secret_weight = 16\nerr_std = 3.2000000000000002\n"
        with pytest.raises(FormatError, match="version 1 .*`hnn params`"):
            serialize.params_from_text(text)
        bad = tmp_path / "p.txt"
        bad.write_text(text)
        assert cli.main(["keygen", "--params", str(bad), "--out-dir", str(tmp_path)]) == 3
        assert "`hnn params`" in capsys.readouterr().err


# a blob is a 39-byte header (magic, kind u8, version u16, params hash),
# the payload and a 32-byte sha256; a bundle payload opens with its kind
# u8, ciphertext count u32 and n_samples u32, then the first ciphertext's
# record "<IdddB" (level, scale, noise_bits, value_bound, domain) and its
# c0 block
_HEAD = 4 + 3 + 32
_BUNDLE_HEAD = _HEAD + 9
_CT_LEVEL, _CT_SCALE, _CT_NOISE, _CT_BOUND, _CT_DOMAIN, _CT_C0 = 48, 52, 60, 68, 76, 77


def _reseal(blob, offset, packed):
    """Overwrite bytes of a blob and recompute its checksum, so only the
    semantic checks can catch the change."""
    body = bytearray(blob[:-32])
    body[offset : offset + len(packed)] = packed
    return bytes(body) + hashlib.sha256(body).digest()


def _with_payload(blob, payload):
    """``blob``'s header over another payload, checksummed again."""
    body = blob[:_HEAD] + payload
    return body + hashlib.sha256(body).digest()


def _v1_blob(kind, scheme_params, payload):
    """A blob in the retired version 1 layout, which had a u64 payload
    length after the params hash."""
    body = (
        b"HNN1" + struct.pack("<BH", kind, 1) + serialize.params_hash(scheme_params)
        + struct.pack("<Q", len(payload)) + payload
    )
    return body + hashlib.sha256(body).digest()


def _v1_elements(els):
    """Version 1 elements: level u32, domain u8 (1 Evaluation), residues."""
    return b"".join(struct.pack("<IB", el.level, 1) + el.residues.tobytes() for el in els)


def _v1_key(key, gadget=20):
    """A pk, sk or evk as the version 1 writer laid it out; an evk's
    gadget byte 20 marks the retired base-2^20 gadget."""
    if isinstance(key, scheme.RelinKey):
        els = [el for pair in key.components for el in split(pair)]
        payload = struct.pack("<BI", gadget, len(key.components)) + _v1_elements(els)
        return _v1_blob(serialize.KIND_EVK, key.scheme, payload)
    if isinstance(key, scheme.PublicKey):
        return _v1_blob(serialize.KIND_PK, key.scheme, _v1_elements(split(key.pair)))
    return _v1_blob(serialize.KIND_SK, key.scheme, _v1_elements([key.s]))


def _hnnb_bundle(kind, cts, n_samples, version=2):
    """A bundle in the retired HNNB container: a manifest (checksummed
    from its version 2) and one length-prefixed version 1 blob per
    ciphertext."""
    fields = b"HNNB" + struct.pack("<HBII", version, kind, len(cts), n_samples)
    out = fields + (hashlib.sha256(fields).digest() if version >= 2 else b"")
    for ct in cts:
        header = struct.pack("<BIddd", 2, ct.level, ct.scale, ct.noise_bits, ct.value_bound)
        blob = _v1_blob(3, ct.scheme, header + _v1_elements(split(ct.parts)))
        out += struct.pack("<Q", len(blob)) + blob
    return out


def _score_blob(params, ct, n_samples=4):
    return serialize.bundle_to_bytes(
        serialize.Bundle(serialize.BUNDLE_SCORES, n_samples, [ct]), params
    )


def _blobs(params, keys):
    """name -> (blob, loader) for every blob kind, on the test ring."""
    rng = np.random.default_rng(15)
    cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
    return {
        "pk": (serialize.public_key_to_bytes(keys.pk), serialize.public_key_from_bytes),
        "sk": (serialize.secret_key_to_bytes(keys.sk), serialize.secret_key_from_bytes),
        "evk": (serialize.relin_key_to_bytes(keys.evk), serialize.relin_key_from_bytes),
        "features": (
            serialize.bundle_to_bytes(
                serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts), params
            ),
            serialize.bundle_from_bytes,
        ),
        # a lower-level ciphertext, as an inferred score would be
        "scores": (
            _score_blob(params, scheme.ct_drop_level(cts[0], 1)),
            serialize.bundle_from_bytes,
        ),
    }


class TestBlobs:
    def test_key_roundtrips(self, params, keys):
        pk2 = serialize.public_key_from_bytes(
            serialize.public_key_to_bytes(keys.pk), params
        )
        assert np.array_equal(pk2.pair.residues, keys.pk.pair.residues)
        sk2 = serialize.secret_key_from_bytes(
            serialize.secret_key_to_bytes(keys.sk), params
        )
        assert np.array_equal(sk2.s.residues, keys.sk.s.residues)
        evk2 = serialize.relin_key_from_bytes(
            serialize.relin_key_to_bytes(keys.evk), params
        )
        assert len(evk2.components) == len(keys.evk.components)
        for c1, c2 in zip(keys.evk.components, evk2.components):
            assert np.array_equal(c1.residues, c2.residues)

    def test_ciphertext_roundtrip_and_decrypt(self, params, keys):
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, params.slot_capacity)
        ct = scheme.encrypt(
            keys.pk, encoding.encode(v, params.scale, params.ring), rng
        )
        data = serialize.bundle_to_bytes(
            serialize.Bundle(serialize.BUNDLE_FEATURES, len(v), [ct]), params
        )
        (ct2,) = serialize.bundle_from_bytes(data, params).ciphertexts
        assert (ct2.level, ct2.scale, ct2.noise_bits, ct2.value_bound) == (
            ct.level, ct.scale, ct.noise_bits, ct.value_bound,
        )
        got = scheme.decrypt_to_slots(keys.sk, ct2)[: params.slot_capacity]
        assert np.max(np.abs(got - v)) < 2.0 ** -20

    def test_reloaded_keys_pass_invariants(self, params, keys):
        # round-trip through bytes, then check b + a*s is still small
        pk2 = serialize.public_key_from_bytes(
            serialize.public_key_to_bytes(keys.pk), params
        )
        sk2 = serialize.secret_key_from_bytes(
            serialize.secret_key_to_bytes(keys.sk), params
        )
        b, a = split(pk2.pair)
        e = ring.ring_add(b, ring.ring_mul(a, sk2.s))
        signed, _ = ring.compose_signed(ring.ntt_inverse(e))
        assert max(abs(int(x)) for x in signed) < 6 * scheme.ERR_STD

    def test_single_byte_corruption_detected(self, params, keys):
        rng = np.random.default_rng(1)
        blob = bytearray(serialize.public_key_to_bytes(keys.pk))
        for _ in range(1000):
            pos = int(rng.integers(0, len(blob)))
            old = blob[pos]
            blob[pos] ^= 1 << int(rng.integers(0, 8))
            with pytest.raises(FormatError):
                serialize.public_key_from_bytes(bytes(blob), params)
            blob[pos] = old
        # pristine blob still loads
        serialize.public_key_from_bytes(bytes(blob), params)

    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_every_offset_flip_and_truncation_rejected(self, params, keys, name):
        blob, load = _blobs(params, keys)[name]
        load(blob, params)
        for off in range(len(blob)):
            bad = bytearray(blob)
            bad[off] ^= 1 << (off % 8)
            with pytest.raises(FormatError):
                load(bytes(bad), params)
            with pytest.raises(FormatError):
                load(blob[:off], params)

    def test_wrong_params_hash_rejected(self, params, keys):
        other = scheme.param_gen(128, 16, 2, scale_bits=40, allow_insecure=True)
        blob = serialize.public_key_to_bytes(keys.pk)
        with pytest.raises(ParamsHashMismatch):
            serialize.public_key_from_bytes(blob, other)

    def test_resealed_params_hash_rejected(self, params, keys):
        blob = _reseal(serialize.public_key_to_bytes(keys.pk), 7, bytes(32))
        with pytest.raises(ParamsHashMismatch):
            serialize.public_key_from_bytes(blob, params)

    def test_wrong_kind_rejected(self, params, keys):
        blob = serialize.public_key_to_bytes(keys.pk)
        with pytest.raises(FormatError):
            serialize.secret_key_from_bytes(blob, params)

    def test_format_is_little_endian_with_golden_header(self, params, keys):
        blob = serialize.public_key_to_bytes(keys.pk)
        assert blob[:4] == b"HNN1"
        assert blob[4] == serialize.KIND_PK
        # version u16 little-endian: 0x0005 -> bytes 05 00
        assert blob[5:7] == b"\x05\x00"
        assert blob[7:39] == serialize.params_hash(params)
        # the payload is b's residue block as u64 LE words, then a's seed
        b, _ = split(keys.pk.pair)
        assert blob[39:-32] == b.residues.astype("<u8").tobytes() + keys.pk.seed
        assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()

    def test_key_blob_sizes_fixed_by_params(self, params):
        # sizes depend only on the parameter set, not on anything later
        sizes = set()
        for seed in range(3):
            k = scheme.keygen(params, np.random.default_rng(seed))
            sizes.add(
                (
                    len(serialize.public_key_to_bytes(k.pk)),
                    len(serialize.secret_key_to_bytes(k.sk)),
                    len(serialize.relin_key_to_bytes(k.evk)),
                )
            )
        assert len(sizes) == 1
        pk_len, sk_len, evk_len = next(iter(sizes))
        overhead = 4 + 3 + 32 + 32
        element_bytes = 8 * params.ring.ring_degree * params.ring.level_count
        key_element_bytes = 8 * params.key_ring.ring_degree * params.key_ring.level_count
        # a key pair ships its b block and the 32-byte seed of its a
        assert pk_len == overhead + element_bytes + 32
        assert sk_len == overhead + element_bytes
        digits = len(params.digits(params.max_level))
        assert evk_len == overhead + digits * (key_element_bytes + 32)

    @pytest.mark.parametrize("name", ["pk", "sk"])  # evk: TestRelinKeyBlob
    def test_version_1_key_names_keygen(self, params, keys, name):
        key = {"pk": keys.pk, "sk": keys.sk}[name]
        _, load = _blobs(params, keys)[name]
        with pytest.raises(FormatError, match="version 1 .*`hnn keygen`"):
            load(_v1_key(key), params)

    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_version_2_blob_names_keygen(self, params, keys, name):
        # version 2 held one evk component per prime over the chain alone
        blob, load = _blobs(params, keys)[name]
        with pytest.raises(FormatError, match="version 2 .*`hnn keygen`"):
            load(_reseal(blob, 5, struct.pack("<H", 2)), params)

    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_version_3_blob_names_keygen(self, params, keys, name):
        # version 3 bundle records had no domain byte; read in today's
        # layout, a feature bundle would give wrong scores, so every v3
        # blob is refused by its version
        blob, load = _blobs(params, keys)[name]
        with pytest.raises(FormatError, match="version 3 .*`hnn keygen`"):
            load(_reseal(blob, 5, struct.pack("<H", 3)), params)

    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_version_4_blob_names_keygen(self, params, keys, name):
        # version 4 keys held each a block in place of its seed; bundles
        # kept their layout, but every v4 blob is refused by its version
        blob, load = _blobs(params, keys)[name]
        with pytest.raises(FormatError, match="version 4 .*`hnn keygen`"):
            load(_reseal(blob, 5, struct.pack("<H", 4)), params)

    @pytest.mark.parametrize("name", ["pk", "evk"])
    def test_resealed_seed_is_expanded(self, params, keys, name):
        # any seed is valid: a blob whose last seed is another loads, with
        # the same b blocks, and the last a is what that seed expands to
        blob, load = _blobs(params, keys)[name]
        seed = b"\xa5" * 32
        other = load(_reseal(blob, len(blob) - 32 - 32, seed), params)
        key = load(blob, params)
        if name == "pk":
            pairs, others = [key.pair], [other.pair]
        else:
            pairs, others = key.components, other.components
        for pair, got in zip(pairs, others, strict=True):
            assert np.array_equal(got.residues[0], pair.residues[0])
        for pair, got in zip(pairs[:-1], others[:-1]):
            assert np.array_equal(got.residues[1], pair.residues[1])
        got = others[-1]
        want = ring.sample_uniform(got.params, got.level, seed)
        assert np.array_equal(got.residues[1], want.residues)
        assert not np.array_equal(got.residues[1], pairs[-1].residues[1])

    def test_hnnb_bundle_says_re_encrypt(self, params, keys):
        # the last HNNB version; TestBundleManifest has version 1
        rng = np.random.default_rng(16)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        data = _hnnb_bundle(serialize.BUNDLE_FEATURES, cts, 4)
        with pytest.raises(FormatError, match="HNNB.*re-encrypt"):
            serialize.bundle_from_bytes(data, params)


def _setup_files(tmp_path, params, keys):
    """Parameter, key, model and bundle files of one small pipeline."""
    rng = np.random.default_rng(17)
    files = {name: tmp_path / f"{name}.bin" for name in ("pk", "sk", "evk")}
    files.update(
        features=tmp_path / "features.hct", scores=tmp_path / "scores.hct",
        params=tmp_path / "p.txt", model=tmp_path / "m.txt", csv=tmp_path / "x.csv",
    )
    for name, (blob, _) in _blobs(params, keys).items():
        files[name].write_bytes(blob)
    serialize.save_params(params, files["params"])
    files["model"].write_text(
        serialize.model_to_text(
            neural.LinearModel(rng.normal(0, 0.1, (2, 2)), np.zeros(2)),
            neural.SoftArgmaxHead(1.0, 2), 2.0, 7, 5,
        )
    )
    np.savetxt(files["csv"], rng.uniform(-1, 1, (4, 2)), delimiter=",")
    return files


def _command(files, name, out):
    """The hnn command that loads the blob ``name`` first."""
    p = str(files["params"])
    if name == "pk":
        return ["encrypt", "--pk", str(files["pk"]), "--params", p,
                "--input", str(files["csv"]), "--out", str(out)]
    if name in ("evk", "features"):
        cmd = ["infer", "--model", str(files["model"]), "--evk", str(files["evk"])]
        return cmd + ["--params", p, "--input", str(files["features"]), "--out", str(out)]
    bundle = files["scores" if name == "scores" else "features"]
    return ["decrypt", "--sk", str(files["sk"]), "--params", p,
            "--input", str(bundle), "--out", str(out)]


class TestBlobsThroughCli:
    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_damaged_blob_exit_code_3(self, tmp_path, params, keys, name, damage):
        files = _setup_files(tmp_path, params, keys)
        blob = bytearray(files[name].read_bytes())
        mid = len(blob) // 2
        if damage == "flip":
            blob[mid] ^= 0x10
        else:
            del blob[mid:]
        files[name].write_bytes(bytes(blob))
        out = tmp_path / "out"
        assert cli.main(_command(files, name, out)) == 3
        assert not out.exists()

    @pytest.mark.parametrize("name", ["pk", "sk", "evk"])
    def test_version_1_key_exit_code_3(self, tmp_path, params, keys, capsys, name):
        files = _setup_files(tmp_path, params, keys)
        key = {"pk": keys.pk, "sk": keys.sk, "evk": keys.evk}[name]
        files[name].write_bytes(_v1_key(key))
        assert cli.main(_command(files, name, tmp_path / "out")) == 3
        assert "`hnn keygen`" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_version_2_blob_exit_code_3(self, tmp_path, params, keys, capsys, name):
        files = _setup_files(tmp_path, params, keys)
        blob = files[name].read_bytes()
        files[name].write_bytes(_reseal(blob, 5, struct.pack("<H", 2)))
        assert cli.main(_command(files, name, tmp_path / "out")) == 3
        assert "`hnn keygen`" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_version_3_blob_exit_code_3(self, tmp_path, params, keys, capsys, name):
        files = _setup_files(tmp_path, params, keys)
        blob = files[name].read_bytes()
        files[name].write_bytes(_reseal(blob, 5, struct.pack("<H", 3)))
        assert cli.main(_command(files, name, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "version 3" in err and "`hnn keygen`" in err

    @pytest.mark.parametrize("name", ["pk", "sk", "evk", "features", "scores"])
    def test_version_4_blob_exit_code_3(self, tmp_path, params, keys, capsys, name):
        files = _setup_files(tmp_path, params, keys)
        blob = files[name].read_bytes()
        files[name].write_bytes(_reseal(blob, 5, struct.pack("<H", 4)))
        assert cli.main(_command(files, name, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "version 4" in err and "`hnn keygen`" in err

    def test_hnnb_bundle_exit_code_3(self, tmp_path, params, keys, capsys):
        files = _setup_files(tmp_path, params, keys)
        rng = np.random.default_rng(18)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        files["features"].write_bytes(_hnnb_bundle(serialize.BUNDLE_FEATURES, cts, 4))
        assert cli.main(_command(files, "features", tmp_path / "out")) == 3
        assert "re-encrypt" in capsys.readouterr().err


def _tampered(ct, what):
    """A one-ciphertext score bundle with one defect in its record or its
    residue blocks, resealed so that only the loader's checks catch it."""
    params = ct.scheme
    blob = _score_blob(params, ct)
    half = (len(blob) - 32 - _CT_C0) // 2
    c0, c1 = blob[_CT_C0 : _CT_C0 + half], blob[_CT_C0 + half : -32]
    parts = {
        "zero parts": [],
        "three parts": [c0, c1, c0],
        "four parts": [c0, c1, c0, c1],
        "trailing part": [c0, c1, c0[: 8 * params.ring.ring_degree]],  # one row
    }
    if what in parts:
        return _with_payload(blob, blob[_HEAD:_CT_C0] + b"".join(parts[what]))
    if what == "level above top":
        # a row more in each part, so that only the level rule can see it
        row = 8 * params.ring.ring_degree
        level = struct.pack("<I", params.ring.max_level + 1)
        payload = blob[_HEAD:_CT_LEVEL] + level + blob[_CT_SCALE:_CT_C0]
        return _with_payload(blob, payload + c0 + c0[:row] + c1 + c1[:row])
    offset, fmt, value = {
        "part level": (_CT_LEVEL, "<I", ct.level - 1),
        "zero scale": (_CT_SCALE, "<d", 0.0),
        "negative scale": (_CT_SCALE, "<d", -ct.scale),
        "inf scale": (_CT_SCALE, "<d", math.inf),
        "nan scale": (_CT_SCALE, "<d", math.nan),
        "nan noise": (_CT_NOISE, "<d", math.nan),
        "inf noise": (_CT_NOISE, "<d", math.inf),
        "nan bound": (_CT_BOUND, "<d", math.nan),
        "inf bound": (_CT_BOUND, "<d", math.inf),
        "domain byte 2": (_CT_DOMAIN, "<B", 2),
        "domain byte 255": (_CT_DOMAIN, "<B", 255),
        # c0's first word is in row 0; c1's last word is in row `level`
        "residue at q_0": (_CT_C0, "<Q", params.ring.moduli[0]),
        "residue at q_level": (len(blob) - 40, "<Q", params.ring.moduli[ct.level]),
    }[what]
    return _reseal(blob, offset, struct.pack(fmt, value))


_TAMPERS = [
    "zero parts", "three parts", "trailing part", "four parts", "part level",
    "level above top", "zero scale", "negative scale", "inf scale", "nan scale",
    "nan noise", "inf noise", "nan bound", "inf bound", "residue at q_0",
    "residue at q_level", "domain byte 2", "domain byte 255",
]


class TestCiphertextHeader:
    @pytest.fixture(scope="class")
    def ct(self, params, keys):
        rng = np.random.default_rng(6)
        return neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 1)), rng)[0]

    def test_pristine_blob_loads_through_guards(self, params, ct):
        (back,) = serialize.bundle_from_bytes(_score_blob(params, ct), params).ciphertexts
        assert (back.level, back.scale, back.noise_bits) == (
            ct.level, ct.scale, ct.noise_bits,
        )
        assert np.array_equal(back.parts.residues, ct.parts.residues)

    def test_over_budget_ledger_is_crypto_state_error(self, params, ct):
        # a well-formed ledger past the budget fails Ciphertext's own guard
        blob = _reseal(
            _score_blob(params, ct), _CT_NOISE,
            struct.pack("<d", params.noise_budget_bits + 1.0),
        )
        with pytest.raises(NoiseBudgetExceeded):
            serialize.bundle_from_bytes(blob, params)

    @pytest.mark.parametrize("what", _TAMPERS)
    def test_tampered_header_is_format_error(self, params, ct, what):
        with pytest.raises(FormatError):
            serialize.bundle_from_bytes(_tampered(ct, what), params)

    @pytest.mark.parametrize("what", _TAMPERS)
    def test_tampered_header_exit_code_3(self, tmp_path, params, keys, ct, what):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(serialize.secret_key_to_bytes(keys.sk))
        bundle = tmp_path / "scores.hct"
        bundle.write_bytes(_tampered(ct, what))
        code = cli.main([
            "decrypt", "--sk", str(sk_file), "--params", str(params_file),
            "--input", str(bundle), "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 3


_EVK_TAMPERS = [
    "gadget 20", "gadget 1", "short count", "long count", "low component", "trailing bytes",
    "residue at q_top", "residue above p_0 in b_1",
]


def _tampered_evk(evk, what):
    blob = serialize.relin_key_to_bytes(evk)
    comps, seeds = evk.components, evk.seeds
    if what.startswith("gadget"):
        # the gadget byte is gone with version 1, which is refused whole
        return _v1_key(evk, int(what.split()[1]))
    if what == "trailing bytes":
        return _with_payload(blob, blob[_HEAD:-32] + b"\0")
    if what == "residue at q_top":
        # the last b block's last word, before its seed, is in the top row
        top = evk.scheme.ring.moduli[-1]
        return _reseal(blob, len(blob) - 32 - 32 - 8, struct.pack("<Q", top))
    if what == "residue above p_0 in b_1":
        # b_1's first word, past b_0 and its seed, is in the first special
        # prime's row
        kr = evk.scheme.key_ring
        b_1 = _HEAD + 8 * kr.level_count * kr.ring_degree + 32
        return _reseal(blob, b_1, struct.pack("<Q", (1 << 64) - 1))
    # well-formed blobs of other shapes: only the length rule sees them
    low = ring.drop_level(comps[0], comps[0].level - 1)
    comps, seeds = {
        "short count": (comps[:-1], seeds[:-1]),
        "long count": (comps + comps[:1], seeds + seeds[:1]),
        "low component": ((low,) + comps[1:], seeds),
    }[what]
    return serialize.relin_key_to_bytes(dataclasses.replace(evk, components=comps, seeds=seeds))


class TestRelinKeyBlob:
    def test_one_component_per_digit_round_trip(self, params, keys):
        blob = serialize.relin_key_to_bytes(keys.evk)
        kr = params.key_ring
        # 4 chain primes in 2 digits of 2, behind 2 special primes: per
        # digit a 6-row key-ring b_i block and a_i's 32-byte seed, nothing
        # else
        assert (params.digit_size, params.special_count, kr.level_count) == (2, 2, 6)
        assert len(blob) == _HEAD + 2 * (8 * kr.level_count * kr.ring_degree + 32) + 32
        evk = serialize.relin_key_from_bytes(blob, params)
        assert len(evk.components) == 2

    @pytest.mark.parametrize("what", _EVK_TAMPERS)
    def test_tampered_evk_is_format_error(self, params, keys, what):
        with pytest.raises(FormatError):
            serialize.relin_key_from_bytes(_tampered_evk(keys.evk, what), params)

    def test_old_gadget_names_the_regeneration(self, params, keys):
        # a key from the base-2^20 gadget era is a version 1 blob
        blob = _tampered_evk(keys.evk, "gadget 20")
        with pytest.raises(FormatError, match="version 1 .*regenerate keys with `hnn keygen`"):
            serialize.relin_key_from_bytes(blob, params)

    @pytest.mark.parametrize("what", _EVK_TAMPERS)
    def test_tampered_evk_infer_exit_code_3(self, tmp_path, params, keys, what):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        rng = np.random.default_rng(9)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        bundle = tmp_path / "b.hct"
        bundle.write_bytes(
            serialize.bundle_to_bytes(
                serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts), params
            )
        )
        model_file = tmp_path / "m.txt"
        model_file.write_text(
            serialize.model_to_text(
                neural.LinearModel(np.zeros((2, 2)), np.zeros(2)),
                neural.SoftArgmaxHead(1.0, 2), 2.0, 7, 5,
            )
        )
        evk_file = tmp_path / "evk.bin"
        evk_file.write_bytes(_tampered_evk(keys.evk, what))
        code = cli.main([
            "infer", "--model", str(model_file), "--evk", str(evk_file),
            "--params", str(params_file), "--input", str(bundle), "--out",
            str(tmp_path / "out.hct"),
        ])
        assert code == 3


class TestKeysOfTheFourDigitRule:
    """Keys written when k was ceil(sqrt(L+1)), 4 on a 13-prime chain, so
    that the evk held 4 components over 17 key-ring rows. The parameter
    file and its hash are unchanged, so such an evk passes every check
    but its length, whose error names today's shape and `hnn keygen`;
    the pk, sk and feature bundles, which hold no digits, load as ever."""

    # sha256 prefix and length of each blob as that rule wrote it
    OLD = {
        "pk": ("ec60a66808d5a8f4", 3431),
        "sk": ("e34ec7c8d8ecece1", 3399),
        "evk": ("fd60376f94c4b182", 17607),
        "features": ("f8c273d6f18bbffa", 13450),
    }

    @staticmethod
    def blobs(params):
        keys = scheme.keygen(params, np.random.default_rng(41))
        rng = np.random.default_rng(42)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        bundle = serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts)
        return {
            "pk": serialize.public_key_to_bytes(keys.pk),
            "sk": serialize.secret_key_to_bytes(keys.sk),
            "evk": serialize.relin_key_to_bytes(keys.evk),
            "features": serialize.bundle_to_bytes(bundle, params),
        }

    @pytest.fixture(scope="class")
    def params(self):
        return scheme.param_gen(128, 16, 12, scale_bits=40, allow_insecure=True)

    @pytest.fixture(scope="class")
    def old(self, params):
        """The four blobs as the old rule wrote them: its keygen, with the
        special primes cut to the first 4 of today's 7."""
        with pytest.MonkeyPatch.context() as mp:
            take = scheme._special_primes
            mp.setattr(scheme, "_special_primes", lambda rp, count: take(rp, 4))
            old_params = scheme.param_gen(128, 16, 12, scale_bits=40, allow_insecure=True)
        assert (old_params.special_count, old_params.key_ring.level_count) == (4, 17)
        assert len(old_params.digits(old_params.max_level)) == 4
        assert serialize.params_to_text(old_params) == serialize.params_to_text(params)
        blobs = self.blobs(old_params)
        got = {name: (hashlib.sha256(b).hexdigest()[:16], len(b)) for name, b in blobs.items()}
        assert got == self.OLD
        return blobs

    def test_only_the_evk_changed(self, params, old):
        new = self.blobs(params)
        assert (params.special_count, params.key_ring.level_count) == (7, 20)
        assert {name for name in new if new[name] != old[name]} == {"evk"}

    def test_old_pk_sk_and_features_load(self, params, old):
        pk = serialize.public_key_from_bytes(old["pk"], params)
        sk = serialize.secret_key_from_bytes(old["sk"], params)
        bundle = serialize.bundle_from_bytes(old["features"], params)
        assert serialize.public_key_to_bytes(pk) == old["pk"]
        assert serialize.secret_key_to_bytes(sk) == old["sk"]
        want = np.random.default_rng(42).uniform(-1, 1, (4, 2))
        got = [scheme.decrypt_to_slots(sk, ct)[:4] for ct in bundle.ciphertexts]
        assert np.max(np.abs(np.column_stack(got) - want)) < 1e-6

    def test_old_evk_names_the_shape_and_keygen(self, params, old):
        with pytest.raises(
            FormatError,
            match=r"blob of 17607 bytes, not the 10375 expected for an evaluation key "
            r"of 2 digits over the key ring's 20 rows; regenerate the keys with `hnn keygen`",
        ):
            serialize.relin_key_from_bytes(old["evk"], params)

    def test_old_evk_infer_exit_code_3(self, tmp_path, capsys, params, old):
        files = {name: tmp_path / name for name in ("p.txt", "evk.bin", "f.hct", "m.txt")}
        serialize.save_params(params, files["p.txt"])
        files["evk.bin"].write_bytes(old["evk"])
        files["f.hct"].write_bytes(old["features"])
        files["m.txt"].write_text(
            serialize.model_to_text(
                neural.LinearModel(np.zeros((2, 2)), np.zeros(2)),
                neural.SoftArgmaxHead(1.0, 2), 2.0, 7, 5,
            )
        )
        argv = [
            "infer", "--model", str(files["m.txt"]), "--evk", str(files["evk.bin"]),
            "--params", str(files["p.txt"]), "--input", str(files["f.hct"]),
            "--out", str(tmp_path / "out.hct"),
        ]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "evaluation key of 2 digits over the key ring's 20 rows" in err
        assert "regenerate the keys with `hnn keygen`" in err
        assert not (tmp_path / "out.hct").exists()
        # a regenerated evk runs the old features through
        files["evk.bin"].write_bytes(self.blobs(params)["evk"])
        assert cli.main(argv) == 0


_KEY_TAMPERS = ["low element", "trailing bytes", "residue at q_0"]


def _tampered_key(key, what):
    """A pk or sk blob with one defect in its first element or its payload
    end, resealed so that only the loader's semantic checks can catch it."""
    to_bytes, first = {
        scheme.PublicKey: (serialize.public_key_to_bytes, "pair"),
        scheme.SecretKey: (serialize.secret_key_to_bytes, "s"),
    }[type(key)]
    blob = to_bytes(key)
    if what == "low element":
        el = getattr(key, first)
        low = ring.drop_level(el, el.level - 1)
        return to_bytes(dataclasses.replace(key, **{first: low}))
    if what == "trailing bytes":
        return _with_payload(blob, blob[_HEAD:-32] + b"junk")
    # the payload's first word is row 0 of the first element
    return _reseal(blob, _HEAD, struct.pack("<Q", key.scheme.ring.moduli[0]))


class TestPublicSecretKeyBlobs:
    @pytest.mark.parametrize("what", _KEY_TAMPERS)
    def test_tampered_pk_is_format_error(self, params, keys, what):
        with pytest.raises(FormatError):
            serialize.public_key_from_bytes(_tampered_key(keys.pk, what), params)

    @pytest.mark.parametrize("what", _KEY_TAMPERS)
    def test_tampered_sk_is_format_error(self, params, keys, what):
        with pytest.raises(FormatError):
            serialize.secret_key_from_bytes(_tampered_key(keys.sk, what), params)

    @pytest.mark.parametrize("what", _KEY_TAMPERS)
    def test_tampered_pk_encrypt_exit_code_3(self, tmp_path, params, keys, what):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        pk_file = tmp_path / "pk.bin"
        pk_file.write_bytes(_tampered_key(keys.pk, what))
        csv = tmp_path / "x.csv"
        np.savetxt(csv, np.random.default_rng(11).uniform(-1, 1, (4, 2)), delimiter=",")
        code = cli.main([
            "encrypt", "--pk", str(pk_file), "--params", str(params_file),
            "--input", str(csv), "--out", str(tmp_path / "b.hct"),
        ])
        assert code == 3

    @pytest.mark.parametrize("what", _KEY_TAMPERS)
    def test_tampered_sk_decrypt_exit_code_3(self, tmp_path, params, keys, what):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(_tampered_key(keys.sk, what))
        rng = np.random.default_rng(12)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        bundle = tmp_path / "b.hct"
        bundle.write_bytes(
            serialize.bundle_to_bytes(
                serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts), params
            )
        )
        code = cli.main([
            "decrypt", "--sk", str(sk_file), "--params", str(params_file),
            "--input", str(bundle), "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 3


class TestBundles:
    def test_roundtrip(self, params, keys):
        rng = np.random.default_rng(2)
        feats = rng.uniform(-1, 1, (10, 3))
        cts = neural.encrypt_features(keys.pk, feats, rng)
        bundle = serialize.Bundle(serialize.BUNDLE_FEATURES, 10, cts)
        data = serialize.bundle_to_bytes(bundle, params)
        back = serialize.bundle_from_bytes(data, params)
        assert back.kind == serialize.BUNDLE_FEATURES
        assert back.n_samples == 10
        cols = [
            scheme.decrypt_to_slots(keys.sk, ct)[:10] for ct in back.ciphertexts
        ]
        assert np.max(np.abs(np.column_stack(cols) - feats)) < 2.0 ** -20

    def test_truncation_detected(self, params, keys):
        rng = np.random.default_rng(3)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        data = serialize.bundle_to_bytes(
            serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts), params
        )
        with pytest.raises(FormatError):
            serialize.bundle_from_bytes(data[:-5], params)

    def test_loaded_residues_are_read_only_and_keep_no_alias(self, params, keys):
        # residues are views of immutable bytes, so a caller's bytearray
        # cannot change a loaded ciphertext afterwards
        rng = np.random.default_rng(19)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 1)), rng)
        buf = bytearray(_score_blob(params, cts[0]))
        (ct,) = serialize.bundle_from_bytes(buf, params).ciphertexts
        buf[_CT_C0 : _CT_C0 + 8] = bytes(8)
        assert np.array_equal(ct.parts.residues[0], cts[0].parts.residues[0])
        assert not ct.parts.residues.flags.writeable

    def test_ciphertext_under_other_params_refused(self, params, keys):
        rng = np.random.default_rng(20)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 1)), rng)
        other = scheme.param_gen(128, 16, 2, scale_bits=40, allow_insecure=True)
        with pytest.raises(ValueError, match="other parameters"):
            serialize.bundle_to_bytes(
                serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts), other
            )

    def test_ciphertext_count_rules(self, params, keys):
        # a feature bundle needs at least one ciphertext, a score bundle
        # exactly one; both headers are checksummed, so only the count
        # rule can reject them
        rng = np.random.default_rng(10)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        assert params.ring.ring_degree == 32
        for kind, held in (
            (serialize.BUNDLE_FEATURES, []),
            (serialize.BUNDLE_SCORES, []),
            (serialize.BUNDLE_SCORES, cts),
        ):
            data = serialize.bundle_to_bytes(serialize.Bundle(kind, 4, held), params)
            with pytest.raises(FormatError, match="ciphertexts"):
                serialize.bundle_from_bytes(data, params)

    def test_empty_feature_bundle_decrypt_exit_code_3(self, tmp_path, params, keys):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(serialize.secret_key_to_bytes(keys.sk))
        bundle = tmp_path / "empty.hct"
        bundle.write_bytes(
            serialize.bundle_to_bytes(
                serialize.Bundle(serialize.BUNDLE_FEATURES, 4, []), params
            )
        )
        code = cli.main([
            "decrypt", "--sk", str(sk_file), "--params", str(params_file),
            "--input", str(bundle), "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 3


class TestBundleManifest:
    """The bundle header: blob header, then kind, count and n_samples."""

    MANIFEST_LEN = _BUNDLE_HEAD

    @pytest.fixture(scope="class")
    def data(self, params, keys):
        rng = np.random.default_rng(4)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (16, 1)), rng)
        return serialize.bundle_to_bytes(
            serialize.Bundle(serialize.BUNDLE_FEATURES, 16, cts), params
        )

    def test_golden_layout(self, params, data):
        assert data[: self.MANIFEST_LEN] == (
            b"HNN1" + struct.pack("<BH", serialize.KIND_BUNDLE, 5)
            + serialize.params_hash(params)
            + struct.pack("<BII", serialize.BUNDLE_FEATURES, 1, 16)
        )

    def test_every_manifest_bit_flip_rejected(self, params, data):
        for off in range(self.MANIFEST_LEN):
            for bit in range(8):
                bad = bytearray(data)
                bad[off] ^= 1 << bit
                with pytest.raises(FormatError):
                    serialize.bundle_from_bytes(bytes(bad), params)

    def test_every_manifest_truncation_rejected(self, params, data):
        for end in range(self.MANIFEST_LEN + 1):
            with pytest.raises(FormatError):
                serialize.bundle_from_bytes(data[:end], params)

    def test_version_1_bundle_rejected_with_reason(self, params, keys):
        rng = np.random.default_rng(21)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (16, 1)), rng)
        v1 = _hnnb_bundle(serialize.BUNDLE_FEATURES, cts, 16, version=1)
        with pytest.raises(FormatError, match="HNNB.*re-encrypt"):
            serialize.bundle_from_bytes(v1, params)

    @pytest.mark.parametrize("kind,n_samples", [(2, 16), (0, 17), (0, 1 << 24)])
    def test_checksummed_bad_fields_rejected(self, params, data, kind, n_samples):
        # params.ring has N = 32, so 16 slots
        assert params.ring.ring_degree // 2 == 16
        bad = _reseal(data, _HEAD, struct.pack("<BII", kind, 1, n_samples))
        with pytest.raises(FormatError, match="bad bundle header"):
            serialize.bundle_from_bytes(bad, params)

    def test_flipped_manifest_exit_code_3(self, tmp_path, params, keys, data):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(serialize.secret_key_to_bytes(keys.sk))
        bad = bytearray(data)
        bad[_HEAD] ^= 1  # bundle kind: features -> scores
        bundle = tmp_path / "b.hct"
        bundle.write_bytes(bytes(bad))
        code = cli.main([
            "decrypt", "--sk", str(sk_file), "--params", str(params_file),
            "--input", str(bundle), "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 3


class TestModelFile:
    @given(
        st.floats(min_value=0.25, max_value=8.0),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_bit_exact(self, temperature, classes):
        rng = np.random.default_rng(4)
        model = neural.LinearModel(
            rng.normal(0, 1, (3, classes)), rng.normal(0, 1, classes)
        )
        head = neural.SoftArgmaxHead(temperature, classes)
        text = serialize.model_to_text(model, head, 2.0, 7, 5, {"seed": 1})
        model2, head2, meta, prov = serialize.model_from_text(text)
        assert np.array_equal(model2.weights, model.weights)
        assert np.array_equal(model2.bias, model.bias)
        assert head2.temperature == head.temperature
        assert meta["exp_degree"] == 7
        assert prov == {"seed": "1"}


# (line prefix, replacement) of a model file written by _model_text
_MODEL_TAMPERS = [
    ("temperature", "temperature = inf"),
    ("temperature", "temperature = -inf"),
    ("temperature", "temperature = nan"),
    ("temperature", "temperature = 0"),
    ("temperature", "temperature = -1.5"),
    ("temperature", "temperature = warm"),
    ("logit_radius", "logit_radius = inf"),
    ("logit_radius", "logit_radius = nan"),
    ("logit_radius", "logit_radius = 0"),
    ("logit_radius", "logit_radius = wide"),
    ("exp_degree", "exp_degree = seven"),
    ("exp_degree", "exp_degree = 7.5"),
    ("exp_degree", "exp_degree = 0"),
    ("inv_iterations", "inv_iterations = five"),
    ("d_in", "d_in = two"),
    ("classes", "classes = 2.0"),
    ("W ", "W 1 abc"),
    ("W ", "W nan 1"),
    ("W ", "W 1 inf"),
    ("b ", "b 0 zero"),
    ("b ", "b -inf 0"),
    ("W 0.25", "W 0.25"),
    ("b ", "b 0"),
    ("temperature", "temperature = 1\ntemperature = 7"),
    ("b ", "b 0 0\nb 1 1"),
    ("temperature", "temperature = 1.5\ntemprature = 3"),
]


def _model_text(tamper=None):
    text = serialize.model_to_text(
        neural.LinearModel(np.array([[0.5, -0.5], [0.25, 0.0]]), np.zeros(2)),
        neural.SoftArgmaxHead(1.5, 2), 2.0, 7, 5,
    )
    if tamper is None:
        return text
    prefix, line = tamper
    lines = text.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith(prefix))
    return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"


class TestTamperedModelFile:
    def test_pristine_model_loads(self):
        model, head, meta, _ = serialize.model_from_text(_model_text())
        assert head.temperature == 1.5
        assert meta == {"radius": 2.0, "exp_degree": 7, "inv_iterations": 5}

    @pytest.mark.parametrize("tamper", _MODEL_TAMPERS, ids=lambda t: t[1])
    def test_tampered_model_is_format_error(self, tamper):
        with pytest.raises(FormatError):
            serialize.model_from_text(_model_text(tamper))

    @pytest.mark.parametrize("tamper", _MODEL_TAMPERS, ids=lambda t: t[1])
    def test_tampered_model_infer_exit_code_3(self, tmp_path, params, keys, tamper):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        rng = np.random.default_rng(9)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 2)), rng)
        bundle = tmp_path / "b.hct"
        bundle.write_bytes(
            serialize.bundle_to_bytes(
                serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts), params
            )
        )
        evk_file = tmp_path / "evk.bin"
        evk_file.write_bytes(serialize.relin_key_to_bytes(keys.evk))
        model_file = tmp_path / "m.txt"
        model_file.write_text(_model_text(tamper))
        code = cli.main([
            "infer", "--model", str(model_file), "--evk", str(evk_file),
            "--params", str(params_file), "--input", str(bundle), "--out",
            str(tmp_path / "out.hct"),
        ])
        assert code == 3
        assert not (tmp_path / "out.hct").exists()

    @pytest.mark.parametrize("tamper", _MODEL_TAMPERS, ids=lambda t: t[1])
    def test_tampered_model_calibrate_exit_code_3(self, tmp_path, tamper):
        data = tmp_path / "d.csv"
        np.savetxt(data, [[0.5, 0.1, 0], [-0.5, 0.2, 1]], delimiter=",")
        model_file = tmp_path / "m.txt"
        model_file.write_text(_model_text(tamper))
        out = tmp_path / "out.txt"
        code = cli.main([
            "calibrate", "--model", str(model_file), "--data", str(data),
            "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()


class TestCliCommands:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_full_workflow(self, tmp_path, pipeline_params):
        work = tmp_path
        params_file = work / "params.txt"
        serialize.save_params(pipeline_params, params_file)

        rng = np.random.default_rng(5)
        data = neural.two_blob_dataset(48, 4, rng)
        rows = np.column_stack([data.features, data.labels])
        train_csv = work / "train.csv"
        np.savetxt(train_csv, rows, delimiter=",", fmt="%.10g")

        model_file = work / "model.txt"
        assert self.run(
            "train", "--data", str(train_csv), "--out", str(model_file),
            "--epochs", "60", "--lr", "0.1", "--radius", "1.6",
            "--range-penalty", "10", "--seed", "7",
        ) == 0
        assert self.run(
            "calibrate", "--model", str(model_file), "--data", str(train_csv),
            "--out", str(model_file),
        ) == 0

        keydir = work / "keys"
        assert self.run(
            "keygen", "--params", str(params_file), "--out-dir", str(keydir),
            "--seed", "11",
        ) == 0
        assert (keydir / "sk.bin").stat().st_mode & 0o777 == 0o600

        feat_csv = work / "feats.csv"
        np.savetxt(feat_csv, data.features, delimiter=",", fmt="%.10g")
        bundle = work / "feats.hct"
        assert self.run(
            "encrypt", "--pk", str(keydir / "pk.bin"), "--params",
            str(params_file), "--input", str(feat_csv), "--out", str(bundle),
            "--seed", "13",
        ) == 0

        # encrypt -> decrypt round trip reproduces the CSV
        feats_back = work / "feats_back.csv"
        assert self.run(
            "decrypt", "--sk", str(keydir / "sk.bin"), "--params",
            str(params_file), "--input", str(bundle), "--out", str(feats_back),
        ) == 0
        back = np.loadtxt(feats_back, delimiter=",", ndmin=2)
        assert np.max(np.abs(back - data.features)) < 2.0 ** -20

        scores_bundle = work / "scores.hct"
        assert self.run(
            "infer", "--model", str(model_file), "--evk", str(keydir / "evk.bin"),
            "--params", str(params_file), "--input", str(bundle), "--out",
            str(scores_bundle),
        ) == 0
        scores_csv = work / "scores.csv"
        assert self.run(
            "decrypt", "--sk", str(keydir / "sk.bin"), "--params",
            str(params_file), "--input", str(scores_bundle), "--out",
            str(scores_csv),
        ) == 0
        out = np.loadtxt(scores_csv, delimiter=",", ndmin=2)
        model, head, meta, _ = serialize.model_from_text(model_file.read_text())
        plain_pred = model.logits(data.features).argmax(axis=1)
        agreement = np.mean(out[:, 1].astype(int) == plain_pred)
        assert agreement >= 0.99

    def test_banner_names_what_infer_reads(self):
        # the model host runs infer, which takes evk.bin and no public key
        args = cli.build_parser().parse_args(
            ["infer", "--model", "m", "--evk", "e", "--params", "p", "--input", "i", "--out", "o"]
        )
        assert (args.evk, args.params, args.model) == ("e", "p", "m")
        assert not hasattr(args, "pk")
        host = cli.SK_BANNER.split("model host", 1)[1]
        assert "evk.bin" in host
        assert "pk.bin" not in cli.SK_BANNER

    def test_keygen_deterministic_digests(self, tmp_path, params):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        digests = []
        for d in ("a", "b"):
            outdir = tmp_path / d
            assert self.run(
                "keygen", "--params", str(params_file), "--out-dir",
                str(outdir), "--seed", "99",
            ) == 0
            digests.append(
                tuple(
                    hashlib.sha256((outdir / n).read_bytes()).hexdigest()
                    for n in ("pk.bin", "sk.bin", "evk.bin")
                )
            )
        assert digests[0] == digests[1]

    def test_params_command_writes_loadable_file(self, tmp_path):
        out = tmp_path / "params.txt"
        assert self.run(
            "params", "--slots", "4", "--depth", "1", "-o", str(out)
        ) == 0
        params = serialize.load_params(out)
        assert params.ring.ring_degree == 2048

    def test_insecure_params_refused_without_flag(self, tmp_path):
        out = tmp_path / "params.txt"
        code = self.run(
            "params", "--slots", "4", "--depth", "25", "--scale-bits", "40",
            "-o", str(out),
        )
        assert code == 2
        assert self.run(
            "params", "--slots", "4", "--depth", "25", "--scale-bits", "40",
            "--allow-insecure", "-o", str(out),
        ) == 0

    def test_calibrate_closes_the_model_file(self, tmp_path):
        # an unclosed file warns when it is collected, which python -X dev
        # shows; calibrate and infer read the model through one helper
        data = neural.two_blob_dataset(16, 2, np.random.default_rng(3))
        csv = tmp_path / "d.csv"
        np.savetxt(csv, np.column_stack([data.features, data.labels]), delimiter=",")
        model_file = tmp_path / "m.txt"
        model_file.write_text(_model_text())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run(
                "calibrate", "--model", str(model_file), "--data", str(csv),
                "--out", str(tmp_path / "out.txt"),
            ) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("command", ["train", "calibrate"])
    @pytest.mark.parametrize("label", ["1.5", "nan", "-1"])
    def test_bad_label_exit_code_3(self, tmp_path, command, label):
        # a label is a class index: no truncation, no bare ValueError
        data = tmp_path / "d.csv"
        data.write_text(f"0.5,0.1,0\n-0.5,0.2,{label}\n")
        out = tmp_path / "out.txt"
        argv = [command, "--data", str(data), "--out", str(out)]
        if command == "calibrate":
            model_file = tmp_path / "m.txt"
            model_file.write_text(_model_text())
            argv += ["--model", str(model_file)]
        assert self.run(*argv) == 3
        assert not out.exists()

    @pytest.mark.parametrize("feature", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exit_code_3(self, tmp_path, params, keys, feature):
        # a feature the encoder cannot take is malformed data, like a bad label
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        pk = tmp_path / "pk.bin"
        pk.write_bytes(serialize.public_key_to_bytes(keys.pk))
        data = tmp_path / "x.csv"
        data.write_text(f"0.5,0.1\n{feature},0.2\n")
        out = tmp_path / "o.hct"
        assert self.run(
            "encrypt", "--pk", str(pk), "--params", str(params_file),
            "--input", str(data), "--out", str(out),
        ) == 3
        assert not out.exists()

    def test_oversized_feature_exit_code_3(self, tmp_path, params, keys, capsys):
        # finite but beyond 2^62 / scale: a format error naming the limit,
        # raised before the encoder's FFT could overflow and warn
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        pk = tmp_path / "pk.bin"
        pk.write_bytes(serialize.public_key_to_bytes(keys.pk))
        data = tmp_path / "x.csv"
        data.write_text("0.5,0.1\n1e300,0.2\n")
        out = tmp_path / "o.hct"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.run(
                "encrypt", "--pk", str(pk), "--params", str(params_file),
                "--input", str(data), "--out", str(out),
            )
        assert code == 3
        assert not out.exists()
        limit = encoding.MAX_COEFF / params.scale
        assert f"{limit:.6g}" in capsys.readouterr().err

    def test_readme_walkthrough_depth_matches_pipeline(self):
        # the walkthrough's parameter file must fit the default pipeline
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        depths = re.findall(r"^hnn params .*--depth (\d+)", readme, re.MULTILINE)
        assert len(depths) == 1
        head_cfg = neural.head_config(neural.SoftArgmaxHead())
        assert int(depths[0]) == neural.pipeline_depth(head_cfg)

    def test_exit_codes(self, tmp_path, params, keys):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        # usage: unknown command
        assert self.run("frobnicate") == 2
        assert self.run("bench", "--kernel", "ntt", "--params", str(params_file)) == 2
        # format: corrupted blob
        blob = bytearray(serialize.public_key_to_bytes(keys.pk))
        blob[50] ^= 0xFF
        bad = tmp_path / "bad_pk.bin"
        bad.write_bytes(bytes(blob))
        csv = tmp_path / "x.csv"
        np.savetxt(csv, np.zeros((2, 2)), delimiter=",")
        code = self.run(
            "encrypt", "--pk", str(bad), "--params", str(params_file),
            "--input", str(csv), "--out", str(tmp_path / "o.hct"),
        )
        assert code == 3
        # i/o: missing input file
        good_pk = tmp_path / "pk.bin"
        good_pk.write_bytes(serialize.public_key_to_bytes(keys.pk))
        code = self.run(
            "encrypt", "--pk", str(good_pk), "--params", str(params_file),
            "--input", str(tmp_path / "missing.csv"), "--out",
            str(tmp_path / "o.hct"),
        )
        assert code == 5

    @pytest.mark.parametrize("classes", ["0", "1"])
    def test_decrypt_class_count_below_two_exit_code_2(
        self, tmp_path, params, keys, classes
    ):
        # --classes 0 used to label every sample -1, and --classes 1 every 0
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(serialize.secret_key_to_bytes(keys.sk))
        rng = np.random.default_rng(22)
        ct = neural.encrypt_features(keys.pk, rng.uniform(1, 2, (4, 1)), rng)[0]
        bundle = tmp_path / "scores.hct"
        bundle.write_bytes(_score_blob(params, ct))
        out = tmp_path / "out.csv"
        argv = ["decrypt", "--sk", str(sk_file), "--params", str(params_file),
                "--input", str(bundle), "--out", str(out)]
        assert self.run(*argv, "--classes", classes) == 2
        assert not out.exists()
        assert self.run(*argv, "--classes", "2") == 0

    def _score_argv(self, tmp_path, params, keys, sk, value):
        """decrypt argv for a score bundle whose slots all hold ``value``
        under ``keys``, decrypted with ``sk``."""
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(serialize.secret_key_to_bytes(sk))
        rng = np.random.default_rng(23)
        ct = neural.encrypt_features(keys.pk, np.full((4, 1), value), rng)[0]
        bundle = tmp_path / "scores.hct"
        bundle.write_bytes(_score_blob(params, ct))
        return ["decrypt", "--sk", str(sk_file), "--params", str(params_file),
                "--input", str(bundle), "--out", str(tmp_path / "out.csv")]

    def test_decrypt_score_beyond_classes_exit_code_2(
        self, tmp_path, params, keys, capsys
    ):
        # 3.0 used to be clipped silently to class 1 under the default
        # --classes 2; only a head over >= 3 classes can produce it
        argv = self._score_argv(tmp_path, params, keys, keys.sk, 3.0)
        assert self.run(*argv) == 2
        assert not (tmp_path / "out.csv").exists()
        assert "outside [0.5, 2.5]" in capsys.readouterr().err
        assert self.run(*argv, "--classes", "3") == 0
        rows = np.loadtxt(tmp_path / "out.csv", delimiter=",", ndmin=2)
        assert np.array_equal(rows[:, 1], [2, 2, 2, 2])

    def test_decrypt_with_other_sk_exit_code_2(self, tmp_path, params, keys):
        # a non-matching sk decodes to noise the size of the modulus
        other = scheme.keygen(params, np.random.default_rng(31338))
        argv = self._score_argv(tmp_path, params, keys, other.sk, 1.5)
        assert self.run(*argv) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_python_m_hnn_cli_warns_nothing(self):
        # hnn/__init__ must not import cli, or runpy warns that hnn.cli
        # is already in sys.modules before running it as __main__
        src = Path(__file__).parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hnn.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: hnn" in proc.stdout

    def test_import_loads_no_scipy(self):
        # the AUROC is a numpy pair count, so numpy is the one dependency
        src = Path(__file__).parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys, hnn, hnn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("modulus_bits", ",".join(["42"] + ["41"] * 199), "200 primes exceeds 31"),
            ("ring_degree", "1073741824", "ring degree 1073741824 exceeds 32768"),
        ],
        ids=["200-primes", "degree-2^30"],
    )
    def test_oversized_params_file_refused_before_any_search(
        self, tmp_path, params, capsys, field, value, match
    ):
        # a 200-prime chain once took seconds to load, and a 2^30 degree
        # loaded and then asked for 8 GiB NTT tables
        text = re.sub(
            rf"^{field} = .*$", f"{field} = {value}", serialize.params_to_text(params),
            flags=re.M,
        )
        assert "allow_insecure = true" in text
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=match):
            serialize.params_from_text(text)
        assert time.perf_counter() - start < 0.1
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        for name in ("m.txt", "evk.bin", "in.hct"):
            (tmp_path / name).write_bytes(b"")
        start = time.perf_counter()
        code = self.run(
            "infer", "--model", str(tmp_path / "m.txt"), "--evk",
            str(tmp_path / "evk.bin"), "--params", str(bad), "--input",
            str(tmp_path / "in.hct"), "--out", str(tmp_path / "out.hct"),
        )
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "out.hct").exists()

    def test_train_head_defaults_are_softmax_config_defaults(self):
        args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "m"])
        cfg = approx.SoftmaxConfig()
        assert (args.radius, args.exp_degree, args.inv_iterations) == (
            cfg.radius, cfg.exp_degree, cfg.inv_iterations,
        )

    def test_bad_params_value_exit_code(self, tmp_path, params):
        text = serialize.params_to_text(params).replace(
            f"slots = {params.slot_capacity}", "slots = sixteen"
        )
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert self.run("keygen", "--params", str(bad), "--out-dir", str(tmp_path)) == 3

    @pytest.mark.parametrize(
        "field, value",
        [("ring_degree", "0"), ("ring_degree", "3"), ("slots", "0"), ("slots", "-4")],
    )
    def test_out_of_range_params_value_exit_code_2(self, tmp_path, params, field, value):
        # ring degree 0 once divided by zero in the prime search (exit 1),
        # and a slot count below 1 loaded and made keys (exit 0)
        text = re.sub(
            rf"^{field} = .*$", f"{field} = {value}", serialize.params_to_text(params),
            flags=re.M,
        )
        with pytest.raises(ParameterError):
            serialize.params_from_text(text)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        out = tmp_path / "keys"
        assert self.run("keygen", "--params", str(bad), "--out-dir", str(out)) == 2
        assert not out.exists()

    def test_crypto_state_exit_code(self, tmp_path, params, keys):
        # infer on a shallow chain exhausts levels -> exit 4
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        rng = np.random.default_rng(8)
        feats = rng.uniform(-1, 1, (4, 2))
        cts = neural.encrypt_features(keys.pk, feats, rng)
        bundle = tmp_path / "b.hct"
        bundle.write_bytes(
            serialize.bundle_to_bytes(
                serialize.Bundle(serialize.BUNDLE_FEATURES, 4, cts), params
            )
        )
        model = neural.LinearModel(np.zeros((2, 2)), np.zeros(2))
        head = neural.SoftArgmaxHead(1.0, 2)
        model_file = tmp_path / "m.txt"
        model_file.write_text(serialize.model_to_text(model, head, 2.0, 7, 5))
        evk_file = tmp_path / "evk.bin"
        evk_file.write_bytes(serialize.relin_key_to_bytes(keys.evk))
        code = self.run(
            "infer", "--model", str(model_file), "--evk", str(evk_file),
            "--params", str(params_file), "--input", str(bundle), "--out",
            str(tmp_path / "out.hct"),
        )
        assert code == 4
