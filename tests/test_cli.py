import dataclasses
import hashlib
import math
import os
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnn import approx, cli, encoding, neural, ring, scheme, serialize
from hnn.errors import FormatError, ParamsHashMismatch


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
        "field, bad",
        [
            ("ring_degree", "lots"),
            ("modulus_bits", "42,x"),
            ("err_std", "3.2.1"),
            ("err_std", "nan"),
            ("noise_budget_bits", "inf"),
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


class TestBlobs:
    def test_key_roundtrips(self, params, keys):
        pk2 = serialize.public_key_from_bytes(
            serialize.public_key_to_bytes(keys.pk), params
        )
        assert np.array_equal(pk2.b.residues, keys.pk.b.residues)
        assert np.array_equal(pk2.a.residues, keys.pk.a.residues)
        sk2 = serialize.secret_key_from_bytes(
            serialize.secret_key_to_bytes(keys.sk), params
        )
        assert np.array_equal(sk2.s.residues, keys.sk.s.residues)
        evk2 = serialize.relin_key_from_bytes(
            serialize.relin_key_to_bytes(keys.evk), params
        )
        assert len(evk2.components) == len(keys.evk.components)
        for (b1, a1), (b2, a2) in zip(keys.evk.components, evk2.components):
            assert np.array_equal(b1.residues, b2.residues)
            assert np.array_equal(a1.residues, a2.residues)

    def test_ciphertext_roundtrip_and_decrypt(self, params, keys):
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, params.slot_capacity)
        ct = scheme.encrypt(
            keys.pk, encoding.encode(v, params.scale, params.ring), rng
        )
        ct2 = serialize.ciphertext_from_bytes(
            serialize.ciphertext_to_bytes(ct), params
        )
        assert ct2.scale == ct.scale
        assert ct2.noise_bits == ct.noise_bits
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
        e = ring.ring_add(pk2.b, ring.ring_mul(pk2.a, sk2.s))
        signed, _ = ring.compose_signed(ring.ntt_inverse(e))
        assert max(abs(int(x)) for x in signed) < 6 * params.err_std

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

    def test_wrong_params_hash_rejected(self, params, keys):
        other = scheme.param_gen(128, 16, 2, scale_bits=40, allow_insecure=True)
        blob = serialize.public_key_to_bytes(keys.pk)
        with pytest.raises(ParamsHashMismatch):
            serialize.public_key_from_bytes(blob, other)

    def test_wrong_kind_rejected(self, params, keys):
        blob = serialize.public_key_to_bytes(keys.pk)
        with pytest.raises(FormatError):
            serialize.secret_key_from_bytes(blob, params)

    def test_format_is_little_endian_with_golden_header(self, params, keys):
        blob = serialize.public_key_to_bytes(keys.pk)
        assert blob[:4] == b"HNN1"
        assert blob[4] == serialize.KIND_PK
        # version u16 little-endian: 0x0001 -> bytes 01 00
        assert blob[5:7] == b"\x01\x00"
        assert blob[7:39] == serialize.params_hash(params)

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
        pk_len = next(iter(sizes))[0]
        overhead = 4 + 3 + 32 + 8 + 32
        element_bytes = 8 * params.ring.ring_degree * params.ring.level_count
        assert pk_len == overhead + 2 * (5 + element_bytes)


def _reseal(blob, offset, packed):
    """Overwrite bytes of a blob and recompute its checksum, so only the
    semantic checks can catch the change."""
    body = bytearray(blob[:-32])
    body[offset : offset + len(packed)] = packed
    return bytes(body) + hashlib.sha256(body).digest()


# ciphertext payload header "<BIddd" starts after the 47-byte blob header
_CT_PARTS, _CT_LEVEL, _CT_SCALE, _CT_NOISE, _CT_BOUND = 47, 48, 52, 60, 68


def _appended_part(blob, n_parts):
    """A 2-part ciphertext blob resealed with a copy of its first part
    appended and the header's part count set to ``n_parts``."""
    payload = bytearray(blob[47:-32])
    payload[0] = n_parts
    payload += payload[29 : 29 + (len(payload) - 29) // 2]
    body = blob[:39] + struct.pack("<Q", len(payload)) + bytes(payload)
    return body + hashlib.sha256(body).digest()


def _tampered(ct, what):
    blob = serialize.ciphertext_to_bytes(ct)
    if what in ("three parts", "trailing part"):
        return _appended_part(blob, 3 if what == "three parts" else 2)
    offset, fmt, value = {
        "zero parts": (_CT_PARTS, "<B", 0),
        "four parts": (_CT_PARTS, "<B", 4),
        "part level": (_CT_LEVEL, "<I", ct.level - 1),
        "zero scale": (_CT_SCALE, "<d", 0.0),
        "negative scale": (_CT_SCALE, "<d", -ct.scale),
        "inf scale": (_CT_SCALE, "<d", math.inf),
        "nan noise": (_CT_NOISE, "<d", math.nan),
        "inf noise": (_CT_NOISE, "<d", math.inf),
        "nan bound": (_CT_BOUND, "<d", math.nan),
        "inf bound": (_CT_BOUND, "<d", math.inf),
        # domain flag of the first part: level u32, then domain u8
        "coefficient part": (_CT_BOUND + 8 + 4, "<B", 0),
        "part domain flag 2": (_CT_BOUND + 8 + 4, "<B", 2),
    }[what]
    return _reseal(blob, offset, struct.pack(fmt, value))


def _manifest(kind, count, n_samples, version=serialize.BUNDLE_VERSION):
    """Bundle manifest written out by hand: fields, then their sha256."""
    fields = serialize.BUNDLE_MAGIC + struct.pack(
        "<HBII", version, kind, count, n_samples
    )
    return fields + hashlib.sha256(fields).digest()


_TAMPERS = [
    "zero parts", "three parts", "trailing part", "four parts", "part level", "zero scale", "negative scale",
    "inf scale", "nan noise", "inf noise", "nan bound", "inf bound",
    "coefficient part", "part domain flag 2",
]


class TestCiphertextHeader:
    @pytest.fixture(scope="class")
    def ct(self, params, keys):
        rng = np.random.default_rng(6)
        return neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (4, 1)), rng)[0]

    def test_pristine_blob_loads_through_guards(self, params, ct):
        blob = serialize.ciphertext_to_bytes(ct)
        back = serialize.ciphertext_from_bytes(blob, params)
        assert (back.level, back.scale, back.noise_bits) == (
            ct.level, ct.scale, ct.noise_bits,
        )

    @pytest.mark.parametrize("what", _TAMPERS)
    def test_tampered_header_is_format_error(self, params, ct, what):
        with pytest.raises(FormatError):
            serialize.ciphertext_from_bytes(_tampered(ct, what), params)

    @pytest.mark.parametrize("what", _TAMPERS)
    def test_tampered_header_exit_code_3(self, tmp_path, params, keys, ct, what):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(serialize.secret_key_to_bytes(keys.sk))
        blob = _tampered(ct, what)
        bundle = tmp_path / "scores.hct"
        bundle.write_bytes(
            _manifest(serialize.BUNDLE_SCORES, 1, 4)
            + struct.pack("<Q", len(blob))
            + blob
        )
        code = cli.main([
            "decrypt", "--sk", str(sk_file), "--params", str(params_file),
            "--input", str(bundle), "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 3


# relin key payload header "<BI" (gadget byte, component count) after
# the blob header; the first component's domain flag follows its level
_EVK_GADGET, _EVK_COUNT, _EVK_FIRST_DOMAIN = 47, 48, 47 + 5 + 4

_EVK_TAMPERS = [
    "gadget 20", "gadget 1", "short count", "long count", "low component",
    "coefficient component", "trailing bytes",
]


def _tampered_evk(evk, what):
    blob = serialize.relin_key_to_bytes(evk)
    count = len(evk.components)
    if what == "short count":
        # a well-formed blob one component short: only the count rule sees it
        return serialize.relin_key_to_bytes(
            dataclasses.replace(evk, components=evk.components[:-1])
        )
    if what == "low component":
        b, a = evk.components[0]
        low = (ring.drop_level(b, b.level - 1), ring.drop_level(a, a.level - 1))
        return serialize.relin_key_to_bytes(
            dataclasses.replace(evk, components=(low,) + evk.components[1:])
        )
    if what == "trailing bytes":
        payload = blob[47:-32] + b"\0"
        return serialize._blob(serialize.KIND_EVK, blob[7:39], payload)
    offset, fmt, value = {
        "gadget 20": (_EVK_GADGET, "<B", 20),
        "gadget 1": (_EVK_GADGET, "<B", 1),
        "long count": (_EVK_COUNT, "<I", count + 1),
        "coefficient component": (_EVK_FIRST_DOMAIN, "<B", 0),
    }[what]
    return _reseal(blob, offset, struct.pack(fmt, value))


class TestRelinKeyBlob:
    def test_one_component_per_prime_round_trip(self, params, keys):
        blob = serialize.relin_key_to_bytes(keys.evk)
        assert blob[_EVK_GADGET] == 0
        evk = serialize.relin_key_from_bytes(blob, params)
        assert len(evk.components) == params.ring.level_count

    @pytest.mark.parametrize("what", _EVK_TAMPERS)
    def test_tampered_evk_is_format_error(self, params, keys, what):
        with pytest.raises(FormatError):
            serialize.relin_key_from_bytes(_tampered_evk(keys.evk, what), params)

    def test_old_gadget_names_the_regeneration(self, params, keys):
        blob = _tampered_evk(keys.evk, "gadget 20")
        msg = "20 there uses the retired base-2\\^20 gadget and must be regenerated"
        with pytest.raises(FormatError, match=msg):
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


# a pk or sk payload starts with its first element: level u32, domain u8
_KEY_FIRST_DOMAIN = 47 + 4

_KEY_TAMPERS = ["coefficient element", "domain flag 2", "low element", "trailing bytes"]


def _tampered_key(key, what):
    """A pk or sk blob with one defect in its first element or its payload
    end, resealed so that only the loader's semantic checks can catch it."""
    to_bytes, kind, first = {
        scheme.PublicKey: (serialize.public_key_to_bytes, serialize.KIND_PK, "b"),
        scheme.SecretKey: (serialize.secret_key_to_bytes, serialize.KIND_SK, "s"),
    }[type(key)]
    blob = to_bytes(key)
    if what == "low element":
        el = getattr(key, first)
        low = ring.drop_level(el, el.level - 1)
        return to_bytes(dataclasses.replace(key, **{first: low}))
    if what == "trailing bytes":
        return serialize._blob(kind, blob[7:39], blob[47:-32] + b"junk")
    flag = {"coefficient element": 0, "domain flag 2": 2}[what]
    return _reseal(blob, _KEY_FIRST_DOMAIN, struct.pack("<B", flag))


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


    def test_ciphertext_count_rules(self, params, keys):
        # a feature bundle needs at least one ciphertext, a score bundle
        # exactly one; both manifests are checksummed, so only the count
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
    MANIFEST_LEN = 15 + 32

    @pytest.fixture(scope="class")
    def data(self, params, keys):
        rng = np.random.default_rng(4)
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (16, 1)), rng)
        return serialize.bundle_to_bytes(
            serialize.Bundle(serialize.BUNDLE_FEATURES, 16, cts), params
        )

    def test_golden_layout(self, data):
        assert data[: self.MANIFEST_LEN] == _manifest(serialize.BUNDLE_FEATURES, 1, 16)

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

    def test_version_1_bundle_rejected_with_reason(self, params, data):
        v1 = (
            serialize.BUNDLE_MAGIC
            + struct.pack("<HBII", 1, serialize.BUNDLE_FEATURES, 1, 16)
            + data[self.MANIFEST_LEN :]
        )
        with pytest.raises(FormatError, match="bundle version 1"):
            serialize.bundle_from_bytes(v1, params)

    @pytest.mark.parametrize("kind,n_samples", [(2, 16), (0, 17), (0, 1 << 24)])
    def test_checksummed_bad_fields_rejected(self, params, data, kind, n_samples):
        # params.ring has N = 32, so 16 slots
        assert params.ring.ring_degree // 2 == 16
        bad = _manifest(kind, 1, n_samples) + data[self.MANIFEST_LEN :]
        with pytest.raises(FormatError):
            serialize.bundle_from_bytes(bad, params)

    def test_flipped_manifest_exit_code_3(self, tmp_path, params, keys, data):
        params_file = tmp_path / "p.txt"
        serialize.save_params(params, params_file)
        sk_file = tmp_path / "sk.bin"
        sk_file.write_bytes(serialize.secret_key_to_bytes(keys.sk))
        bad = bytearray(data)
        bad[6] ^= 1  # kind: features -> scores
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

    def test_bad_params_value_exit_code(self, tmp_path, params):
        text = serialize.params_to_text(params).replace(
            f"slots = {params.slot_capacity}", "slots = sixteen"
        )
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert self.run("keygen", "--params", str(bad), "--out-dir", str(tmp_path)) == 3

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
