"""Stable on-disk formats: key/ciphertext blobs, parameter files, bundles.

Blob layout (all integers little-endian):

    magic    4 bytes  "HNN1"
    kind     u8       0=pk 1=sk 2=evk 3=ct
    version  u16
    params_hash  32 bytes (sha256 of the canonical parameter file text)
    payload_len  u64
    payload      kind-specific
    checksum     32 bytes sha256 of everything above

Ring elements serialize as level u32, domain u8 (0 Coefficient,
1 Evaluation), then (level+1)*N coefficients as u64 words in chain order,
coefficients ascending. Every key element (pk b, a; sk s; each evk pair)
is at the top level in the Evaluation domain, and a key payload ends
with its last element. Key blob sizes are a fixed function of the
parameter set, independent of any circuit later evaluated. A bundle
file is a manifest ("HNNB", version u16, kind u8, ciphertext count u32,
slot occupancy u32, then the sha256 of those 15 bytes) followed by
length-prefixed ciphertext blobs. An evk is a gadget byte 0 (one digit
per prime), a u32 count, and one (b_j, a_j) pair per prime.

Every load verifies the checksums and the parameter hash; a single
flipped byte fails loudly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import struct

import numpy as np

from . import ring, scheme
from .errors import FormatError, ParamsHashMismatch

MAGIC = b"HNN1"
BUNDLE_MAGIC = b"HNNB"
FORMAT_VERSION = 1
BUNDLE_VERSION = 2  # v1 bundles had no manifest checksum

KIND_PK = 0
KIND_SK = 1
KIND_EVK = 2
KIND_CT = 3

BUNDLE_FEATURES = 0
BUNDLE_SCORES = 1
_MANIFEST = struct.Struct("<4sHBII")


def _add_field(kv: dict, line: str, what: str):
    """Record a ``key = value`` line of a text file; a repeated key is a
    FormatError, so no line silently replaces an earlier one. The loaders
    pop each field they parse and reject any left over as unknown."""
    key, val = (part.strip() for part in line.split("=", 1))
    if key in kv:
        raise FormatError(f"duplicate {what} field {key!r}")
    kv[key] = val


# ---------------------------------------------------------------------------
# Parameter files
# ---------------------------------------------------------------------------

def params_to_text(params: scheme.SchemeParams) -> str:
    """Canonical text rendering; loading and re-saving is the identity."""
    bits = ",".join(str(q.bit_length()) for q in params.ring.moduli)
    lines = [
        "hnn-params v1",
        f"lambda = {params.security_level}",
        f"ring_degree = {params.ring.ring_degree}",
        f"modulus_bits = {bits}",
        f"scale_bits = {int(round(math.log2(params.scale)))}",
        f"slots = {params.slot_capacity}",
        f"secret_weight = {params.secret_weight}",
        f"err_std = {params.err_std:.17g}",
        f"noise_budget_bits = {params.noise_budget_bits:.17g}",
        f"allow_insecure = {'true' if params.allow_insecure else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> scheme.SchemeParams:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "hnn-params v1":
        raise FormatError("not a parameter file (missing 'hnn-params v1' header)")
    kv = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise FormatError(f"malformed parameter line: {ln!r}")
        _add_field(kv, ln, "parameter")
    # parse every field before building anything, so that only malformed
    # text (not a ParameterError from the values) becomes a FormatError
    try:
        n = int(kv.pop("ring_degree"))
        bits = [int(b) for b in kv.pop("modulus_bits").split(",")]
        fields = dict(
            security_level=int(kv.pop("lambda")),
            scale=float(2 ** int(kv.pop("scale_bits"))),
            slot_capacity=int(kv.pop("slots")),
            secret_weight=int(kv.pop("secret_weight")),
            err_std=float(kv.pop("err_std")),
            noise_budget_bits=float(kv.pop("noise_budget_bits")),
            allow_insecure={"true": True, "false": False}[kv.pop("allow_insecure")],
        )
    except KeyError as exc:
        raise FormatError(f"parameter file missing field or value {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"malformed parameter value: {exc}") from exc
    if kv:
        raise FormatError(f"unknown parameter fields {sorted(kv)}")
    if not all(map(math.isfinite, (fields["err_std"], fields["noise_budget_bits"]))):
        raise FormatError("err_std and noise_budget_bits must be finite")
    rp = ring.RingParams(n, ring.find_ntt_primes(n, bits))
    return scheme.SchemeParams(ring=rp, **fields)


def params_hash(params: scheme.SchemeParams) -> bytes:
    return hashlib.sha256(params_to_text(params).encode()).digest()


def save_params(params: scheme.SchemeParams, path):
    with open(path, "w") as fh:
        fh.write(params_to_text(params))


def load_params(path) -> scheme.SchemeParams:
    with open(path) as fh:
        return params_from_text(fh.read())


# ---------------------------------------------------------------------------
# Primitive writers/readers
# ---------------------------------------------------------------------------

def _write_element(buf: io.BytesIO, el: ring.RingElement):
    buf.write(struct.pack("<IB", el.level, 1 if el.domain == ring.Domain.EVALUATION else 0))
    buf.write(el.residues.astype("<u8").tobytes())


def _read_element(buf, params: scheme.SchemeParams) -> ring.RingElement:
    raw = buf.read(5)
    if len(raw) != 5:
        raise FormatError("truncated ring element header")
    level, domain_flag = struct.unpack("<IB", raw)
    rp = params.ring
    if level >= rp.level_count:
        raise FormatError(f"element level {level} outside chain")
    count = (level + 1) * rp.ring_degree
    data = buf.read(8 * count)
    if len(data) != 8 * count:
        raise FormatError("truncated ring element body")
    res = np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(
        level + 1, rp.ring_degree
    )
    if np.any(res >= rp._q_col[: level + 1]):
        raise FormatError("residue outside modulus range")
    if domain_flag not in (0, 1):
        raise FormatError(f"element domain flag {domain_flag}, not 0 or 1")
    domain = ring.Domain.EVALUATION if domain_flag else ring.Domain.COEFFICIENT
    return ring.RingElement(rp, level, res, domain)


def _read_key_elements(buf, params: scheme.SchemeParams, count: int, what: str) -> list:
    """``count`` elements that must be top-level, in the Evaluation domain,
    and end the payload."""
    rp = params.ring
    els = [_read_element(buf, params) for _ in range(count)]
    for el in els:
        if el.level != rp.max_level or el.domain != ring.Domain.EVALUATION:
            raise FormatError(f"{what} element not at the top level in Evaluation domain")
    if buf.read(1):
        raise FormatError(f"trailing bytes in {what}")
    return els


def _blob(kind: int, hash32: bytes, payload: bytes) -> bytes:
    head = MAGIC + struct.pack("<BH", kind, FORMAT_VERSION) + hash32
    head += struct.pack("<Q", len(payload))
    body = head + payload
    return body + hashlib.sha256(body).digest()


def _open_blob(data: bytes, expected_kind: int, params: scheme.SchemeParams) -> bytes:
    if len(data) < 4 + 3 + 32 + 8 + 32:
        raise FormatError("blob too short")
    if data[:4] != MAGIC:
        raise FormatError("bad magic; not a key/ciphertext blob")
    kind, version = struct.unpack("<BH", data[4:7])
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported blob version {version}")
    if kind != expected_kind:
        raise FormatError(f"expected blob kind {expected_kind}, found {kind}")
    hash32 = data[7:39]
    (payload_len,) = struct.unpack("<Q", data[39:47])
    end = 47 + payload_len
    if len(data) != end + 32:
        raise FormatError("blob length mismatch")
    checksum = data[end:]
    if hashlib.sha256(data[:end]).digest() != checksum:
        raise FormatError("checksum failure; blob corrupted")
    if hash32 != params_hash(params):
        raise ParamsHashMismatch(
            "blob was produced under a different parameter set"
        )
    return data[47:end]


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def public_key_to_bytes(pk: scheme.PublicKey) -> bytes:
    buf = io.BytesIO()
    _write_element(buf, pk.b)
    _write_element(buf, pk.a)
    return _blob(KIND_PK, params_hash(pk.scheme), buf.getvalue())


def public_key_from_bytes(data: bytes, params: scheme.SchemeParams) -> scheme.PublicKey:
    buf = io.BytesIO(_open_blob(data, KIND_PK, params))
    b, a = _read_key_elements(buf, params, 2, "public key")
    return scheme.PublicKey(params, b, a)


def secret_key_to_bytes(sk: scheme.SecretKey) -> bytes:
    buf = io.BytesIO()
    _write_element(buf, sk.s)
    return _blob(KIND_SK, params_hash(sk.scheme), buf.getvalue())


def secret_key_from_bytes(data: bytes, params: scheme.SchemeParams) -> scheme.SecretKey:
    buf = io.BytesIO(_open_blob(data, KIND_SK, params))
    (s,) = _read_key_elements(buf, params, 1, "secret key")
    return scheme.SecretKey(params, s)


def relin_key_to_bytes(evk: scheme.RelinKey) -> bytes:
    buf = io.BytesIO()
    buf.write(struct.pack("<BI", 0, len(evk.components)))
    for b_j, a_j in evk.components:
        _write_element(buf, b_j)
        _write_element(buf, a_j)
    return _blob(KIND_EVK, params_hash(evk.scheme), buf.getvalue())


def relin_key_from_bytes(data: bytes, params: scheme.SchemeParams) -> scheme.RelinKey:
    buf = io.BytesIO(_open_blob(data, KIND_EVK, params))
    raw = buf.read(5)
    if len(raw) != 5:
        raise FormatError("truncated relin key header")
    gadget, count = struct.unpack("<BI", raw)
    if gadget != 0:
        raise FormatError(
            f"relin key gadget byte {gadget}, not 0: a key with 20 there uses the "
            "retired base-2^20 gadget and must be regenerated (hnn keygen)"
        )
    rp = params.ring
    if count != rp.level_count:
        raise FormatError(f"relin key has {count} components for {rp.level_count} primes")
    parts = _read_key_elements(buf, params, 2 * count, "relin key")
    return scheme.RelinKey(params, tuple(zip(parts[::2], parts[1::2])))


# ---------------------------------------------------------------------------
# Ciphertexts
# ---------------------------------------------------------------------------

def ciphertext_to_bytes(ct: scheme.Ciphertext) -> bytes:
    buf = io.BytesIO()
    buf.write(
        struct.pack(
            "<BIddd", len(ct.parts), ct.level, ct.scale, ct.noise_bits, ct.value_bound
        )
    )
    for p in ct.parts:
        _write_element(buf, p)
    return _blob(KIND_CT, params_hash(ct.scheme), buf.getvalue())


def ciphertext_from_bytes(data: bytes, params: scheme.SchemeParams) -> scheme.Ciphertext:
    buf = io.BytesIO(_open_blob(data, KIND_CT, params))
    raw = buf.read(29)
    if len(raw) != 29:
        raise FormatError("truncated ciphertext header")
    n_parts, level, scale, noise_bits, value_bound = struct.unpack("<BIddd", raw)
    if n_parts != 2:
        raise FormatError(f"ciphertext with {n_parts} parts, not 2")
    # noise_bits may be -inf: the ledger's log2 of an exact zero error
    finite = noise_bits < math.inf and math.isfinite(value_bound)
    if not (0 < scale < math.inf and finite):
        raise FormatError(
            f"bad ciphertext ledger: scale={scale}, noise_bits={noise_bits}, "
            f"value_bound={value_bound}"
        )
    parts = tuple(_read_element(buf, params) for _ in range(n_parts))
    for p in parts:
        if p.level != level or p.domain != ring.Domain.EVALUATION:
            raise FormatError("ciphertext part level or domain disagrees with header")
    if buf.read(1):
        raise FormatError("trailing bytes in ciphertext")
    return scheme.Ciphertext(
        scheme=params,
        parts=parts,
        level=level,
        scale=scale,
        noise_bits=noise_bits,
        value_bound=value_bound,
    )


# ---------------------------------------------------------------------------
# Ciphertext bundles
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Bundle:
    """Ordered ciphertexts plus a manifest.

    kind BUNDLE_FEATURES: one ciphertext per input feature (column
    packing); kind BUNDLE_SCORES: a single soft-argmax ciphertext.
    n_samples records slot occupancy.
    """

    kind: int
    n_samples: int
    ciphertexts: list


def bundle_to_bytes(bundle: Bundle, params: scheme.SchemeParams) -> bytes:
    manifest = _MANIFEST.pack(
        BUNDLE_MAGIC, BUNDLE_VERSION, bundle.kind, len(bundle.ciphertexts),
        bundle.n_samples,
    )
    # joined once: a growing buffer is reallocated as it grows, which left
    # peak memory to the allocator's state
    pieces = [manifest, hashlib.sha256(manifest).digest()]
    for ct in bundle.ciphertexts:
        blob = ciphertext_to_bytes(ct)
        pieces += [struct.pack("<Q", len(blob)), blob]
    return b"".join(pieces)


def bundle_from_bytes(data: bytes, params: scheme.SchemeParams) -> Bundle:
    if len(data) < _MANIFEST.size or data[:4] != BUNDLE_MAGIC:
        raise FormatError("not a ciphertext bundle")
    _, version, kind, count, n_samples = _MANIFEST.unpack_from(data)
    if version != BUNDLE_VERSION:
        raise FormatError(
            f"bundle version {version} unsupported: this build reads version "
            f"{BUNDLE_VERSION}, whose manifest is checksummed; re-encrypt"
        )
    off = _MANIFEST.size + 32
    if hashlib.sha256(data[: _MANIFEST.size]).digest() != data[_MANIFEST.size : off]:
        raise FormatError("bundle manifest truncated or corrupted")
    slots = params.ring.ring_degree // 2
    bad_count = count < 1 or (kind == BUNDLE_SCORES and count != 1)
    if kind not in (BUNDLE_FEATURES, BUNDLE_SCORES) or n_samples > slots or bad_count:
        raise FormatError(
            f"bad bundle manifest: kind {kind}, {count} ciphertexts (features need "
            f">= 1, scores 1), {n_samples} samples, {slots} slots"
        )
    cts = []
    for _ in range(count):
        if off + 8 > len(data):
            raise FormatError("truncated bundle")
        (blen,) = struct.unpack("<Q", data[off : off + 8])
        off += 8
        if off + blen > len(data):
            raise FormatError("truncated bundle entry")
        cts.append(ciphertext_from_bytes(data[off : off + blen], params))
        off += blen
    if off != len(data):
        raise FormatError("trailing bytes in bundle")
    return Bundle(kind, n_samples, cts)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def model_to_text(model, head, radius, exp_degree, inv_iterations, provenance=None):
    """Versioned text document for the probe + head; %.17g round-trips
    float64 exactly, so calibration freeze checks stay bit-exact."""
    lines = [
        "hnn-model v1",
        f"d_in = {model.d_in}",
        f"classes = {model.class_count}",
        f"temperature = {head.temperature:.17g}",
        f"logit_radius = {radius:.17g}",
        f"exp_degree = {exp_degree}",
        f"inv_iterations = {inv_iterations}",
    ]
    for key, val in (provenance or {}).items():
        lines.append(f"prov_{key} = {val}")
    for row in model.weights:
        lines.append("W " + " ".join(f"{w:.17g}" for w in row))
    lines.append("b " + " ".join(f"{v:.17g}" for v in model.bias))
    return "\n".join(lines) + "\n"


def _model_number(text: str, what: str, kind=float, positive=False):
    """A finite float (or int), > 0 if ``positive``, from a model file."""
    try:
        val = kind(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val) or (positive and val <= 0):
        sign = "positive " if positive else ""
        raise FormatError(f"model {what} {text!r} is not a {sign}finite {kind.__name__}")
    return val


def model_from_text(text: str):
    from . import neural  # local import to avoid a cycle

    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "hnn-model v1":
        raise FormatError("not a model file (missing 'hnn-model v1' header)")
    kv = {}
    w_rows = []
    bias = None
    for ln in lines[1:]:
        if ln.startswith("W "):
            w_rows.append([_model_number(x, "W entry") for x in ln[2:].split()])
        elif ln.startswith("b "):
            if bias is not None:
                raise FormatError("model file has a second b line")
            bias = [_model_number(x, "b entry") for x in ln[2:].split()]
        elif "=" in ln:
            _add_field(kv, ln, "model")
        else:
            raise FormatError(f"malformed model line: {ln!r}")
    try:
        d_in = _model_number(kv.pop("d_in"), "d_in", int)
        classes = _model_number(kv.pop("classes"), "classes", int)
        try:
            model = neural.LinearModel(np.array(w_rows), np.array(bias))
        except ValueError as exc:  # ragged W rows, a short or missing b line
            raise FormatError(f"malformed model matrix: {exc}") from exc
        if model.d_in != d_in or model.class_count != classes:
            raise FormatError("model matrix shape disagrees with header")
        temperature = _model_number(kv.pop("temperature"), "temperature", positive=True)
        head = neural.SoftArgmaxHead(temperature, classes)
        meta = {
            "radius": _model_number(kv.pop("logit_radius"), "logit_radius", float, True),
            "exp_degree": _model_number(kv.pop("exp_degree"), "exp_degree", int, True),
            "inv_iterations": _model_number(
                kv.pop("inv_iterations"), "inv_iterations", int, True
            ),
        }
        prov = {k[5:]: kv.pop(k) for k in list(kv) if k.startswith("prov_")}
        if kv:
            raise FormatError(f"unknown model fields {sorted(kv)}")
        return model, head, meta, prov
    except KeyError as exc:
        raise FormatError(f"model file missing field {exc}") from exc
