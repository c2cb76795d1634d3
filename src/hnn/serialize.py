"""Stable on-disk formats: one checksummed blob for keys and ciphertext
bundles, plus the parameter and model text files.

Blob layout, version 5 (integers little-endian):

    magic        4 bytes   "HNN1"
    kind         u8        0 pk, 1 sk, 2 evk, 3 bundle
    version      u16       5
    params_hash  32 bytes  sha256 of the canonical parameter file text
    payload      kind-specific, below
    checksum     32 bytes  sha256 of everything above

A ring element is a bare residue block: an element at level l is
(l+1)*N u64 words, one row per prime in chain order, each word below its
prime. The block carries no level or domain of its own: a key's is the
Evaluation domain, and a ciphertext's record gives both. A ciphertext's
RLWE pair, held as one (2, l+1, N) element, is its two parts' blocks
back to back. A key pair (b, a) ships b's block and the 32-byte seed
that fixes its uniform half, a = ring.sample_uniform(chain, top, seed).

    kind    payload
    pk      b, seed                   one top-level pair
    sk      s                         top-level block
    evk     b_0, seed_0, ...,         key-ring top-level pairs, one per
            b_D, seed_D               key-switching digit
    bundle  bundle kind u8 (0 features, 1 scores), ciphertext count u32,
            n_samples u32; then per ciphertext its record (level u32,
            scale f64, noise_bits f64, value_bound f64, domain u8:
            0 Coefficient, 1 Evaluation) and its c0, c1 pair at that
            level and in that domain

A key-ring block holds k + L + 1 rows: the k special primes, then the
chain (``scheme.SchemeParams.key_ring``). So a key blob's size is fixed
by the parameter set. A feature bundle holds one ciphertext per input
feature (column packing), a score bundle exactly one; n_samples is the
slot occupancy.

Every load checks magic, version, kind, length, checksum and parameter
hash, then each field that can still vary: the bundle kind, count and
n_samples, level <= max_level, a positive finite scale, a ledger that is
neither NaN nor +inf, a domain byte of 0 or 1, every residue below its
prime, and no trailing bytes. A key loader expands each a from its seed
(any seed is valid), so loaded keys hold full pairs. Other loaded
residues are read-only views of the blob's bytes, and `scheme.Ciphertext`
runs its ledger guards on every loaded ciphertext. A blob of versions 1
to 4 (version 2 held one evk component per prime, over the chain alone;
version 3's bundle records had no domain byte and held Evaluation-domain
pairs; version 4 held each key's a block in place of its seed) or an
HNNB bundle is refused with a FormatError that says how to regenerate
it.

The parameter file is ``key = value`` text under an ``hnn-params v2``
header: lambda, ring_degree, modulus_bits (the primes' bit sizes),
scale_bits, slots and allow_insecure. All else is derived
(``scheme.SchemeParams``), so any other line is an unknown field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct

import numpy as np

from . import ring, scheme
from .errors import FormatError, ParamsHashMismatch

MAGIC = b"HNN1"
FORMAT_VERSION = 5

KIND_PK = 0
KIND_SK = 1
KIND_EVK = 2
KIND_BUNDLE = 3

BUNDLE_FEATURES = 0
BUNDLE_SCORES = 1

_HEADER = struct.Struct("<4sBH32s")  # magic, kind, version, params hash
_BUNDLE = struct.Struct("<BII")  # bundle kind, ciphertext count, n_samples
_RECORD = struct.Struct("<IdddB")  # level, scale, noise_bits, value_bound, domain
_DOMAINS = (ring.Domain.COEFFICIENT, ring.Domain.EVALUATION)  # by domain byte
_CHECKSUM = 32  # sha256 of everything before it


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
        "hnn-params v2",
        f"lambda = {params.security_level}",
        f"ring_degree = {params.ring.ring_degree}",
        f"modulus_bits = {bits}",
        f"scale_bits = {int(round(math.log2(params.scale)))}",
        f"slots = {params.slot_capacity}",
        f"allow_insecure = {'true' if params.allow_insecure else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> scheme.SchemeParams:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if lines and lines[0] == "hnn-params v1":
        raise FormatError("parameter file version 1 unsupported: regenerate it "
                          "with `hnn params`, then the keys with `hnn keygen`")
    if not lines or lines[0] != "hnn-params v2":
        raise FormatError("not a parameter file (missing 'hnn-params v2' header)")
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
            allow_insecure={"true": True, "false": False}[kv.pop("allow_insecure")],
        )
    except KeyError as exc:
        raise FormatError(f"parameter file missing field or value {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"malformed parameter value: {exc}") from exc
    if kv:
        raise FormatError(f"unknown parameter fields {sorted(kv)}")
    scheme.check_ring_shape(n, len(bits))
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
# Blobs
# ---------------------------------------------------------------------------

def _words(el: ring.RingElement) -> np.ndarray:
    """el's residue block as little-endian u64 words, a zero-copy view
    on a little-endian machine."""
    return np.ascontiguousarray(el.residues, dtype="<u8")


def _seal(kind: int, params: scheme.SchemeParams, payload: list) -> bytes:
    """Header, payload pieces and the sha256 of both, joined once; the
    pieces are hashed one by one, so no joined copy is made to hash."""
    header = _HEADER.pack(MAGIC, kind, FORMAT_VERSION, params_hash(params))
    pieces = [header, *payload]
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    pieces.append(digest.digest())
    return b"".join(pieces)


def _open(data, kind: int, params: scheme.SchemeParams, payload_size=None, layout="") -> bytes:
    """``data`` as immutable bytes, once magic, version, kind, checksum,
    parameter hash and (if ``payload_size`` fixes it, for a key of that
    ``layout``) length all hold."""
    data = bytes(data)
    if data[:4] == b"HNNB":
        raise FormatError(
            "an HNNB ciphertext bundle from before blob version 2, which this "
            "build no longer reads: re-encrypt the features"
        )
    if data[:4] != MAGIC or len(data) < _HEADER.size + _CHECKSUM:
        raise FormatError("not an hnn blob (bad magic or too short)")
    _, found, version, hash32 = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise FormatError(
            f"blob version {version} unsupported: this build reads version "
            f"{FORMAT_VERSION}; regenerate keys with `hnn keygen` and re-encrypt"
        )
    if found != kind:
        raise FormatError(f"expected blob kind {kind}, found {found}")
    if hashlib.sha256(memoryview(data)[:-_CHECKSUM]).digest() != data[-_CHECKSUM:]:
        raise FormatError("checksum failure; blob corrupted")
    if hash32 != params_hash(params):
        raise ParamsHashMismatch("blob was produced under a different parameter set")
    if payload_size is not None:
        size = _HEADER.size + payload_size + _CHECKSUM
        if len(data) != size:
            # a key written under another rule for its parameter set, such
            # as an evk of another digit count, fails here alone
            raise FormatError(
                f"blob of {len(data)} bytes, not the {size} expected for {layout}; "
                f"regenerate the keys with `hnn keygen`"
            )
    return data


def _element(
    data: bytes, offset: int, parts: tuple, level: int, rp, domain=ring.Domain.EVALUATION
) -> ring.RingElement:
    """The element of the chain ``rp`` at ``level`` in ``domain`` whose
    parts + (level+1, N) residue block starts at data[offset], a read-only
    view of ``data`` with every word below its q_j."""
    shape = parts + (level + 1, rp.ring_degree)
    words = math.prod(shape)
    if offset + 8 * words > len(data) - _CHECKSUM:
        raise FormatError("truncated residue block")
    res = np.frombuffer(data, "<u8", words, offset).reshape(shape)
    # row maxima against a vector of moduli: no (rows, 1) column broadcast
    if np.any(res.max(axis=-1) >= rp._q_col[: level + 1, 0]):
        raise FormatError("residue outside modulus range")
    return ring.RingElement(rp, level, res.astype(np.uint64, copy=False), domain)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def _check_evaluation(els):
    if any(el.domain != ring.Domain.EVALUATION for el in els):
        raise ValueError("only Evaluation-domain keys are serialized")


def _seeded_blob(kind: int, params: scheme.SchemeParams, pairs, seeds) -> bytes:
    """The blob of seeded pairs: each pair's b block, then its a's seed."""
    _check_evaluation(pairs)
    payload = []
    for pair, seed in zip(pairs, seeds, strict=True):
        payload += [_words(pair.part(0)), seed]
    return _seal(kind, params, payload)


def _seeded_pairs(data, kind: int, params: scheme.SchemeParams, count: int, rp, layout):
    """(pairs, seeds) of a seeded key payload of ``count`` top-level pairs
    of the chain ``rp``, a key of ``layout``: each b's residues checked
    against its q_j, each a expanded from its seed."""
    block = 8 * rp.level_count * rp.ring_degree + ring.SEED_BYTES
    data = _open(data, kind, params, count * block, layout)
    pairs, seeds = [], []
    for off in range(_HEADER.size, _HEADER.size + count * block, block):
        b = _element(data, off, (), rp.max_level, rp)
        seed = data[off + block - ring.SEED_BYTES : off + block]
        # b and the expanded a written into one block, with no stack copy
        pair = np.empty((2,) + b.residues.shape, np.uint64)
        pair[0] = b.residues
        ring.sample_uniform(rp, rp.max_level, seed, pair[1])
        pairs.append(ring.RingElement(rp, rp.max_level, pair, ring.Domain.EVALUATION))
        seeds.append(seed)
    return pairs, seeds


def public_key_to_bytes(pk: scheme.PublicKey) -> bytes:
    return _seeded_blob(KIND_PK, pk.scheme, [pk.pair], [pk.seed])


def public_key_from_bytes(data: bytes, params: scheme.SchemeParams) -> scheme.PublicKey:
    rp = params.ring
    layout = f"a public key over the chain's {rp.level_count} rows"
    (pair,), (seed,) = _seeded_pairs(data, KIND_PK, params, 1, rp, layout)
    return scheme.PublicKey(params, pair, seed)


def secret_key_to_bytes(sk: scheme.SecretKey) -> bytes:
    _check_evaluation([sk.s])
    return _seal(KIND_SK, sk.scheme, [_words(sk.s)])


def secret_key_from_bytes(data: bytes, params: scheme.SchemeParams) -> scheme.SecretKey:
    rp = params.ring
    layout = f"a secret key over the chain's {rp.level_count} rows"
    data = _open(data, KIND_SK, params, 8 * rp.level_count * rp.ring_degree, layout)
    return scheme.SecretKey(params, _element(data, _HEADER.size, (), rp.max_level, rp))


def relin_key_to_bytes(evk: scheme.RelinKey) -> bytes:
    return _seeded_blob(KIND_EVK, evk.scheme, evk.components, evk.seeds)


def relin_key_from_bytes(data: bytes, params: scheme.SchemeParams) -> scheme.RelinKey:
    count, kr = len(params.digits(params.max_level)), params.key_ring
    layout = (
        f"an evaluation key of {count} digit{'s' * (count != 1)} over the key "
        f"ring's {kr.level_count} rows"
    )
    pairs, seeds = _seeded_pairs(data, KIND_EVK, params, count, kr, layout)
    return scheme.RelinKey(params, tuple(pairs), tuple(seeds))


# ---------------------------------------------------------------------------
# Ciphertext bundles
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Bundle:
    """Ordered ciphertexts of one kind.

    kind BUNDLE_FEATURES: one ciphertext per input feature (column
    packing); kind BUNDLE_SCORES: a single soft-argmax ciphertext.
    n_samples records slot occupancy.
    """

    kind: int
    n_samples: int
    ciphertexts: list


def bundle_to_bytes(bundle: Bundle, params: scheme.SchemeParams) -> bytes:
    payload = [_BUNDLE.pack(bundle.kind, len(bundle.ciphertexts), bundle.n_samples)]
    for ct in bundle.ciphertexts:
        if ct.scheme != params:
            raise ValueError("a bundle ciphertext was made under other parameters")
        domain = _DOMAINS.index(ct.parts.domain)
        payload.append(_RECORD.pack(ct.level, ct.scale, ct.noise_bits, ct.value_bound, domain))
        payload.append(_words(ct.parts))
    return _seal(KIND_BUNDLE, params, payload)


def bundle_from_bytes(data: bytes, params: scheme.SchemeParams) -> Bundle:
    data = _open(data, KIND_BUNDLE, params)
    end = len(data) - _CHECKSUM
    off = _HEADER.size + _BUNDLE.size
    if off > end:
        raise FormatError("truncated bundle header")
    kind, count, n_samples = _BUNDLE.unpack_from(data, _HEADER.size)
    rp = params.ring
    slots = rp.ring_degree // 2
    bad_count = count < 1 or (kind == BUNDLE_SCORES and count != 1)
    if kind not in (BUNDLE_FEATURES, BUNDLE_SCORES) or n_samples > slots or bad_count:
        raise FormatError(
            f"bad bundle header: kind {kind}, {count} ciphertexts (features need "
            f">= 1, scores 1), {n_samples} samples, {slots} slots"
        )
    cts = []
    for _ in range(count):
        if off + _RECORD.size > end:
            raise FormatError("truncated bundle")
        level, scale, noise_bits, value_bound, domain = _RECORD.unpack_from(data, off)
        if level > rp.max_level:
            raise FormatError(f"ciphertext level {level} above the top, {rp.max_level}")
        if domain >= len(_DOMAINS):
            raise FormatError(f"ciphertext domain byte {domain}, not 0 or 1")
        # noise_bits may be -inf: the ledger's log2 of an exact zero error
        finite = noise_bits < math.inf and math.isfinite(value_bound)
        if not (0 < scale < math.inf and finite):
            raise FormatError(
                f"bad ciphertext ledger: scale={scale}, noise_bits={noise_bits}, "
                f"value_bound={value_bound}"
            )
        parts = _element(data, off + _RECORD.size, (2,), level, rp, _DOMAINS[domain])
        off += _RECORD.size + parts.residues.nbytes
        cts.append(scheme.Ciphertext(params, parts, level, scale, noise_bits, value_bound))
    if off != end:
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
