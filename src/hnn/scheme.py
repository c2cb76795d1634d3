"""Leveled approximate homomorphic encryption over the negacyclic ring.

The scheme is the usual RLWE construction for approximate arithmetic:
slot vectors are encoded with a fixed scale, encrypted under a public
key (b, a) = (-a*s + e, a), operated on with slotwise add/mult, and
rescaled after products to keep the scale bounded. Relinearization after
ciphertext-ciphertext products uses the CRT gadget: the third component's
centred residue rows are the digits, one evaluation-key component each.

A scalar constant (probe weight, bias, polynomial or Newton coefficient,
index weight) is multiplied in or added by mult_const and add_const as
one residue per prime, with no plaintext polynomial (CKKS's multByConst,
Cheon et al., ASIACRYPT 2017). mult_plain and add_plain take slot-vector
plaintexts; each pair shares one ledger rule.

Every ciphertext carries a noise ledger: ``noise_bits`` is a heuristic
upper bound on log2(max slot error * scale), updated by fixed rules per
operation, and ``value_bound`` is an interval bound on |slot values|.
Both feed two hard checks that run whenever a ``Ciphertext`` is built,
by an operation, a loader or ``dataclasses.replace``: the budget check
(noise_bits <= noise_budget_bits) and the wraparound check
(value_bound*scale + noise < Q_level/2), so the scheme errors out before
a decryption could silently wrap.

Parameter sets are vetted against the standard (N, max log2 Q) security
table for uniform ternary secrets; undersized test parameters require an
explicit allow_insecure flag. The secret weight, error width and ledger
budget are derived from the set, never chosen by a caller or a file.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import encoding, ring
from .encoding import Plaintext
from .errors import (
    InsecureParameterError,
    LevelExhausted,
    NoiseBudgetExceeded,
    ParameterError,
    ScaleMismatch,
)

# Homomorphic encryption standard table: max log2(Q) per (security, N),
# classical attacks, uniform ternary secret distribution.
SECURITY_TABLE = {
    128: {1024: 27, 2048: 54, 4096: 109, 8192: 218, 16384: 438, 32768: 881},
    192: {1024: 19, 2048: 37, 4096: 75, 8192: 152, 16384: 305, 32768: 611},
    256: {1024: 14, 2048: 29, 4096: 58, 8192: 118, 16384: 237, 32768: 476},
}

ERR_STD = 3.2            # fresh error standard deviation
KEY_ERR_TAIL = 6.0       # keygen errors resampled into +-6 sigma
SCALE_REL_TOL = 2.0 ** -30  # scales must agree to this relative tolerance

_GUARD_MARGIN_BITS = 1.0  # extra noise bit of slop in the wraparound check


def _log2_sum(*bits) -> float:
    """log2(sum 2^b) over finite/-inf entries, numerically stable."""
    finite = [b for b in bits if b != -math.inf]
    if not finite:
        return -math.inf
    m = max(finite)
    return m + math.log2(sum(2.0 ** (b - m) for b in finite))


def _log2_pos(x: float) -> float:
    return math.log2(x) if x > 0 else -math.inf


@dataclasses.dataclass(frozen=True)
class SchemeParams:
    """Everything needed to instantiate the scheme.

    security_level: target bits (128/192/256) from the embedded table.
    ring: degree and modulus chain.
    scale: default encoding scale (power of two).
    slot_capacity: slots the caller intends to use (<= N/2).
    allow_insecure: accept parameter sets that fail the security table
    (small test rings); never set for production keys.

    Derived, so no caller or file can weaken the keys: the error width
    ERR_STD, ``secret_weight`` and the ledger's ``noise_budget_bits``.
    """

    security_level: int
    ring: ring.RingParams
    scale: float
    slot_capacity: int
    allow_insecure: bool = False
    noise_budget_bits: float = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        if self.security_level not in SECURITY_TABLE:
            raise ParameterError(
                f"security level {self.security_level} not in "
                f"{sorted(SECURITY_TABLE)}"
            )
        n = self.ring.ring_degree
        if self.slot_capacity > n // 2:
            raise ParameterError(
                f"slot capacity {self.slot_capacity} exceeds N/2 = {n // 2}"
            )
        bound = SECURITY_TABLE[self.security_level].get(n)
        total = self.ring.total_bits()
        if not self.allow_insecure and (bound is None or total > bound):
            raise InsecureParameterError(
                f"N={n} with {total} modulus bits fails the "
                f"{self.security_level}-bit table (max {bound}); "
                f"set allow_insecure for test rings"
            )
        # >= 10 bits of final slack on deep chains; the floor keeps
        # shallow (depth 0/1) chains usable for a few additions
        budget = max(total - math.log2(self.scale) - 10, self.fresh_noise_bits() + 6)
        object.__setattr__(self, "noise_budget_bits", float(budget))

    @property
    def secret_weight(self) -> int:
        """Hamming weight of the ternary secrets s and u: floor(2N/3), the
        mean of a uniform ternary draw, which the security table assumes."""
        return 2 * self.ring.ring_degree // 3

    @property
    def max_level(self) -> int:
        return self.ring.max_level

    def log2_modulus(self, level: int) -> float:
        return math.log2(self.ring.modulus_product(level))

    def fresh_noise_bits(self) -> float:
        """Ledger charge for a fresh encryption: the error polynomial
        e*u + e0 + e1*s has coefficient std ~ ERR_STD*sqrt(2h+1), and the
        embedding spreads it by sqrt(N); 8x covers the max-slot tail."""
        n = self.ring.ring_degree
        return _log2_pos(
            8.0 * ERR_STD * math.sqrt((2 * self.secret_weight + 1) * n)
        )

    def rescale_round_bits(self) -> float:
        """Rounding noise of one rescale: +-1/2 per coefficient on both
        parts, the c1 share passing through the secret."""
        n = self.ring.ring_degree
        return _log2_pos(6.0 * math.sqrt((self.secret_weight + 4) * n))

    def relin_noise_bits(self, level: int) -> float:
        """Key switching at ``level``: sum_j d_j*e_j, |d_j| <= q_j/2, has
        coefficient std ERR_STD*sqrt(N*sum q_j^2/12); the embedding adds
        sqrt(N) and 8x covers the max-slot tail."""
        n = self.ring.ring_degree
        digit_var = sum(q * q for q in self.ring.moduli[: level + 1]) / 12.0
        return _log2_pos(8.0 * ERR_STD * n * math.sqrt(digit_var))


def param_gen(
    security_level: int,
    slot_need: int,
    depth_need: int,
    scale_bits: int = None,
    allow_insecure: bool = False,
) -> SchemeParams:
    """Smallest ring satisfying slot, depth, and security constraints.

    Picks the smallest power-of-two N with N/2 >= slot_need whose
    (depth_need+1)-prime chain passes the security table. With scale_bits
    unset, the scale shrinks (40 -> 30 -> 20 bits) before N grows, so
    shallow circuits land on small rings; pass scale_bits explicitly when
    precision matters more than ring size.
    """
    if not 1 <= slot_need <= 2 ** 15:
        raise ParameterError(f"slot_need {slot_need} outside [1, 2^15]")
    if not 0 <= depth_need <= 30:
        raise ParameterError(f"depth_need {depth_need} outside [0, 30]")
    scale_options = [scale_bits] if scale_bits is not None else [40, 30, 20]
    for sb in scale_options:
        if not 14 <= sb <= ring.MAX_PRIME_BITS - 2:
            raise ParameterError(f"scale_bits {sb} unsupported")

    n = max(8, 1 << (2 * slot_need - 1).bit_length())
    max_n = max(SECURITY_TABLE[security_level])
    while n <= max_n:
        for sb in scale_options:
            base_bits = min(sb + 10, ring.MAX_PRIME_BITS)
            chain_total = base_bits + depth_need * (sb + 1)
            table = SECURITY_TABLE[security_level]
            secure = n in table and chain_total <= table[n]
            if not (secure or allow_insecure):
                continue
            bit_sizes = [base_bits] + [sb + 1] * depth_need
            try:
                moduli = ring.find_ntt_primes(n, bit_sizes)
            except ParameterError:
                continue
            rp = ring.RingParams(n, moduli)
            return SchemeParams(
                security_level=security_level,
                ring=rp,
                scale=float(2 ** sb),
                slot_capacity=min(slot_need, n // 2),
                allow_insecure=allow_insecure,
            )
        if allow_insecure:
            # first N already had every scale option available
            break
        n <<= 1
    raise ParameterError(
        f"no secure parameter set for slots={slot_need}, depth={depth_need}, "
        f"security={security_level}"
    )


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SecretKey:
    scheme: SchemeParams
    s: ring.RingElement  # ternary secret, Evaluation domain


@dataclasses.dataclass(frozen=True)
class PublicKey:
    scheme: SchemeParams
    b: ring.RingElement  # -a*s + e
    a: ring.RingElement


@dataclasses.dataclass(frozen=True)
class RelinKey:
    """CRT-gadget encryptions of s^2, one per prime: component j decrypts
    to s^2*e_j, e_j = 1 mod q_j and 0 mod the others (row j of s^2)."""

    scheme: SchemeParams
    components: tuple  # ((b_j, a_j), ...), len == ring.level_count


@dataclasses.dataclass(frozen=True)
class KeyMaterial:
    sk: SecretKey
    pk: PublicKey
    evk: RelinKey

    @property
    def scheme(self) -> SchemeParams:
        return self.sk.scheme


def keygen(params: SchemeParams, rng: np.random.Generator) -> KeyMaterial:
    """Sample (sk, pk, evk). Deterministic for a fixed Generator state."""
    rp = params.ring
    lv = rp.max_level
    s = ring.ntt_forward(ring.sample_ternary(rp, lv, params.secret_weight, rng))

    def masked(a):
        """-a*s + e for a fresh key error e."""
        e = ring.sample_gaussian(rp, lv, ERR_STD, rng, tail_bound=KEY_ERR_TAIL)
        return ring.ring_sub(ring.ntt_forward(e), ring.ring_mul(a, s))

    a = ring.sample_uniform(rp, lv, rng)
    pk = PublicKey(params, masked(a), a)
    s2 = ring.ring_mul(s, s)
    comps = []
    for j in range(rp.level_count):
        a_j = ring.sample_uniform(rp, lv, rng)
        # s^2 times the unit column e_j: s^2's row j, the other rows zero
        gadget = ring.scalar_mul(s2, np.eye(lv + 1, 1, -j, dtype=np.uint64))
        comps.append((ring.ring_add(masked(a_j), gadget), a_j))
    return KeyMaterial(SecretKey(params, s), pk, RelinKey(params, tuple(comps)))


# ---------------------------------------------------------------------------
# Ciphertexts
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Ciphertext:
    """(c0, c1) with scale, ledgered noise, and a slot-value bound.

    Construction runs the ledger guards, so no ciphertext exists whose
    ledger is non-finite, over budget, or whose payload would wrap the
    level's modulus; noise_bits may be -inf (an exact ciphertext).
    """

    scheme: SchemeParams
    parts: tuple
    level: int
    scale: float
    noise_bits: float
    value_bound: float

    def __post_init__(self):
        if len(self.parts) != 2:
            raise ValueError(f"ciphertext needs 2 parts, got {len(self.parts)}")
        for p in self.parts:
            if p.level != self.level:
                raise ValueError("part level mismatch")
            if p.domain != ring.Domain.EVALUATION:
                raise ValueError("ciphertext parts must stay in Evaluation domain")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        # a NaN or infinite ledger field would slip past both comparisons
        if not (
            self.noise_bits < math.inf
            and math.isfinite(self.value_bound)
            and math.isfinite(self.scale)
        ):
            raise NoiseBudgetExceeded(
                f"non-finite ledger: noise_bits={self.noise_bits}, "
                f"value_bound={self.value_bound}, scale={self.scale}"
            )
        params = self.scheme
        if self.noise_bits > params.noise_budget_bits:
            raise NoiseBudgetExceeded(
                f"ledger at {self.noise_bits:.1f} bits exceeds budget "
                f"{params.noise_budget_bits:.1f}"
            )
        payload_bits = _log2_sum(
            _log2_pos(self.value_bound * self.scale),
            self.noise_bits + _GUARD_MARGIN_BITS,
        )
        if payload_bits > params.log2_modulus(self.level) - 1.0:
            raise NoiseBudgetExceeded(
                f"payload {payload_bits:.1f} bits would wrap the level-{self.level} "
                f"modulus ({params.log2_modulus(self.level):.1f} bits)"
            )


def with_value_bound(ct: Ciphertext, bound: float) -> Ciphertext:
    """Assert a tighter |slot value| bound known from caller math
    (e.g. Newton iterates stay in (0, 1/a]). Checked by decrypt-probe
    tests, not at runtime."""
    return dataclasses.replace(ct, value_bound=float(bound))


def encrypt(
    pk: PublicKey, pt: Plaintext, rng: np.random.Generator
) -> Ciphertext:
    """(b*u + e0 + m, a*u + e1) with ternary u and Gaussian e0, e1; pt
    is a Coefficient-domain plaintext, as ``encoding.encode`` returns.

    Randomized: repeated calls on one plaintext give distinct ciphertexts.
    """
    params = pk.scheme
    rp = params.ring
    if pt.level != rp.max_level:
        raise ValueError(
            f"plaintext at level {pt.level}, encryption requires top level "
            f"{rp.max_level}"
        )
    lv = rp.max_level
    u = ring.ntt_forward(ring.sample_ternary(rp, lv, params.secret_weight, rng))
    e0 = ring.sample_gaussian(rp, lv, ERR_STD, rng)
    e1 = ring.ntt_forward(ring.sample_gaussian(rp, lv, ERR_STD, rng))
    # NTT(e0 + m) = NTT(e0) + NTT(m): the Coefficient message shares e0's NTT
    e0_m = ring.ntt_forward(ring.ring_add(e0, pt.poly))
    c0 = ring.ring_add(ring.ring_mul(pk.b, u), e0_m)
    c1 = ring.ring_add(ring.ring_mul(pk.a, u), e1)
    noise = _log2_sum(params.fresh_noise_bits(), _log2_pos(pt.round_error))
    return Ciphertext(
        scheme=params,
        parts=(c0, c1),
        level=lv,
        scale=pt.scale,
        noise_bits=noise,
        value_bound=pt.value_bound,
    )


def decrypt(sk: SecretKey, ct: Ciphertext) -> Plaintext:
    """m = c0 + c1*s.

    Deterministic; a wrong key is not detected, it just yields noise.
    """
    s = ring.drop_level(sk.s, ct.level)
    acc = ring.ring_add(ct.parts[0], ring.ring_mul(ct.parts[1], s))
    poly = ring.ntt_inverse(acc)
    return Plaintext(poly, ct.scale, value_bound=ct.value_bound)


def decrypt_to_slots(sk: SecretKey, ct: Ciphertext) -> np.ndarray:
    return encoding.decode(decrypt(sk, ct))


def _require_aligned(a: Ciphertext, b: Ciphertext):
    if a.scheme is not b.scheme and a.scheme != b.scheme:
        raise ValueError("scheme parameter mismatch")
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")


def add(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Slotwise sum; scales must match to 2^-30 relative."""
    _require_aligned(a, b)
    if abs(a.scale - b.scale) > SCALE_REL_TOL * max(a.scale, b.scale):
        raise ScaleMismatch(f"scales {a.scale} vs {b.scale}")
    parts = tuple(ring.ring_add(x, y) for x, y in zip(a.parts, b.parts))
    return Ciphertext(
        scheme=a.scheme,
        parts=parts,
        level=a.level,
        scale=a.scale,
        noise_bits=max(a.noise_bits, b.noise_bits) + 1.0,
        value_bound=a.value_bound + b.value_bound,
    )


def _pt_for(ct: Ciphertext, pt: Plaintext) -> ring.RingElement:
    """pt's polynomial at ct's level, in the Evaluation domain."""
    if pt.level < ct.level:
        raise ValueError(f"plaintext level {pt.level} below ciphertext {ct.level}")
    return ring.ntt_forward(ring.drop_level(pt.poly, ct.level))


def _plus(ct: Ciphertext, c0: ring.RingElement, round_error, value_bound):
    """ct with first part c0, the old one plus a plaintext at ct's scale
    with this rounding error and |slot| bound: an addition's ledger rule."""
    return dataclasses.replace(
        ct,
        parts=(c0, ct.parts[1]),
        noise_bits=_log2_sum(ct.noise_bits, _log2_pos(round_error)),
        value_bound=ct.value_bound + value_bound,
    )


def _times(ct: Ciphertext, parts, scale, round_error, value_bound):
    """ct with ``parts``, the old ones times a plaintext at ``scale`` with
    this rounding error and |slot| bound: a product's ledger rule."""
    re = _log2_pos(round_error)
    noise = _log2_sum(
        ct.noise_bits + _log2_pos(value_bound * scale),
        re + _log2_pos(ct.value_bound * ct.scale),
        ct.noise_bits + re,
    )
    return dataclasses.replace(
        ct, parts=parts, scale=ct.scale * scale, noise_bits=noise,
        value_bound=ct.value_bound * value_bound,
    )


def add_plain(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    """Slotwise sum with a slot-vector plaintext at ct's scale."""
    if abs(ct.scale - pt.scale) > SCALE_REL_TOL * max(ct.scale, pt.scale):
        raise ScaleMismatch(f"scales {ct.scale} vs {pt.scale}")
    c0 = ring.ring_add(ct.parts[0], _pt_for(ct, pt))
    return _plus(ct, c0, pt.round_error, pt.value_bound)


def mult_plain(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    """Slotwise product with a slot-vector plaintext; scale multiplies,
    the caller rescales when ready."""
    m = _pt_for(ct, pt)
    parts = tuple(ring.ring_mul(p, m) for p in ct.parts)
    return _times(ct, parts, pt.scale, pt.round_error, pt.value_bound)


def _constant(ct: Ciphertext, value: float, scale: float):
    """(residue column, round_error, value_bound) of ``value`` at ``scale``."""
    c0, err = encoding.encode_constant(value, scale)
    col = ring.constant_column(c0, ct.scheme.ring, ct.level)
    return col, err, abs(value) + err / scale


def add_const(ct: Ciphertext, value: float) -> Ciphertext:
    """Slotwise sum with ``value`` encoded at ct's scale."""
    col, err, bound = _constant(ct, value, ct.scale)
    return _plus(ct, ring.scalar_add(ct.parts[0], col), err, bound)


def mult_const(ct: Ciphertext, value: float, scale: float) -> Ciphertext:
    """Slotwise product with ``value`` encoded at ``scale``; scale
    multiplies, the caller rescales when ready."""
    col, err, bound = _constant(ct, value, scale)
    parts = tuple(ring.scalar_mul(p, col) for p in ct.parts)
    return _times(ct, parts, float(scale), err, bound)


def _relinearize(d2: ring.RingElement, evk: RelinKey, level: int):
    """Fold c2 through the evk with the CRT gadget: c2 = sum_j d_j*e_j
    mod Q_level, where the digit d_j is c2's residue row j centred into
    (-q_j/2, q_j/2]."""
    rp = evk.scheme.ring
    digits = ring.centered_coeffs(d2, slice(0, level + 1))
    acc0 = acc1 = None
    for j in range(level + 1):
        dig_el = ring.ntt_forward(ring.from_int_coeffs(digits[j], rp, level))
        b_j, a_j = evk.components[j]
        term0 = ring.ring_mul(dig_el, ring.drop_level(b_j, level))
        term1 = ring.ring_mul(dig_el, ring.drop_level(a_j, level))
        acc0 = term0 if acc0 is None else ring.ring_add(acc0, term0)
        acc1 = term1 if acc1 is None else ring.ring_add(acc1, term1)
    return acc0, acc1


def mult(a: Ciphertext, b: Ciphertext, evk: RelinKey) -> Ciphertext:
    """Tensor product immediately relinearized back to two parts.

    Result scale is scale_a * scale_b; rescale afterwards to bring it
    back down. Raises LevelExhausted when no rescale level would remain.
    """
    _require_aligned(a, b)
    if a.level < 1:
        raise LevelExhausted("multiplication at level 0 leaves no rescale room")
    d0 = ring.ring_mul(a.parts[0], b.parts[0])
    d1 = ring.ring_add(
        ring.ring_mul(a.parts[0], b.parts[1]),
        ring.ring_mul(a.parts[1], b.parts[0]),
    )
    d2 = ring.ring_mul(a.parts[1], b.parts[1])
    r0, r1 = _relinearize(d2, evk, a.level)
    c0 = ring.ring_add(d0, r0)
    c1 = ring.ring_add(d1, r1)
    params = a.scheme
    # triangle inequality over |m1 nu2| + |m2 nu1| + |nu1 nu2| + relin;
    # each term is an upper bound, so their log-sum needs no extra pad
    noise = _log2_sum(
        a.noise_bits + _log2_pos(b.value_bound * b.scale),
        b.noise_bits + _log2_pos(a.value_bound * a.scale),
        a.noise_bits + b.noise_bits,
        params.relin_noise_bits(a.level),
    )
    return Ciphertext(
        scheme=params,
        parts=(c0, c1),
        level=a.level,
        scale=a.scale * b.scale,
        noise_bits=noise,
        value_bound=a.value_bound * b.value_bound,
    )


def rescale(ct: Ciphertext) -> Ciphertext:
    """Drop the top prime, dividing scale (and value*scale payload) by it.

    Exact RNS rounding: subtract the centered top residue, then multiply
    by q_top^-1 modulo each surviving prime, in the Evaluation domain:
    only the top row and its lift pass through an NTT.
    """
    if ct.level < 1:
        raise LevelExhausted("rescale at level 0")
    rp = ct.scheme.ring
    lv = ct.level
    q_top = rp.moduli[lv]
    inv = np.array([[pow(q_top, -1, qj)] for qj in rp.moduli[:lv]], dtype=np.uint64)
    new_parts = []
    for part in ct.parts:
        top = ring.centered_coeffs(part, slice(lv, lv + 1))[0]
        lifted = ring.ntt_forward(ring.from_int_coeffs(top, rp, lv - 1))
        diff = ring.ring_sub(ring.drop_level(part, lv - 1), lifted)
        new_parts.append(ring.scalar_mul(diff, inv))
    params = ct.scheme
    noise = _log2_sum(
        ct.noise_bits - math.log2(q_top), params.rescale_round_bits()
    )
    return Ciphertext(
        scheme=params,
        parts=tuple(new_parts),
        level=lv - 1,
        scale=ct.scale / q_top,
        noise_bits=noise,
        value_bound=ct.value_bound,
    )


def ct_drop_level(ct: Ciphertext, new_level: int) -> Ciphertext:
    """Truncate the modulus chain without touching scale or values."""
    if new_level > ct.level:
        raise ValueError(f"cannot raise level {ct.level} to {new_level}")
    if new_level == ct.level:
        return ct
    parts = tuple(ring.drop_level(p, new_level) for p in ct.parts)
    return dataclasses.replace(ct, parts=parts, level=new_level)


def noise_measure(sk: SecretKey, ct: Ciphertext, reference) -> float:
    """Ground-truth probe: log2(max |decoded - reference| * scale).

    Returns -inf for an exact match (e.g. all-zero ciphertexts built
    without error injection). Test-mode only: requires the secret key.
    """
    reference = np.atleast_1d(np.asarray(reference, dtype=np.float64))
    slots = decrypt_to_slots(sk, ct)[: len(reference)]
    err = float(np.max(np.abs(slots - reference)))
    if err == 0.0:
        return -math.inf
    return math.log2(err * ct.scale)
