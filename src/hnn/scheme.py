"""Leveled approximate homomorphic encryption over the negacyclic ring.

The scheme is the usual RLWE construction for approximate arithmetic:
slot vectors are encoded with a fixed scale, encrypted under a public
key (b, a) = (-a*s + e, a), operated on with slotwise add, sub, negate
and mult, and rescaled after products to keep the scale bounded. A
fresh ciphertext is in the Coefficient domain, where encryption needs no
NTT; the first rescale brings it to the Evaluation domain, where
products run.
Relinearization after ciphertext-ciphertext products is hybrid key
switching: the third component's residues split into digits of
digit_size primes, each digit is extended to the special primes P and
the rest of the chain, and meets one evaluation-key component over
P ∪ Q; P*(d0, d1) joins the sums there, and the whole is divided by P.
With as many special primes as half the chain, rounded up, a top-level
switch has two digits and the evaluation key two components (Han and
Ki, CT-RSA 2020, trade special primes against digits); with no special
primes and one prime a digit, it is the CRT gadget.
A rescale divides by the top prime the same way, and mult_rescale_sum,
a sum of products that the pipeline rescales at once, sums the tensors
first and then switches keys and divides by P*q_l once (Cheon, Han,
Kim, Kim and Song, SAC 2018): all three are ring.divide, with constants
that SchemeParams derives once. mult_rescale is its one-pair case.

A scalar constant (probe weight, bias, polynomial or Newton coefficient,
index weight) is multiplied in or added by mult_const and add_const as
one residue per prime, with no plaintext polynomial (CKKS's multByConst,
Cheon et al., ASIACRYPT 2017). mult_plain takes a slot-vector
plaintext, with mult_const's ledger rule. weighted_sums forms the C
sums sum_k w[k, c]*ct_k of a plaintext (d, C) weight matrix in one
streaming pass over the d inputs, with the residues and ledgers of
tree_sum over mult_consts but without a ciphertext per term.

Every ciphertext carries a noise ledger: ``noise_bits`` is a heuristic
upper bound on log2(max slot error * scale), updated by fixed rules per
operation, and ``value_bound`` is an interval bound on |slot values|.
Both feed two hard checks that run whenever a ``Ciphertext`` is built,
by an operation, a loader or ``dataclasses.replace``: the budget check
(noise_bits <= noise_budget_bits) and the wraparound check
(value_bound*scale + noise < Q_level/2), so the scheme errors out before
a decryption could silently wrap.

Parameter sets are vetted against the standard (N, max log2 Q) security
table for uniform ternary secrets, counting P's bits, since the
evaluation key lives over Q*P; undersized test parameters require an
explicit allow_insecure flag. The secret weight, error width, ledger
budget and key switching's digit size and special primes are derived
from the set, never chosen by a caller or a file.
"""

from __future__ import annotations

import dataclasses
import functools
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

# The largest shape a caller or parameter file may ask for: param_gen's
# depth of at most 30 plus the base prime, over the table's largest degree
MAX_CHAIN_PRIMES = 31
MAX_RING_DEGREE = max(max(table) for table in SECURITY_TABLE.values())

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


def _check_scale_bits(bits: int):
    """The scale rule: a scale is 2^bits for 14 <= bits <= MAX_PRIME_BITS
    - 2, so that its rescale primes of bits + 1 bits fit the chain."""
    if not 14 <= bits <= ring.MAX_PRIME_BITS - 2:
        raise ParameterError(f"scale_bits {bits} outside [14, {ring.MAX_PRIME_BITS - 2}]")


def check_ring_shape(ring_degree: int, prime_count: int = 1):
    """The size rule: at most MAX_CHAIN_PRIMES primes over a degree of at
    most MAX_RING_DEGREE, checked before a parameter file or param_gen
    searches a chain. SchemeParams checks the degree alone: a chain built
    by hand, its primes already found, may run deeper."""
    if ring_degree > MAX_RING_DEGREE:
        raise ParameterError(f"ring degree {ring_degree} exceeds {MAX_RING_DEGREE}")
    if prime_count > MAX_CHAIN_PRIMES:
        raise ParameterError(
            f"modulus chain of {prime_count} primes exceeds {MAX_CHAIN_PRIMES}"
        )


@dataclasses.dataclass(frozen=True)
class SchemeParams:
    """Everything needed to instantiate the scheme.

    security_level: target bits (128/192/256) from the embedded table.
    ring: degree and modulus chain; the degree obeys the size rule
    (check_ring_shape).
    scale: default encoding scale, a power of two (_check_scale_bits).
    slot_capacity: slots the caller intends to use (<= N/2).
    allow_insecure: accept parameter sets that fail the security table
    (small test rings); never set for production keys.

    Derived, so no caller or file can weaken the keys: the error width
    ERR_STD, ``secret_weight``, the ledger's ``noise_budget_bits``, and
    key switching's ``digit_size`` alpha and ``key_ring``. The key ring
    is the chain Q behind k special primes P, 42-bit NTT primes apart
    from the chain: alpha = k = ceil((L+1)/2), so that a switch at the
    top level has two digits, and one below level k, and the evk two
    components. On a set that is not allow_insecure, k steps down until
    log2(QP) fits the security table, to alpha = 1, k = 0 (the CRT
    gadget, key_ring is ring) at the end.

    So are the constants of key switching and rescale: ``mod_up[l]``, the
    conversions of level l's digits into P ∪ Q; ``p_mod_q``, P mod q_j as
    an (L+1, 1) column; and the divisors (conversions that hold D^-1)
    ``mod_down`` (by P, None if k = 0), ``rescale_div[l]`` (by q_l) and
    ``mult_rescale_div[l]`` (by P*q_l, which is rescale_div[l] if k = 0).
    """

    security_level: int
    ring: ring.RingParams
    scale: float
    slot_capacity: int
    allow_insecure: bool = False
    noise_budget_bits: float = dataclasses.field(init=False, compare=False)
    key_ring: ring.RingParams = dataclasses.field(
        init=False, compare=False, repr=False
    )
    mod_up: tuple = dataclasses.field(init=False, compare=False, repr=False)
    p_mod_q: np.ndarray = dataclasses.field(init=False, compare=False, repr=False)
    mod_down: tuple = dataclasses.field(init=False, compare=False, repr=False)
    rescale_div: tuple = dataclasses.field(init=False, compare=False, repr=False)
    mult_rescale_div: tuple = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.security_level not in SECURITY_TABLE:
            raise ParameterError(
                f"security level {self.security_level} not in "
                f"{sorted(SECURITY_TABLE)}"
            )
        mantissa, exponent = math.frexp(self.scale)
        if mantissa != 0.5:
            raise ParameterError(f"scale {self.scale!r} is not a power of two")
        _check_scale_bits(exponent - 1)
        n = self.ring.ring_degree
        check_ring_shape(n)
        if not 1 <= self.slot_capacity <= n // 2:
            raise ParameterError(
                f"slot capacity {self.slot_capacity} outside [1, N/2 = {n // 2}]"
            )
        bound = SECURITY_TABLE[self.security_level].get(n)
        total = self.ring.total_bits()
        # ceil((L+1)/2) special primes, so two digits at the top level,
        # dropped one by one until log2(QP) fits the table; the evaluation
        # key lives over Q*P
        special = _special_primes(self.ring, (self.ring.level_count + 1) // 2)

        def fits():
            return bound is not None and total + sum(p.bit_length() for p in special) <= bound

        while special and not (self.allow_insecure or fits()):
            special = special[:-1]
        if not (self.allow_insecure or fits()):
            raise InsecureParameterError(
                f"N={n} with {total} modulus bits fails the "
                f"{self.security_level}-bit table (max {bound}); "
                f"set allow_insecure for test rings"
            )
        key_ring = (
            ring.RingParams(n, special + self.ring.moduli) if special else self.ring
        )
        object.__setattr__(self, "key_ring", key_ring)
        # built on first use, once: the chain's tables are row views of them
        ring.register_key_ring(key_ring)
        rp, k, levels = self.ring, len(special), range(self.ring.level_count)
        # the digit ending at row j is level j's last: up[j] converts it
        top = key_ring.max_level
        up = [ring.Conversion(rp, self.digits(j)[-1], key_ring, top) for j in levels]
        object.__setattr__(self, "mod_up", tuple(
            tuple(up[d.stop - 1] for d in self.digits(lv)) for lv in levels
        ))
        big_p = math.prod(special)
        p_mod_q = np.array([[big_p % q] for q in rp.moduli], np.uint64)
        object.__setattr__(self, "p_mod_q", p_mod_q)
        mod_down = ring.Conversion(key_ring, slice(0, k), rp, rp.max_level) if k else None
        object.__setattr__(self, "mod_down", mod_down)
        rescale_div = (None,) + tuple(
            ring.Conversion(rp, slice(lv, lv + 1), rp, lv - 1) for lv in levels[1:]
        )
        object.__setattr__(self, "rescale_div", rescale_div)
        # P's rows and q_l's, which is key ring row k + l
        object.__setattr__(self, "mult_rescale_div", (None,) + tuple(
            ring.Conversion(key_ring, [*range(k), k + lv], rp, lv - 1) if k
            else rescale_div[lv] for lv in levels[1:]
        ))
        # >= 10 bits of final slack on deep chains. The floor keeps shallow
        # chains usable: at depth 0 for a few additions of fresh
        # ciphertexts; from depth 1 for one product at level 1, whose
        # ledger before its division, at scale^2, is about fresh +
        # log2(scale) + 1 bits for operands of |value| <= 1
        floor = self.fresh_noise_bits() + (math.log2(self.scale) + 2 if self.max_level else 6)
        budget = max(total - math.log2(self.scale) - 10, floor)
        object.__setattr__(self, "noise_budget_bits", float(budget))

    @property
    def secret_weight(self) -> int:
        """Hamming weight of the ternary secrets s and u: floor(2N/3), the
        mean of a uniform ternary draw, which the security table assumes."""
        return 2 * self.ring.ring_degree // 3

    @property
    def max_level(self) -> int:
        return self.ring.max_level

    @property
    def special_count(self) -> int:
        """k, the special primes that lead the key ring's chain."""
        return self.key_ring.level_count - self.ring.level_count

    @property
    def digit_size(self) -> int:
        """alpha, the primes of a key switching digit: k, or 1 if k = 0."""
        return max(self.special_count, 1)

    def digits(self, level: int) -> list:
        """Key switching's digits at ``level``: the chain rows [0, level+1)
        in runs of digit_size, the last one possibly shorter."""
        a = self.digit_size
        return [slice(i, min(i + a, level + 1)) for i in range(0, level + 1, a)]

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

    def division_round_bits(self, primes: int) -> float:
        """Rounding noise of ring.divide by a product of ``primes`` primes.
        A rescale (one prime) rounds both parts by +-1/2 per coefficient,
        the c1 share passing through the secret; a conversion of more
        rounds by a sum of that many centred fractions, variance
        primes/12: that many rescale roundings."""
        one = _log2_pos(6.0 * math.sqrt((self.secret_weight + 4) * self.ring.ring_degree))
        return one + 0.5 * _log2_pos(primes)

    def switch_noise_bits(self, level: int) -> float:
        """Key switching's error at ``level``, divided by P: a digit of S
        primes with product D extends to S centred terms, each of variance
        D^2/12, so sum_i d_i*e_i/P has coefficient std
        ERR_STD*sqrt(N*sum S*D^2/12)/P; the embedding adds sqrt(N) and 8x
        covers the max-slot tail. Summed in log2, since D^2 of a long
        digit overflows a float."""
        moduli = self.ring.moduli
        digit_var_bits = _log2_sum(*(
            math.log2(d.stop - d.start) + 2.0 * math.log2(math.prod(moduli[d]))
            for d in self.digits(level)
        )) - math.log2(12.0)
        big_p = math.prod(self.key_ring.moduli[: self.special_count])
        return (
            math.log2(8.0 * ERR_STD * self.ring.ring_degree)
            + 0.5 * digit_var_bits - math.log2(big_p)
        )

    def relin_noise_bits(self, level: int) -> float:
        """Relinearization at ``level``: key switching's error, and
        ModDown's rounding, a division by k primes."""
        return _log2_sum(
            self.switch_noise_bits(level), self.division_round_bits(self.special_count)
        )


def _special_primes(rp: ring.RingParams, count: int) -> tuple:
    """The ``count`` largest primes ≡ 1 (mod 2N) below 2^42 that are not in
    rp's chain, largest first."""
    step, limit, out = 2 * rp.ring_degree, 1 << ring.MAX_PRIME_BITS, []
    while len(out) < count:
        limit = ring.prime_below(limit, step)
        if limit not in rp.moduli:
            out.append(limit)
    return tuple(out)


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
    if not 1 <= slot_need <= MAX_RING_DEGREE // 2:
        raise ParameterError(
            f"slot_need {slot_need} outside [1, {MAX_RING_DEGREE // 2}]"
        )
    if not 0 <= depth_need < MAX_CHAIN_PRIMES:
        raise ParameterError(
            f"depth_need {depth_need} outside [0, {MAX_CHAIN_PRIMES - 1}]"
        )
    scale_options = [scale_bits] if scale_bits is not None else [40, 30, 20]
    for sb in scale_options:
        _check_scale_bits(sb)

    n = max(8, 1 << (2 * slot_need - 1).bit_length())
    max_n = max(SECURITY_TABLE[security_level])
    reason = ""
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
            except ParameterError as exc:
                reason = f": {exc}"
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
        f"security={security_level}{reason}"
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
    """(b, a) = (-a*s + e, a), one (2, L+1, N) Evaluation block, where
    a = ring.sample_uniform(ring, L, seed): a blob holds b and the seed.
    Its ring.fft_spectra, which only encrypt reads, are derived on the
    first encryption and kept, so keygen and a key load do not pay for
    them."""

    scheme: SchemeParams
    pair: ring.RingElement
    seed: bytes

    @functools.cached_property
    def spectra(self) -> np.ndarray:
        return ring.fft_spectra(self.pair)


@dataclasses.dataclass(frozen=True)
class RelinKey:
    """Encryptions of P*s^2 over the key ring P ∪ Q, one per digit:
    component i is (-a_i*s + e_i + P*E_i*s^2, a_i), where E_i is the CRT
    idempotent of digit i (1 mod its primes, 0 mod Q's others), so that
    it decrypts to P*s^2 on the digit's rows and to zero on every other
    row. With no special primes (P = 1) and one prime a digit, this is
    the CRT gadget: s^2's row j, the other rows zero. Each a_i is
    ring.sample_uniform(key_ring, top, seeds[i]).
    """

    scheme: SchemeParams
    components: tuple  # (b_i, a_i) pairs, one per digit, at the key ring's top level
    seeds: tuple  # one 32-byte seed per component


@dataclasses.dataclass(frozen=True)
class KeyMaterial:
    sk: SecretKey
    pk: PublicKey
    evk: RelinKey

    @property
    def scheme(self) -> SchemeParams:
        return self.sk.scheme


def keygen(params: SchemeParams, rng: np.random.Generator) -> KeyMaterial:
    """Sample (sk, pk, evk). Deterministic for a fixed Generator state.

    The sk and pk hold the ternary secret s over the chain, the evk over
    the key ring P ∪ Q: level 0's ModUp, the centred lift of s mod q_0,
    which is s itself. After s, each uniform half a takes a 32-byte seed
    from rng (rng.bytes), then its pair's error.
    """
    rp, kr, k = params.ring, params.key_ring, params.special_count
    lv, top = rp.max_level, kr.max_level
    s_int = ring.ternary_coeffs(rp.ring_degree, params.secret_weight, rng)
    s_coeff = ring.from_int_coeffs(s_int, rp, lv)
    s = ring.ntt_forward(s_coeff)
    s_key = ring.mod_up(s_coeff, s, params.mod_up[0][0], top)

    def masked(chain, secret, m=None):
        """(seed, (-a*secret + e + m, a)) for a fresh seed, its a over
        chain's top level and a fresh key error e; m = None is zero."""
        seed = rng.bytes(ring.SEED_BYTES)
        a = ring.sample_uniform(chain, chain.max_level, seed)
        e = ring.gaussian_coeffs(chain.ring_degree, ERR_STD, rng, KEY_ERR_TAIL)
        e = ring.ntt_forward(ring.from_int_coeffs(e, chain, a.level))
        b = ring.ring_sub(e if m is None else ring.ring_add(e, m), ring.ring_mul(a, secret))
        return seed, ring.pair(b, a)

    pk_seed, pk_pair = masked(rp, s)
    s2 = ring.ring_mul(s_key, s_key)
    big_p = math.prod(kr.moduli[:k])
    comps = []
    for d in params.digits(lv):
        # P*E_i*s^2: P*s^2 on digit i's rows, zero on every other row
        col = np.zeros((top + 1, 1), np.uint64)
        col[k + d.start : k + d.stop, 0] = [big_p % q for q in rp.moduli[d]]
        comps.append(masked(kr, s_key, ring.scalar_mul(s2, col)))
    seeds, pairs = zip(*comps)
    return KeyMaterial(
        SecretKey(params, s), PublicKey(params, pk_pair, pk_seed),
        RelinKey(params, pairs, seeds),
    )


# ---------------------------------------------------------------------------
# Ciphertexts
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Ciphertext:
    """The pair (c0, c1), one (2, level+1, N) element, with scale,
    ledgered noise, and a slot-value bound. A fresh ciphertext is in the
    Coefficient domain, and stays there through add, mult_const,
    weighted_sums and ct_drop_level; rescale returns it in the Evaluation
    domain, and every other op brings it there first (to_evaluation).

    Construction runs the ledger guards, so no ciphertext exists whose
    ledger is non-finite, over budget, or whose payload would wrap the
    level's modulus; noise_bits may be -inf (an exact ciphertext).
    """

    scheme: SchemeParams
    parts: ring.RingElement
    level: int
    scale: float
    noise_bits: float
    value_bound: float

    def __post_init__(self):
        if self.parts.parts_shape != (2,):
            raise ValueError(f"ciphertext needs 2 parts, got {self.parts.parts_shape}")
        if self.parts.level != self.level:
            raise ValueError("part level mismatch")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        _check_ledger(self.scheme, self.level, self.scale, self.noise_bits, self.value_bound)


def _check_ledger(params, level, scale, noise_bits, value_bound):
    """The ledger guards of a ciphertext at ``level``: finite fields,
    noise within the budget, and a payload that cannot wrap Q_level."""
    # a NaN or infinite ledger field would slip past both comparisons
    if not (noise_bits < math.inf and math.isfinite(value_bound) and math.isfinite(scale)):
        raise NoiseBudgetExceeded(
            f"non-finite ledger: noise_bits={noise_bits}, "
            f"value_bound={value_bound}, scale={scale}"
        )
    if noise_bits > params.noise_budget_bits:
        raise NoiseBudgetExceeded(
            f"ledger at {noise_bits:.1f} bits exceeds budget "
            f"{params.noise_budget_bits:.1f}"
        )
    payload_bits = _log2_sum(_log2_pos(value_bound * scale), noise_bits + _GUARD_MARGIN_BITS)
    if payload_bits > params.log2_modulus(level) - 1.0:
        raise NoiseBudgetExceeded(
            f"payload {payload_bits:.1f} bits would wrap the level-{level} "
            f"modulus ({params.log2_modulus(level):.1f} bits)"
        )


def with_value_bound(ct: Ciphertext, bound: float) -> Ciphertext:
    """Assert a tighter |slot value| bound known from caller math
    (e.g. Newton iterates stay in (0, 1/a]). Checked by decrypt-probe
    tests, not at runtime."""
    return dataclasses.replace(ct, value_bound=float(bound))


def with_error(ct: Ciphertext, error: float) -> Ciphertext:
    """ct with a known error per slot, such as a fit's sup error, added
    to its ledger."""
    noise = _log2_sum(ct.noise_bits, _log2_pos(error * ct.scale))
    return dataclasses.replace(ct, noise_bits=noise)


# encrypt_columns embeds this many coefficients' worth of columns at a
# time: 16 columns at N = 1024 embed as fast per column as 256 do, and
# the embedding's temporaries stay small beside the ciphertexts
_COLUMN_BLOCK = 1 << 14


def _encrypt(pk: PublicKey, m, scale, round_error, value_bound, rng) -> Ciphertext:
    """(b*u + e0 + m, a*u + e1) for an int64 message m that broadcasts to
    the key's (rows, N): u, e0 and e1 drawn in that order, and one
    ring.fft_mul that adds (m + e0, e1) to (b, a)*u before reducing."""
    params, n = pk.scheme, pk.scheme.ring.ring_degree
    u = ring.ternary_coeffs(n, params.secret_weight, rng)
    e0, e1 = (ring.gaussian_coeffs(n, ERR_STD, rng) for _ in range(2))
    plus = np.empty((2,) + m.shape, np.int64)
    np.add(m, e0, out=plus[0])
    plus[1] = e1
    parts = ring.fft_mul(pk.pair, pk.spectra, u, plus)
    noise = _log2_sum(params.fresh_noise_bits(), _log2_pos(round_error))
    return Ciphertext(params, parts, params.max_level, scale, noise, value_bound)


def encrypt(
    pk: PublicKey, pt: Plaintext, rng: np.random.Generator
) -> Ciphertext:
    """(b*u + e0 + m, a*u + e1) with ternary u and Gaussian e0, e1, in the
    Coefficient domain with no NTT and one reduction: ring.fft_mul forms
    the exact product (b, a)*u against the key's spectra and adds the
    residues of m, a Coefficient plaintext as ``encoding.encode``
    returns, and the errors as integers. Randomized: calls on one
    plaintext give distinct ciphertexts.
    """
    rp, lv, m = pk.scheme.ring, pk.scheme.max_level, pt.poly
    if pt.level != lv or m.domain != ring.Domain.COEFFICIENT or m.params != rp:
        raise ValueError(f"encryption takes a Coefficient plaintext of the key ring at level {lv}")
    return _encrypt(pk, m.residues.view(np.int64), pt.scale, pt.round_error, pt.value_bound, rng)


def encrypt_columns(pk: PublicKey, values, rng: np.random.Generator) -> list:
    """encrypt(pk, encode(column), rng) for each column of an (m, d)
    matrix in turn, byte for byte, embedding blocks of columns with
    encoding.encode_columns. A column joins fft_mul as its (1, N)
    integer coefficients, or as residues once its value bound times the
    scale reaches 2^51."""
    params, values = pk.scheme, np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected an (m, d) matrix, not shape {values.shape}")
    n = params.ring.ring_degree
    step, cts = max(1, _COLUMN_BLOCK // n), []
    for j in range(0, values.shape[1], step):
        ints, errors, bounds = encoding.encode_columns(values[:, j : j + step], params.scale, n)
        for c, error, bound in zip(ints[:, None], errors.tolist(), bounds.tolist()):
            # |c| <= max|slot|*scale up to rounding: m + e0 stays below ring.MAX_PLUS
            if bound * params.scale >= ring.MAX_PLUS >> 1:
                c = ring.from_int_coeffs(c[0], params.ring, params.max_level).residues.view(np.int64)
            cts.append(_encrypt(pk, c, params.scale, error, bound, rng))
    return cts


def to_evaluation(ct: Ciphertext) -> Ciphertext:
    """ct with its parts in the Evaluation domain: one forward-NTT kernel
    call on the pair, or ct itself if they are there already."""
    if ct.parts.domain == ring.Domain.EVALUATION:
        return ct
    return dataclasses.replace(ct, parts=ring.ntt_forward(ct.parts))


def decrypt(sk: SecretKey, ct: Ciphertext) -> Plaintext:
    """m = c0 + c1*s.

    Deterministic; a wrong key is not detected, it just yields noise.
    """
    ct = to_evaluation(ct)
    s = ring.drop_level(sk.s, ct.level)
    acc = ring.ring_add(ct.parts.part(0), ring.ring_mul(ct.parts.part(1), s))
    poly = ring.ntt_inverse(acc)
    return Plaintext(poly, ct.scale, value_bound=ct.value_bound)


def decrypt_to_slots(sk: SecretKey, ct: Ciphertext) -> np.ndarray:
    return encoding.decode(decrypt(sk, ct))


def _require_aligned(a: Ciphertext, b: Ciphertext):
    if a.scheme is not b.scheme and a.scheme != b.scheme:
        raise ValueError("scheme parameter mismatch")
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")


def _require_scale(s: float, t: float):
    """Scales s and t match to 2^-30 relative."""
    if abs(s - t) > SCALE_REL_TOL * max(s, t):
        raise ScaleMismatch(f"scales {s} vs {t}")


def _require_summable(a: Ciphertext, b: Ciphertext):
    """a and b align and their scales match to 2^-30 relative."""
    _require_aligned(a, b)
    _require_scale(a.scale, b.scale)


def _sum_ledger(a, b):
    """An addition's ledger rule on (noise_bits, value_bound) pairs."""
    return max(a[0], b[0]) + 1.0, a[1] + b[1]


def _pairwise(items, combine):
    """Balanced pairwise fold: combine neighbours until one item is left.

    On ledgers, a left fold charges max+1 per addition (+k bits for k
    terms); the tree charges +ceil(log2 k), which matches the true
    worst-case growth of a k-term sum.
    """
    items = list(items)
    if not items:
        raise ValueError("empty sum")
    while len(items) > 1:
        items = [
            combine(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def _combine(a: Ciphertext, b: Ciphertext, combine) -> Ciphertext:
    """combine(a.parts, b.parts), a ring sum or difference, with add's
    rules and ledger."""
    _require_summable(a, b)
    if a.parts.domain != b.parts.domain:
        a, b = to_evaluation(a), to_evaluation(b)
    parts = combine(a.parts, b.parts)
    noise, bound = _sum_ledger((a.noise_bits, a.value_bound), (b.noise_bits, b.value_bound))
    return dataclasses.replace(a, parts=parts, noise_bits=noise, value_bound=bound)


def add(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Slotwise sum; scales must match to 2^-30 relative. Operands of one
    domain sum in it, mixed ones in the Evaluation domain."""
    return _combine(a, b, ring.ring_add)


def sub(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Slotwise difference a - b, with add's rules and ledger."""
    return _combine(a, b, ring.ring_sub)


def negate(ct: Ciphertext) -> Ciphertext:
    """-ct: q - x per residue, in ct's domain and at its level, with its
    ledger, which bounds |values| and noise alike for either sign."""
    return dataclasses.replace(ct, parts=ring.negate(ct.parts))


def tree_sum(cts) -> Ciphertext:
    """Balanced pairwise sum of ciphertexts (see _pairwise)."""
    return _pairwise(cts, add)


def _times_ledger(ct: Ciphertext, scale, round_error, value_bound):
    """(noise_bits, value_bound) of ct times a plaintext at ``scale`` with
    this rounding error and |slot| bound: a product's ledger rule."""
    re = _log2_pos(round_error)
    noise = _log2_sum(
        ct.noise_bits + _log2_pos(value_bound * scale),
        re + _log2_pos(ct.value_bound * ct.scale),
        ct.noise_bits + re,
    )
    return noise, ct.value_bound * value_bound


def _times(ct: Ciphertext, parts, scale, round_error, value_bound):
    """ct with ``parts``, the old ones times a plaintext at ``scale``:
    _times_ledger's rule."""
    noise, bound = _times_ledger(ct, scale, round_error, value_bound)
    return dataclasses.replace(
        ct, parts=parts, scale=ct.scale * scale, noise_bits=noise,
        value_bound=bound,
    )


def mult_plain(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    """Slotwise product with a slot-vector plaintext; scale multiplies,
    the caller rescales when ready."""
    if pt.level < ct.level:
        raise ValueError(f"plaintext level {pt.level} below ciphertext {ct.level}")
    ct = to_evaluation(ct)
    parts = ring.ring_mul(ct.parts, ring.ntt_forward(ring.drop_level(pt.poly, ct.level)))
    return _times(ct, parts, pt.scale, pt.round_error, pt.value_bound)


def _encoded(value: float, scale: float):
    """(c0, round_error, value_bound) of ``value`` encoded at ``scale``."""
    c0, err = encoding.encode_constant(value, scale)
    return c0, err, abs(value) + err / scale


def add_const(ct: Ciphertext, value: float) -> Ciphertext:
    """Slotwise sum with ``value`` encoded at ct's scale: the columns of
    (c0, 0) added to the parts; the rounding error adds to the ledger."""
    ct = to_evaluation(ct)
    c0, err, bound = _encoded(value, ct.scale)
    cols = ring.constant_column([c0, 0], ct.scheme.ring, ct.level)
    return dataclasses.replace(
        ct, parts=ring.scalar_add(ct.parts, cols),
        noise_bits=_log2_sum(ct.noise_bits, _log2_pos(err)),
        value_bound=ct.value_bound + bound,
    )


def mult_const(ct: Ciphertext, value: float, scale: float) -> Ciphertext:
    """Slotwise product with ``value`` encoded at ``scale``; scale
    multiplies, the caller rescales when ready."""
    c0, err, bound = _encoded(value, scale)
    col = ring.constant_column(c0, ct.scheme.ring, ct.level)
    return _times(ct, ring.scalar_mul(ct.parts, col), float(scale), err, bound)


def weighted_sums(cts, weights, scale: float) -> list:
    """sum_k weights[k, c] * cts[k] for each column c of the (d, C) matrix
    ``weights``, each weight encoded at ``scale`` as by mult_const: scale
    multiplies, the caller rescales when ready.

    Residues and ledgers equal those of tree_sum over the d mult_consts
    of each column: every weight goes through encode_constant, each
    term's ledger is mult_const's, and the terms fold in tree_sum's order
    by add's rule. One streaming pass (ring.scalar_mul_sums, exact
    float64 matrix products of the encoded integers) takes the place of
    the d*C term ciphertexts. The only ciphertexts built are
    the C results, whose guards bound every partial sum, since the fold
    only grows noise_bits and value_bound. The sums are in the inputs'
    domain, or the Evaluation domain if the inputs mix domains.
    """
    cts = list(cts)
    weights = np.asarray(weights, dtype=np.float64)
    if not cts:
        raise ValueError("empty sum")
    if weights.ndim != 2 or weights.shape[0] != len(cts):
        raise ValueError(f"weights of shape {weights.shape} for {len(cts)} ciphertexts")
    if len(cts) > ring.MAX_SUM_TERMS:
        raise ValueError(f"{len(cts)} terms exceed {ring.MAX_SUM_TERMS}")
    first = cts[0]
    for ct in cts[1:]:
        _require_summable(first, ct)
    if len({ct.parts.domain for ct in cts}) > 1:
        cts = [to_evaluation(ct) for ct in cts]
    scale = float(scale)
    c0s, ledgers = np.empty(weights.shape, np.int64), []
    for k, ct in enumerate(cts):
        row = []
        for c, w in enumerate(weights[k].tolist()):
            c0s[k, c], err, bound = _encoded(w, scale)
            row.append(_times_ledger(ct, scale, err, bound))
        ledgers.append(row)
    sums = ring.scalar_mul_sums([ct.parts for ct in cts], c0s)
    out = []
    for c, parts in enumerate(sums):
        noise, bound = _pairwise((row[c] for row in ledgers), _sum_ledger)
        out.append(dataclasses.replace(
            first, parts=parts, scale=first.scale * scale, noise_bits=noise,
            value_bound=bound,
        ))
    return out


def _relinearize(d2: ring.RingElement, evk: RelinKey, level: int, base=None):
    """Hybrid key switching of c2 (Gentry, Halevi and Smart, CRYPTO 2012;
    Han and Ki, CT-RSA 2020) up to its division by P: one inverse NTT of
    c2; ModUp of each digit, a centred fast base conversion into P ∪
    Q_level, which is c2 mod the digit's primes, so that only the other
    rows are converted (ring.mod_up); and the digits' inner
    product with the evk over P ∪ Q_level, added onto ``base`` (on Q_level
    or P ∪ Q_level), which decrypts to P*c2*s^2 plus sum_i d_i*e_i.

    With digit_size 1 and no special primes each digit is c2's residue
    row centred into (-q_j/2, q_j/2], and P = 1 leaves nothing to divide:
    the CRT gadget, whose sums are the relinearized pair.
    """
    params = evk.scheme
    c2, top = ring.ntt_inverse(d2), params.special_count + level
    digits = [ring.mod_up(c2, d2, u, top) for u in params.mod_up[level]]
    return ring.mul_sums(digits, evk.components[: len(digits)], base)


def _products(pairs, evk: RelinKey, addend: Ciphertext = None):
    """(x, terms, noise, bound, scale) of sum_i a_i*b_i (+ addend), the
    operands at one level l and the products and addend at one scale: x,
    the products' tensors (d0, d1, d2) summed as two lazy sums
    (ring.mul_sums, the addend joining (d0, d1)), relinearized once and
    not yet divided, decrypts to P times the sum (see _relinearize);
    terms, the noise terms in bits at that scale, three a product and
    the addend's; and mult's ledger of the sum, which passes the guards
    at level l before any work.
    """
    if not pairs:
        raise ValueError("empty sum")
    params, lv = pairs[0][0].scheme, pairs[0][0].level
    scale = pairs[0][0].scale * pairs[0][1].scale
    terms, bound = [], 0.0
    for a, b in pairs:
        _require_aligned(pairs[0][0], a)
        _require_aligned(a, b)
        _require_scale(scale, a.scale * b.scale)
        # triangle inequality over |m1 nu2| + |m2 nu1| + |nu1 nu2|; each
        # term is an upper bound, so their log-sum needs no extra pad
        terms += (
            a.noise_bits + _log2_pos(b.value_bound * b.scale),
            b.noise_bits + _log2_pos(a.value_bound * a.scale),
            a.noise_bits + b.noise_bits,
        )
        bound += a.value_bound * b.value_bound
    if addend is not None:
        _require_aligned(pairs[0][0], addend)
        _require_scale(scale, addend.scale)
        terms.append(addend.noise_bits)
        bound += addend.value_bound
    if lv < 1:
        raise LevelExhausted("multiplication at level 0 leaves no rescale room")
    noise = _log2_sum(*terms, params.relin_noise_bits(lv))
    _check_ledger(params, lv, scale, noise, bound)
    ys, bs = zip(*((to_evaluation(a).parts, to_evaluation(b).parts) for a, b in pairs))
    # sum_i a0*(b0, b1) + addend and sum_i a1*(b0, b1): d0 and d1, d1 and d2
    base = None if addend is None else to_evaluation(addend).parts
    x = ring.mul_sums([y.part(0) for y in ys], bs, base)
    z = ring.mul_sums([y.part(1) for y in ys], bs)
    d01 = ring.pair(x.part(0), ring.ring_add(x.part(1), z.part(0)))
    if params.special_count:
        d01 = ring.scalar_mul(d01, params.p_mod_q[: lv + 1])
    return _relinearize(z.part(1), evk, lv, d01), terms, noise, bound, scale


def mult(a: Ciphertext, b: Ciphertext, evk: RelinKey) -> Ciphertext:
    """Tensor product immediately relinearized back to two parts: the
    product of _products divided by P.

    Result scale is scale_a * scale_b; rescale afterwards to bring it
    back down, or call mult_rescale. Raises LevelExhausted when no
    rescale level would remain.
    """
    x, _, noise, bound, scale = _products([(a, b)], evk)
    params = a.scheme
    parts = ring.divide(x, params.mod_down) if params.mod_down else x
    return Ciphertext(params, parts, a.level, scale, noise, bound)


def mult_rescale(a: Ciphertext, b: Ciphertext, evk: RelinKey) -> Ciphertext:
    """rescale(mult(a, b, evk)) with one division instead of two:
    mult_rescale_sum of the one pair. The residues differ from the
    two-step form's by its two roundings, at most floor(k/2) + 1 per
    coefficient for k special primes, and equal them for k = 0."""
    return mult_rescale_sum([(a, b)], evk)


def mult_rescale_sum(pairs, evk: RelinKey, addend: Ciphertext = None) -> Ciphertext:
    """sum_i a_i*b_i (+ addend) over ciphertext pairs (a_i, b_i), with one
    key switch and one division by P*q_l for the whole sum, at level l - 1
    in the Evaluation domain (Cheon, Han, Kim, Kim and Song, SAC 2018;
    Bossuat, Mouchet, Troncoso-Pastoriza and Hubaux, EUROCRYPT 2021). The
    operands share one level (else ValueError), and the products and the
    addend one scale (else ScaleMismatch). The ledger: every tensor term,
    the addend's noise and the switching error, each over q_l, and one
    rounding of the (k+1)-prime division.
    """
    pairs = list(pairs)
    x, terms, _, bound, scale = _products(pairs, evk, addend)
    params, lv = pairs[0][0].scheme, pairs[0][0].level
    q_top = params.ring.moduli[lv]
    q_bits = math.log2(q_top)
    noise = _log2_sum(
        *(t - q_bits for t in (*terms, params.switch_noise_bits(lv))),
        params.division_round_bits(params.special_count + 1),
    )
    parts = ring.divide(x, params.mult_rescale_div[lv])
    return Ciphertext(params, parts, lv - 1, scale / q_top, noise, bound)


def rescale(ct: Ciphertext) -> Ciphertext:
    """Drop the top prime, dividing scale (and value*scale payload) by it:
    ring.divide of the pair by q_top, exact RNS rounding, returned in the
    Evaluation domain. From the Evaluation domain only the parts' top
    rows and their lifts pass through an NTT; from the Coefficient domain
    only the quotient does."""
    if ct.level < 1:
        raise LevelExhausted("rescale at level 0")
    params, lv, q_top = ct.scheme, ct.level, ct.scheme.ring.moduli[ct.level]
    noise = _log2_sum(ct.noise_bits - math.log2(q_top), params.division_round_bits(1))
    return dataclasses.replace(
        ct, parts=ring.divide(ct.parts, params.rescale_div[lv]), level=lv - 1,
        scale=ct.scale / q_top, noise_bits=noise,
    )


def ct_drop_level(ct: Ciphertext, new_level: int) -> Ciphertext:
    """Truncate the modulus chain without touching scale or values."""
    if new_level > ct.level:
        raise ValueError(f"cannot raise level {ct.level} to {new_level}")
    if new_level == ct.level:
        return ct
    parts = ring.drop_level(ct.parts, new_level)
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
