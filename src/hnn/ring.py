"""Exact modular polynomial arithmetic in Z_q[X]/(X^N + 1), RNS form.

Each element keeps one residue row per prime of the modulus chain, as
a (level+1, N) uint64 block. Every kernel works on the whole block at
once against the (level+1, 1) column of moduli, so no operation loops
over primes in Python. All primes satisfy q ≡ 1 (mod 2N) so a negacyclic
NTT exists per prime, and all primes are kept below 2^42 so that
a*b mod q can be computed exactly with vectorized uint64 arithmetic
(21-bit split, no bigints on the hot path). Multiplication runs as
pointwise products in the NTT (Evaluation) domain; a schoolbook
negacyclic convolution is kept as an independent oracle.

Elements are immutable after construction (residue arrays are marked
read-only); every operation returns a new element, so concurrent use is
safe. Samplers take an explicit numpy Generator.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Sequence

import numpy as np

from .errors import ParameterError

# Largest prime size that keeps the 21-bit split product below 2^64.
MAX_PRIME_BITS = 42
_SPLIT = np.uint64(21)
_MASK21 = np.uint64((1 << 21) - 1)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def mulmod(a, b, q) -> np.ndarray:
    """Exact (a * b) % q on uint64 arrays, q < 2^42.

    q is a scalar or an array that broadcasts against a and b, such as a
    (rows, 1) column of moduli. Splits ``a`` into 21-bit low / 21-bit
    high halves so every intermediate stays below 2^64.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    q = np.asarray(q, dtype=np.uint64)
    hi = ((a >> _SPLIT) * b) % q
    lo = (a & _MASK21) * b
    return ((hi << _SPLIT) + lo) % q


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_below(limit: int, step: int) -> int:
    """Largest prime p < limit with p ≡ 1 (mod step)."""
    k = (limit - 2) // step
    while k > 0:
        p = k * step + 1
        if is_prime(p):
            return p
        k -= 1
    raise ParameterError(f"no prime ≡ 1 mod {step} below {limit}")


def prime_above(start: int, step: int) -> int:
    """Smallest prime p > start with p ≡ 1 (mod step)."""
    k = start // step + 1
    while True:
        p = k * step + 1
        if p.bit_length() > MAX_PRIME_BITS:
            raise ParameterError(
                f"prime search above {start} exceeded {MAX_PRIME_BITS} bits"
            )
        if is_prime(p):
            return p
        k += 1


def find_ntt_primes(ring_degree: int, bit_sizes: Sequence[int]) -> tuple:
    """Deterministic NTT-friendly modulus chain for X^N + 1.

    The first entry is the decryption (base) prime: the largest prime
    ≡ 1 (mod 2N) below 2^bits. Each further entry of b bits is the next
    unused prime just above 2^(b-1). Rescale primes sit slightly above
    the scale they divide, so the tracked scale drifts down, never up,
    protecting the base-level headroom.
    """
    step = 2 * ring_degree
    if not bit_sizes:
        raise ParameterError("empty modulus chain")
    for b in bit_sizes:
        if not 14 <= b <= MAX_PRIME_BITS:
            raise ParameterError(
                f"prime size {b} outside supported range [14, {MAX_PRIME_BITS}]"
            )
    chain = [prime_below(1 << bit_sizes[0], step)]
    for b in bit_sizes[1:]:
        p = prime_above(1 << (b - 1), step)
        while p in chain:
            p = prime_above(p, step)
        chain.append(p)
    return tuple(chain)


def _bit_reverse(i: int, bits: int) -> int:
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    return np.array([_bit_reverse(i, bits) for i in range(n)], dtype=np.int64)


class _NttTables:
    """Twiddle factors for a whole chain, one row per prime.

    Row j holds the powers of psi_j, a primitive 2N-th root of unity mod
    q_j, in bit-reversed order for the in-place Cooley-Tukey /
    Gentleman-Sande butterflies; an element at level l uses rows
    [:l+1]. The forward transform returns the evaluations of the
    polynomial at psi^(2k+1) in bit-reversed k order.
    """

    __slots__ = ("psi_rev", "ipsi_rev", "n_inv")

    def __init__(self, ring_degree: int, moduli: tuple):
        q_col = np.array(moduli, dtype=np.uint64)[:, None]
        # psi^i for i in [0, 2N) in log2(2N) doublings (powers [m, 2m) are
        # powers [0, m) times psi^m); psi^-i is psi^(2N - i)
        powers = np.ones((len(moduli), 2 * ring_degree), dtype=np.uint64)
        step = np.array([self._primitive_root(ring_degree, q) for q in moduli])
        step = step.astype(np.uint64)[:, None]
        m = 1
        while m < 2 * ring_degree:
            powers[:, m : 2 * m] = mulmod(powers[:, :m], step, q_col)
            step = mulmod(step, step, q_col)
            m <<= 1
        perm = bit_reverse_permutation(ring_degree)
        self.psi_rev = powers[:, perm]
        self.ipsi_rev = powers[:, (2 * ring_degree - perm) % (2 * ring_degree)]
        self.n_inv = np.array(
            [pow(ring_degree, -1, q) for q in moduli], dtype=np.uint64
        )[:, None]

    @staticmethod
    def _primitive_root(ring_degree: int, q: int) -> int:
        # psi = g^((q-1)/2N) is a 2N-th root; primitive iff psi^N = -1.
        exp = (q - 1) // (2 * ring_degree)
        for g in range(2, 10000):
            psi = pow(g, exp, q)
            if pow(psi, ring_degree, q) == q - 1:
                return psi
        raise ParameterError(f"no primitive 2N-th root found mod {q}")


_TABLE_CACHE: dict = {}


def _tables(params: RingParams) -> _NttTables:
    """Tables of the full chain; one top-level NTT fills every level."""
    key = (params.ring_degree, params.moduli)
    tb = _TABLE_CACHE.get(key)
    if tb is None:
        tb = _TABLE_CACHE[key] = _NttTables(*key)
    return tb


class Domain(enum.Enum):
    COEFFICIENT = "coefficient"
    EVALUATION = "evaluation"


@dataclasses.dataclass(frozen=True)
class RingParams:
    """Ring degree and modulus chain for Z_q[X]/(X^N + 1).

    ring_degree must be a power of two >= 8; every modulus must be a
    distinct prime ≡ 1 (mod 2N) so each prime supports a negacyclic NTT.
    """

    ring_degree: int
    moduli: tuple
    # (len(moduli), 1) uint64 column; level l uses rows [:l+1]
    _q_col: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ring_degree
        if n < 8 or n & (n - 1) != 0:
            raise ParameterError(f"ring degree {n} must be a power of two >= 8")
        if len(set(self.moduli)) != len(self.moduli):
            raise ParameterError("modulus chain contains duplicates")
        for q in self.moduli:
            if not is_prime(q):
                raise ParameterError(f"modulus {q} is not prime")
            if q % (2 * n) != 1:
                raise ParameterError(f"modulus {q} is not ≡ 1 mod {2 * n}")
            if q.bit_length() > MAX_PRIME_BITS:
                raise ParameterError(
                    f"modulus {q} exceeds {MAX_PRIME_BITS} bits"
                )
        col = np.array(self.moduli, dtype=np.uint64).reshape(-1, 1)
        col.flags.writeable = False
        object.__setattr__(self, "_q_col", col)

    @property
    def level_count(self) -> int:
        return len(self.moduli)

    @property
    def max_level(self) -> int:
        return len(self.moduli) - 1

    def modulus_product(self, level: int) -> int:
        return math.prod(self.moduli[: level + 1])

    def total_bits(self, level=None) -> int:
        if level is None:
            level = self.max_level
        return sum(q.bit_length() for q in self.moduli[: level + 1])


@dataclasses.dataclass(frozen=True)
class RingElement:
    """Polynomial residues: shape (level+1, N) uint64, one row per prime.

    Rows are reduced into [0, q_j). Arrays are frozen read-only; all ops
    return fresh elements.
    """

    params: RingParams
    level: int
    residues: np.ndarray
    domain: Domain

    def __post_init__(self):
        if self.residues.shape != (self.level + 1, self.params.ring_degree):
            raise ValueError(
                f"residue shape {self.residues.shape} does not match "
                f"level {self.level}, N {self.params.ring_degree}"
            )
        if self.residues.dtype != np.uint64:
            raise ValueError("residues must be uint64")
        self.residues.flags.writeable = False

    def _like(self, residues: np.ndarray, domain=None) -> "RingElement":
        return RingElement(
            self.params, self.level, residues, domain or self.domain
        )

    @property
    def moduli(self) -> tuple:
        return self.params.moduli[: self.level + 1]

    @property
    def _q(self) -> np.ndarray:
        """(level+1, 1) column of this element's moduli."""
        return self.params._q_col[: self.level + 1]


def _require_compatible(a: RingElement, b: RingElement, same_domain=True):
    if a.params is not b.params and a.params != b.params:
        raise ValueError("ring parameter mismatch")
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")
    if same_domain and a.domain != b.domain:
        raise ValueError(f"domain mismatch: {a.domain} vs {b.domain}")


def from_int_coeffs(
    coeffs, params: RingParams, level: int, domain=Domain.COEFFICIENT
) -> RingElement:
    """Reduce signed integer coefficients into RNS residues."""
    q = params._q_col[: level + 1].astype(np.int64)
    res = np.mod(np.asarray(coeffs), q).astype(np.uint64)
    return RingElement(params, level, res, domain)


def zero(params: RingParams, level: int, domain=Domain.COEFFICIENT) -> RingElement:
    res = np.zeros((level + 1, params.ring_degree), dtype=np.uint64)
    return RingElement(params, level, res, domain)


def ntt_forward(a: RingElement) -> RingElement:
    """Negacyclic NTT per residue prime; exact, O(N log N) per prime."""
    if a.domain != Domain.COEFFICIENT:
        raise ValueError("element already in Evaluation domain")
    rows, n = a.residues.shape
    psi_rev = _tables(a.params).psi_rev
    q = a._q[:, :, None]
    out = a.residues.copy()
    t, m = n, 1
    while m < n:
        t >>= 1
        blocks = out.reshape(rows, m, 2, t)
        u = blocks[:, :, 0].copy()
        w = mulmod(blocks[:, :, 1], psi_rev[:rows, m : 2 * m, None], q)
        blocks[:, :, 0] = (u + w) % q
        blocks[:, :, 1] = (u + (q - w)) % q
        m <<= 1
    return a._like(out, Domain.EVALUATION)


def _ntt_inverse_rows(a: RingElement, rows: slice) -> np.ndarray:
    """Inverse NTT of a's chain rows ``rows`` (a rescale needs only the top)."""
    tb = _tables(a.params)
    q_col, ipsi = a.params._q_col[rows], tb.ipsi_rev[rows]
    q = q_col[:, :, None]
    out = a.residues[rows].copy()
    k, n = out.shape
    t, m = 1, n
    while m > 1:
        h = m >> 1
        blocks = out.reshape(k, h, 2, t)
        u = blocks[:, :, 0].copy()
        w = blocks[:, :, 1]
        blocks[:, :, 0] = (u + w) % q
        blocks[:, :, 1] = mulmod((u + (q - w)) % q, ipsi[:, h:m, None], q)
        t <<= 1
        m = h
    return mulmod(out, tb.n_inv[rows], q_col)


def ntt_inverse(a: RingElement) -> RingElement:
    """Inverse of :func:`ntt_forward`; bit-exact round trip."""
    if a.domain != Domain.EVALUATION:
        raise ValueError("element already in Coefficient domain")
    return a._like(_ntt_inverse_rows(a, slice(0, a.level + 1)), Domain.COEFFICIENT)


def to_domain(a: RingElement, domain: Domain) -> RingElement:
    if a.domain == domain:
        return a
    return ntt_forward(a) if domain == Domain.EVALUATION else ntt_inverse(a)


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    _require_compatible(a, b)
    return a._like((a.residues + b.residues) % a._q)


def ring_sub(a: RingElement, b: RingElement) -> RingElement:
    _require_compatible(a, b)
    q = a._q
    return a._like((a.residues + (q - b.residues)) % q)


def ring_neg(a: RingElement) -> RingElement:
    q = a._q
    return a._like((q - a.residues) % q)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product mod (X^N + 1, q_j) per prime.

    Operands in the Evaluation domain multiply pointwise. Coefficient
    operands are auto-converted (and the result converted back), so the
    NTT cost is explicit at the call site only for mixed domains, which
    are rejected.
    """
    _require_compatible(a, b)
    if a.domain == Domain.COEFFICIENT:
        return ntt_inverse(ring_mul(ntt_forward(a), ntt_forward(b)))
    return a._like(mulmod(a.residues, b.residues, a._q))


def schoolbook_mul(a: RingElement, b: RingElement) -> RingElement:
    """O(N^2) negacyclic convolution oracle, exact via Python bigints.

    c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+N} a_i b_j (mod q).
    """
    _require_compatible(a, b)
    if a.domain != Domain.COEFFICIENT:
        raise ValueError("schoolbook_mul expects Coefficient domain")
    n = a.params.ring_degree
    out = np.empty_like(a.residues)
    for j, q in enumerate(a.moduli):
        conv = np.convolve(
            a.residues[j].astype(object), b.residues[j].astype(object)
        )
        folded = np.zeros(n, dtype=object)
        folded += conv[:n]
        folded[: len(conv) - n] -= conv[n:]
        out[j] = (folded % q).astype(np.uint64)
    return a._like(out)


def drop_level(a: RingElement, new_level: int) -> RingElement:
    """Remove residues above new_level; congruences below are untouched."""
    if new_level > a.level:
        raise ValueError(f"cannot raise level {a.level} to {new_level}")
    if new_level < 0:
        raise ValueError("level must be >= 0")
    if new_level == a.level:
        return a
    return RingElement(
        a.params, new_level, a.residues[: new_level + 1].copy(), a.domain
    )


# ---------------------------------------------------------------------------
# Samplers. All take an explicit numpy Generator; fixed seed => fixed output.
# ---------------------------------------------------------------------------

def sample_uniform(
    params: RingParams, level: int, rng: np.random.Generator
) -> RingElement:
    """Uniform element of R_q: per prime, coefficients i.i.d. in [0, q).

    The single draw against the moduli column is row-major: row j equals
    rng.integers(0, q_j, N) drawn in turn, row by row.
    """
    q = params._q_col[: level + 1]
    res = rng.integers(0, q, (level + 1, params.ring_degree), dtype=np.uint64)
    return RingElement(params, level, res, Domain.EVALUATION)


def sample_ternary(
    params: RingParams, level: int, hamming_weight: int, rng: np.random.Generator
) -> RingElement:
    """Exactly hamming_weight nonzero coefficients, each ±1."""
    n = params.ring_degree
    if not 0 < hamming_weight <= n:
        raise ValueError(f"hamming weight {hamming_weight} outside (0, {n}]")
    coeffs = np.zeros(n, dtype=np.int64)
    pos = rng.choice(n, hamming_weight, replace=False)
    coeffs[pos] = rng.integers(0, 2, hamming_weight) * 2 - 1
    return from_int_coeffs(coeffs, params, level)


def sample_gaussian(
    params: RingParams,
    level: int,
    std: float,
    rng: np.random.Generator,
    tail_bound: float = None,
) -> RingElement:
    """Coefficients rounded from N(0, std^2), reduced mod each prime.

    With tail_bound set, coefficients beyond tail_bound*std are resampled
    (used by key generation to make error-size invariants structural).
    """
    if std <= 0:
        raise ValueError("std must be positive")
    n = params.ring_degree
    g = rng.normal(0.0, std, n)
    if tail_bound is not None:
        cap = tail_bound * std
        bad = np.abs(np.rint(g)) >= cap
        while np.any(bad):
            g[bad] = rng.normal(0.0, std, int(bad.sum()))
            bad = np.abs(np.rint(g)) >= cap
    coeffs = np.rint(g).astype(np.int64)
    return from_int_coeffs(coeffs, params, level)


# ---------------------------------------------------------------------------
# CRT composition (off the hot path; object arrays hold Python bigints).
# ---------------------------------------------------------------------------

_CRT_CACHE: dict = {}


def _crt_constants(params: RingParams, level: int):
    """(Q, M, inv): M_j = Q/q_j as an object row, inv_j = M_j^-1 mod q_j
    as a uint64 column."""
    key = (params.ring_degree, params.moduli[: level + 1])
    consts = _CRT_CACHE.get(key)
    if consts is None:
        primes = params.moduli[: level + 1]
        big_q = params.modulus_product(level)
        m = np.array([big_q // q for q in primes], dtype=object)
        inv = np.array(
            [pow(big_q // q % q, -1, q) for q in primes], dtype=np.uint64
        )[:, None]
        consts = _CRT_CACHE[key] = (big_q, m, inv)
    return consts


def compose(a: RingElement):
    """CRT-combine residues to integers in [0, Q); returns (values, Q)."""
    if a.domain != Domain.COEFFICIENT:
        raise ValueError("compose expects Coefficient domain")
    big_q, m, inv = _crt_constants(a.params, a.level)
    t = mulmod(a.residues, inv, a._q)
    return np.dot(m, t.astype(object)) % big_q, big_q


def compose_signed(a: RingElement):
    """CRT-combine to centered representatives in (-Q/2, Q/2]."""
    vals, big_q = compose(a)
    half = big_q // 2
    return np.where(vals > half, vals - big_q, vals), big_q
