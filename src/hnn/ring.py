"""Exact modular polynomial arithmetic in Z_q[X]/(X^N + 1), RNS form.

Each element keeps one residue row per prime of the modulus chain, as a
(level+1, N) uint64 block, and every kernel works on the whole block,
with no Python loop over primes. All primes satisfy q ≡ 1 (mod 2N), so
a negacyclic NTT exists per prime and multiplication runs pointwise in
the NTT (Evaluation) domain.

There is one modular product, and no product divides. y*w mod q, for
y < 2^49 and w < q, takes the float64 quotient w_q = (w/q)(1 - 2^-50),
biased low so that est = trunc(y*w_q) is floor(y*w/q) or one below and
never above; y*w - est*q in wrapping uint64 then lies in [0, 2q) with
no correction (Harvey, J. Symb. Comp. 2014, less the correction).

A per-prime scalar (a constant's c mod q_j, rescale's q_top^-1, a CRT
gadget's unit column, composition's M_j^-1) is a (level+1, 1) residue
column, which scalar_mul and scalar_add apply to a whole element.
scalar_mul_sums applies a block of them to many elements and adds the
lazy products up; like the reduction of large integers (from_int_coeffs,
constant_column), its one final reduction of the sums divides.

The forward NTT does not reduce between stages. With the product t in
[0, 2q), a butterfly writes lo + t and lo + (2q - t), so values grow by
2q a stage, from [0, q) to below (2*log2(N) + 1)q, at most
31q < 2^47 at N = 32768; one product by one and one conditional
subtraction bring them into [0, q). The inverse reduces u + v into
[0, 2q) at every stage. Both use the constant-geometry (Pease) layout:
a stage copies the two halves (forward) or the even and odd entries
(inverse) of the block into contiguous buffers, and the forward output
is in the usual bit-reversed order. A pass transforms at most
max(1, 2^14/N) rows at a time (all 13 primes at N = 1024), so that its
buffers stay in a core's L2 cache.

Twiddles and moduli come from full-width tables, as numpy runs a ufunc
over contiguous operands of one shape in a single loop but broadcasts a
(rows, 1) column row by row; once a pass takes one row, the moduli
tables are zero-stride views of the column. For 13 primes the tables
hold 2.8 MiB at N = 1024 and 21.1 MiB at N = 32768. ring_add, ring_sub
and ring_neg reduce with one np.minimum(x, x - m) each.

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

# Largest prime size. The forward NTT keeps values below (2*log2(N) + 1)*q,
# under 31q < 2^47 at N = 32768, inside the product's range y < 2^49.
MAX_PRIME_BITS = 42

# Every float quotient w/q is formed biased low by this factor, so that
# an estimate of floor(y*w/q) never overshoots (see _mul).
_BIAS = 1.0 - 2.0 ** -50

# Most elements in one row chunk of an NTT pass: a chunk's half-width
# scratch then stays in a core's L2 cache, which pays from N = 4096 on.
_NTT_CHUNK = 1 << 14

# Lazy products lie in [0, 2q) below 2^43, so this many of them add
# exactly in uint64 (see scalar_mul_sums).
MAX_SUM_TERMS = 1 << 21

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _reduce(x, m):
    """x mod m for x in [0, 2m): subtract m where that does not wrap."""
    return np.minimum(x, x - m)


def _quotient(w, q):
    """w/q in float64, biased low by 2^-50: the quotient every product uses."""
    return w * (_BIAS / np.asarray(q, dtype=np.float64))


def _scratch(shape):
    """Output, float64 and int64 scratch for :func:`_mul`."""
    return np.empty(shape, np.uint64), np.empty(shape), np.empty(shape, np.int64)


def _mul(y, w, w_q, q, out, f, e):
    """out = y*w mod q, lazily in [0, 2q), for y < 2^49 and w < q, where
    w_q = _quotient(w, q); f (float64) and e (int64) are scratch of
    out's shape.

    y*w_q carries three float64 roundings against the 2^-50 bias, so it
    lies in (y*w/q - 0.69, y*w/q]: est = trunc(y*w_q) is floor(y*w/q) or
    one below, and y*w - est*q, formed in wrapping uint64, lands in
    [0, 2q) with no correction.
    """
    np.multiply(y.view(np.int64), w_q, out=f)
    np.copyto(e, f, casting="unsafe")
    est = e.view(np.uint64)
    np.multiply(est, q, out=est)
    np.multiply(y, w, out=out)
    return np.subtract(out, est, out=out)


def mulmod(a, b, q) -> np.ndarray:
    """Exact (a * b) % q on uint64 arrays, for a < 2^49 and b < q < 2^42.

    q is a scalar or an array that broadcasts against a and b, such as a
    (rows, 1) column of moduli. The NTT's product, reduced into [0, q).
    """
    a, b, q = (np.asarray(v, dtype=np.uint64) for v in (a, b, q))
    shape = np.broadcast_shapes(a.shape, b.shape, q.shape)
    return _reduce(_mul(a, b, _quotient(b, q), q, *_scratch(shape)), q)


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
    """Twiddle factors and moduli for a whole chain, one row per prime.

    Row j of psi_rev / ipsi_rev holds the powers of psi_j (a primitive
    2N-th root of unity mod q_j) and of its inverse in bit-reversed
    order. The forward transform returns the evaluations of the
    polynomial at psi^(2k+1) in bit-reversed k order.

    Stage s of the forward transform multiplies half-index k by
    psi_rev[2^s + (k mod 2^s)], a sequence of period 2^s. psi_stage[s]
    holds its first W = min(max(2^s, 512), N/2) terms as a (primes, 1, W)
    block that broadcasts over the half viewed as (rows, N/2W, W): every
    stage is full-width up to N = 1024, and numpy's inner loops stay long
    beyond. ipsi_stage is the same for the inverse, and the *_q tables
    hold each twiddle's biased quotient.

    The moduli are full-width as well, because numpy runs a ufunc over
    contiguous operands of one shape in a single loop but broadcasts a
    (rows, 1) column row by row: q, q2 (2q), q_inv (the quotient of 1),
    n_inv_wide and n_inv_q (N^-1 and its quotient) are (primes, N), and
    q_half and q2_half are (primes, N/2) for the NTT's halves. From
    N = _NTT_CHUNK on, where an NTT pass takes one row, they are
    zero-stride views of the column. n_inv is the (primes, 1) column. An
    element at level l uses rows [:l+1].
    """

    __slots__ = (
        "psi_rev", "ipsi_rev", "n_inv", "psi_stage", "psi_stage_q",
        "ipsi_stage", "ipsi_stage_q", "q", "q2", "q_inv", "q_half",
        "q2_half", "n_inv_wide", "n_inv_q",
    )

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
        h = ring_degree // 2
        stage_index = [
            (1 << s) + (np.arange(min(max(1 << s, 512), h)) % (1 << s))
            for s in range(ring_degree.bit_length() - 1)
        ]
        self.psi_stage, self.ipsi_stage = (
            tuple(rev[:, None, idx] for idx in stage_index)
            for rev in (self.psi_rev, self.ipsi_rev)
        )
        q_3d = q_col[:, :, None]
        self.psi_stage_q = tuple(_quotient(w, q_3d) for w in self.psi_stage)
        self.ipsi_stage_q = tuple(_quotient(w, q_3d) for w in self.ipsi_stage)

        def wide(col, width):
            # with one row per pass (N >= _NTT_CHUNK) a column costs numpy
            # nothing over a table, so the table stays a zero-stride view
            full = np.broadcast_to(col, (len(moduli), width))
            return full if ring_degree >= _NTT_CHUNK else np.ascontiguousarray(full)

        self.q, self.q_half = wide(q_col, ring_degree), wide(q_col, h)
        self.q2, self.q2_half = wide(2 * q_col, ring_degree), wide(2 * q_col, h)
        self.q_inv = wide(_quotient(1, q_col), ring_degree)
        self.n_inv_wide = wide(self.n_inv, ring_degree)
        self.n_inv_q = wide(_quotient(self.n_inv, q_col), ring_degree)

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
    """Reduce signed integer coefficients into RNS residues.

    int64 coefficients below twice the smallest prime in magnitude
    (sampled secrets and errors, key-switching digits, rescale lifts)
    are offset by 2q into (0, 4q) and reduced by two conditional
    subtractions; larger ones (encode) take np.mod.
    """
    c = np.asarray(coeffs)
    rows = slice(0, level + 1)
    bound = 2 * min(params.moduli)
    if c.dtype == np.int64 and -bound < c.min() and c.max() < bound:
        tb = _tables(params)
        q2 = tb.q2[rows]
        res = _reduce(_reduce(c.view(np.uint64) + q2, q2), tb.q[rows])
    else:
        res = np.mod(c, params._q_col[rows].astype(np.int64)).astype(np.uint64)
    return RingElement(params, level, res, domain)


def zero(params: RingParams, level: int, domain=Domain.COEFFICIENT) -> RingElement:
    res = np.zeros((level + 1, params.ring_degree), dtype=np.uint64)
    return RingElement(params, level, res, domain)


def _chunks(rows: slice, n: int):
    """``rows`` split into slices of at most max(1, _NTT_CHUNK // n) rows."""
    k = max(1, _NTT_CHUNK // n)
    return [slice(r, min(r + k, rows.stop)) for r in range(rows.start, rows.stop, k)]


def _pass_buffers(residues: np.ndarray):
    """Scratch of one NTT pass over a (k, N) row chunk: the work block x,
    three contiguous (k, N/2) uint64 buffers, and the float64 and int64
    scratch of _mul, (k, N) and flat, whose first k*N/2 entries serve
    the (k, N/2) halves."""
    x = residues.copy()
    k, n = x.shape
    bufs = tuple(np.empty((k, n // 2), np.uint64) for _ in range(3))
    return x, bufs, np.empty(k * n), np.empty(k * n, np.int64)


def ntt_forward(a: RingElement) -> RingElement:
    """Negacyclic NTT per residue prime; exact, O(N log N) per prime."""
    if a.domain != Domain.COEFFICIENT:
        raise ValueError("element already in Evaluation domain")
    tb = _tables(a.params)
    out = np.empty_like(a.residues)
    for rows in _chunks(slice(0, a.level + 1), a.params.ring_degree):
        x, (lo, hi, t), f, e = _pass_buffers(a.residues[rows])
        k, n = x.shape
        h = n // 2
        x_lo, x_hi = x[:, :h], x[:, h:]
        even, odd = x.reshape(k, h, 2).transpose(2, 0, 1)
        f_h, e_h = f[: k * h], e[: k * h]
        q, q2 = tb.q_half[rows], tb.q2_half[rows]
        for w, w_q in zip(tb.psi_stage, tb.psi_stage_q):
            # x below (2s + 1)q after s stages: Cooley-Tukey butterflies on
            # (x[k], x[k + N/2]) into (x[2k], x[2k + 1]), with t in [0, 2q)
            np.copyto(lo, x_lo)
            np.copyto(hi, x_hi)
            by_w = (k, -1, w.shape[2])
            _mul(
                hi.reshape(by_w), w[rows], w_q[rows], q.reshape(by_w),
                t.reshape(by_w), f_h.reshape(by_w), e_h.reshape(by_w),
            )
            np.add(lo, t, out=even)
            lo += q2
            np.subtract(lo, t, out=odd)
        # the product by one brings x below 2q
        q = tb.q[rows]
        _mul(x, np.uint64(1), tb.q_inv[rows], q, x, f.reshape(k, n), e.reshape(k, n))
        out[rows] = _reduce(x, q)
    return a._like(out, Domain.EVALUATION)


def _ntt_inverse_rows(a: RingElement, rows: slice) -> np.ndarray:
    """Inverse NTT of a's chain rows ``rows`` (a rescale needs only the top)."""
    tb = _tables(a.params)
    out = np.empty((rows.stop - rows.start, a.params.ring_degree), np.uint64)
    for chunk in _chunks(rows, a.params.ring_degree):
        x, (u, v, s), f, e = _pass_buffers(a.residues[chunk])
        k, n = x.shape
        h = n // 2
        x_lo, x_hi = x[:, :h], x[:, h:]
        even, odd = x.reshape(k, h, 2).transpose(2, 0, 1)
        f_h, e_h = f[: k * h], e[: k * h]
        q, q2 = tb.q_half[chunk], tb.q2_half[chunk]
        for w, w_q in zip(reversed(tb.ipsi_stage), reversed(tb.ipsi_stage_q)):
            # x in [0, 2q): Gentleman-Sande butterflies on (x[2k], x[2k + 1])
            # into (x[k], x[k + N/2]), with u + v reduced below 2q
            np.copyto(u, even)
            np.copyto(v, odd)
            np.add(u, v, out=s)
            u += q2
            u -= v
            np.minimum(s, np.subtract(s, q2, out=v), out=x_lo)
            by_w = (k, -1, w.shape[2])
            _mul(
                u.reshape(by_w), w[chunk], w_q[chunk], q.reshape(by_w),
                x_hi.reshape(by_w), f_h.reshape(by_w), e_h.reshape(by_w),
            )
        q = tb.q[chunk]
        _mul(
            x, tb.n_inv_wide[chunk], tb.n_inv_q[chunk], q,
            x, f.reshape(k, n), e.reshape(k, n),
        )
        out[chunk.start - rows.start : chunk.stop - rows.start] = _reduce(x, q)
    return out


def ntt_inverse(a: RingElement) -> RingElement:
    """Inverse of :func:`ntt_forward`; bit-exact round trip."""
    if a.domain != Domain.EVALUATION:
        raise ValueError("element already in Coefficient domain")
    return a._like(_ntt_inverse_rows(a, slice(0, a.level + 1)), Domain.COEFFICIENT)


def centered_coeffs(a: RingElement, rows: slice) -> np.ndarray:
    """Coefficients of a's chain rows ``rows``, inverse-NTT'd and centred
    into (-q_j/2, q_j/2] as int64: the digits of key switching (all rows)
    and the top-prime lift of a rescale (the top row)."""
    if a.domain != Domain.EVALUATION:
        raise ValueError("centered_coeffs expects Evaluation domain")
    x = _ntt_inverse_rows(a, rows).astype(np.int64)
    q = a.params._q_col[rows].astype(np.int64)
    return np.where(x > q // 2, x - q, x)


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    _require_compatible(a, b)
    q = _tables(a.params).q[: a.level + 1]
    return a._like(_reduce(a.residues + b.residues, q))


def ring_sub(a: RingElement, b: RingElement) -> RingElement:
    _require_compatible(a, b)
    # a - b wraps below zero exactly when adding q brings it into [0, q)
    d = a.residues - b.residues
    return a._like(np.minimum(d, d + _tables(a.params).q[: a.level + 1]))


def ring_neg(a: RingElement) -> RingElement:
    d = -a.residues
    return a._like(np.minimum(d, d + _tables(a.params).q[: a.level + 1]))


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product mod (X^N + 1, q_j) per prime, pointwise on Evaluation
    operands. Coefficient operands are rejected: multiplying them
    pointwise would not be the ring product."""
    _require_compatible(a, b)
    if a.domain != Domain.EVALUATION:
        raise ValueError("ring_mul expects Evaluation-domain operands")
    tb = _tables(a.params)
    rows = slice(0, a.level + 1)
    q = tb.q[rows]
    y, w = a.residues, b.residues
    r = _mul(y, w, w * tb.q_inv[rows], q, *_scratch(y.shape))
    return a._like(_reduce(r, q))


def constant_column(c, params: RingParams, level: int) -> np.ndarray:
    """c mod q_j as a (level+1, 1) uint64 column, for an integer |c| < 2^63;
    an integer array c gives one column per entry, c.shape + (level+1, 1)."""
    c = np.asarray(c, dtype=np.int64)[..., None, None]
    return np.mod(c, params._q_col[: level + 1].astype(np.int64)).astype(np.uint64)


def _column_q(a: RingElement, col: np.ndarray) -> np.ndarray:
    """a's full-width moduli table, once col is a (level+1, 1) uint64
    column of residues below a's primes."""
    if col.shape != (a.level + 1, 1) or col.dtype != np.uint64 or np.any(col >= a._q):
        raise ValueError(f"expected a ({a.level + 1}, 1) uint64 column below q_j")
    return _tables(a.params).q[: a.level + 1]


def scalar_mul(a: RingElement, col: np.ndarray) -> RingElement:
    """a times col, one residue per prime, in either domain; the biased
    quotient is formed on the column, not on an N-wide block."""
    q = _column_q(a, col)
    r = _mul(a.residues, col, _quotient(col, a._q), q, *_scratch(a.residues.shape))
    return a._like(_reduce(r, q))


def scalar_add(a: RingElement, col: np.ndarray) -> RingElement:
    """a plus col, one residue per prime: Evaluation operands only, where
    the constant polynomial c is c at every root."""
    if a.domain != Domain.EVALUATION:
        raise ValueError("scalar_add expects an Evaluation-domain operand")
    q = _column_q(a, col)
    return a._like(_reduce(a.residues + col, q))


def scalar_mul_sums(groups, cols) -> list:
    """sum_k groups[k][p] * cols[k, c] mod q_j for every column c and
    position p, in one pass over the d groups: groups holds d equal-length
    tuples of elements at one level and domain (a ciphertext's parts,
    say), cols is a (d, C, level+1, 1) uint64 block of residues below
    q_j. Returns C tuples, one element per position.

    Each group's lazy products against all C columns come from one _mul,
    in [0, 2q) below 2^43, and add into a (P, C, level+1, N) uint64
    accumulator, exact for up to MAX_SUM_TERMS groups; one remainder by
    q_j finishes every sum. Only the accumulator and one product block
    are alive, however many groups there are.
    """
    d = len(groups)
    if not 0 < d <= MAX_SUM_TERMS:
        raise ValueError(f"{d} terms outside [1, {MAX_SUM_TERMS}]")
    first = groups[0][0]
    for g in groups:
        if len(g) != len(groups[0]):
            raise ValueError("groups of unequal length")
        for el in g:
            _require_compatible(first, el)
    lv = first.level
    if (
        cols.ndim != 4 or cols.shape[0] != d or cols.shape[2:] != (lv + 1, 1)
        or cols.dtype != np.uint64 or np.any(cols >= first._q)
    ):
        raise ValueError(f"expected a ({d}, C, {lv + 1}, 1) uint64 block below q_j")
    shape = (len(groups[0]), cols.shape[1], lv + 1, first.params.ring_degree)
    q = _tables(first.params).q[: lv + 1]
    cols_q = _quotient(cols, first._q)
    acc = np.zeros(shape, np.uint64)
    out, f, e = _scratch(shape)
    for g, w, w_q in zip(groups, cols, cols_q):
        for p, el in enumerate(g):
            _mul(el.residues, w, w_q, q, out[p], f[p], e[p])
        np.add(acc, out, out=acc)
    np.remainder(acc, first._q, out=acc)
    return [
        tuple(first._like(acc[p, c]) for p in range(shape[0]))
        for c in range(shape[1])
    ]


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
    t = scalar_mul(a, inv).residues
    return np.dot(m, t.astype(object)) % big_q, big_q


def compose_signed(a: RingElement):
    """CRT-combine to centered representatives in (-Q/2, Q/2]."""
    vals, big_q = compose(a)
    half = big_q // 2
    return np.where(vals > half, vals - big_q, vals), big_q
