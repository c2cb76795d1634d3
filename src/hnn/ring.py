"""Exact modular polynomial arithmetic in Z_q[X]/(X^N + 1), RNS form.

Each element keeps one residue row per prime of the modulus chain, as a
(level+1, N) uint64 block, and every kernel works on the whole block,
with no Python loop over primes. An RLWE pair (a ciphertext's (c0, c1),
a public or evaluation key's (b, a)) is one element whose block has a
leading parts axis, (2, level+1, N). Sums take operands of one shape; a
product may broadcast a one-part operand across a pair's parts. All
primes satisfy q ≡ 1 (mod 2N), so a negacyclic NTT exists per prime and
multiplication runs pointwise in the NTT (Evaluation) domain.

There is one modular product, and no product divides. y*w mod q, for
y < 2^49 and w < q, takes the float64 quotient w_q = (w/q)(1 - 2^-50),
biased low so that est = trunc(y*w_q) is floor(y*w/q) or one below and
never above; y*w - est*q in wrapping uint64 then lies in [0, 2q) with
no correction (Harvey, J. Symb. Comp. 2014, less the correction).

A per-prime scalar (a constant's c mod q_j, an evaluation key's P*E_i,
composition's M_j^-1) is a (level+1, 1) residue column, which
scalar_mul and scalar_add apply to a whole element. Key switching's
kernels, mul_sums (elements times key pairs) and _convert (a fast
base conversion of some rows to another chain's primes, fixed once as
a Conversion; mod_up, a digit's ModUp, converts only the rows of other
primes), add lazy products up through one lazy-sum loop. Like the
reduction of large integers (from_int_coeffs, constant_column), its one
final reduction of the sums divides. scalar_mul_sums, the linear
layer, takes integer weights, not columns: sums of d elements times a
(d, C) weight matrix run as exact float64 matrix products (numpy's
BLAS) of 21-bit limbs, the weights' three and the residues' two, each
limb product at most 2^41 and each float sum of at most 4096 of them an
integer of at most 2^53, recombined mod q_j. divide serves rescale, key
switching's ModDown and a product's fused division: it divides a pair
by the product D of the rows it drops (the top prime q_l, the special
primes P, or P and q_l at once), as
(x_keep - NTT(convert(INTT(x_drop)))) * D^-1, or a Coefficient pair as
NTT((x_keep - convert(x_drop)) * D^-1). The NTT kernels take the rows
of a block as the first table row or as an index array, so the inverse
of P's rows and q_l's reads them from the key ring's tables, with no
tables built per level.

folded_fft evaluates real polynomials at the N/2 roots of X^N + 1 that
hold one of each conjugate pair, with one N/2-point float FFT, and
folded_ifft inverts it: the canonical embedding (encoding), and fft_mul,
which multiplies an element by a ternary polynomial exactly, in the
Coefficient domain and with no NTT: the element's centred residues,
split into two 21-bit limbs, meet the ternary factor there, and the
rounded limb products recombine mod q_j (encryption's pk*u + e).

The forward NTT does not reduce between stages. With the product t in
[0, 2q), a butterfly writes lo + t and lo + (2q - t), so values grow by
2q a stage, from [0, q) to below (2*log2(N) + 1)q, at most
31q < 2^47 at N = 32768; one product by one and one conditional
subtraction bring them into [0, q). The inverse reduces u + v into
[0, 2q) at every stage. Both use the constant-geometry (Pease) layout:
a stage copies the two halves (forward) or the even and odd entries
(inverse) of the block into contiguous buffers, and the forward output
is in the usual bit-reversed order. The kernels take a (parts, rows, N)
block, so ntt_forward and ntt_inverse take an element of any parts
shape in one kernel call. A pass transforms about max(1, 2^14/N) rows at
a time (all 8 primes of the default chain at N = 1024, or the 12 of
its key ring), so that its buffers stay in a core's L2 cache.

Twiddles and moduli come from full-width tables, as numpy runs a ufunc
over contiguous operands of one shape in a single loop but broadcasts a
(rows, 1) column row by row; once a pass takes one row, the moduli
tables are zero-stride views of the column. A key ring's tables take
0.20 MiB a prime at N = 1024 and 1.13 MiB at N = 32768; they are
built once, when the first transform of the parameter set needs them,
and the chain's are row views of them (see _tables). ring_add and
ring_sub reduce with one np.minimum(x, x - m) each.

Elements are immutable after construction (residue arrays are marked
read-only); every operation returns a new element, so concurrent use is
safe. The secret and error samplers take an explicit numpy Generator;
sample_uniform expands a 32-byte seed, so a key's uniform half ships as
its seed.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
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
# exactly in uint64 (see _lazy_sum); it also caps a weighted sum's terms.
MAX_SUM_TERMS = 1 << 21

# A signed limb is lo in [-2^20, 2^20) of x = lo + 2^21*rest (_limbs).
_LIMB_BITS = 21

# scalar_mul_sums' float64 products. A weight |w| <= MAX_WEIGHT (an
# encoded constant's cap) splits into three limbs of magnitude at most
# 2^20 and a residue into two of at most 2^21, so a limb product is at
# most 2^41 and _SUM_FLUSH of them add to an exact integer of at most
# 2^53. A matrix product takes _SUM_FEATURES elements' limbs over
# _SUM_SPAN entries of a row span (two rows at N = 1024): a (16, 2, 2,
# 2048) float64 block of 1 MiB for pairs.
MAX_WEIGHT = 1 << 62
_SUM_FLUSH = 1 << 12
_SUM_FEATURES = 16
_SUM_SPAN = 1 << 11
# x + _SPLIT - _SPLIT is x rounded to a multiple of 2^21, for 0 <= x <=
# 2^42: float64 values in [2^73, 2^74) are 2^21 apart.
_SPLIT = 1.5 * 2.0 ** 73

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Bases 2..17 decide every n below this (Jaeschke, Math. Comp. 1993),
# which covers every prime of at most 42 bits; it is itself a strong
# pseudoprime to all seven.
_MR_SEVEN_BASES_BELOW = 341_550_071_728_321


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


@functools.lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64: the first seven
    bases below _MR_SEVEN_BASES_BELOW, all twelve above.

    Memoized, so that one parameter load proves each prime once: the
    chain's search, its RingParams and the key ring's RingParams, and the
    special primes' search, all ask about the same numbers."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:7] if n < _MR_SEVEN_BASES_BELOW else _MR_BASES:
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


def _check_degree(n: int):
    if n < 8 or n & (n - 1) != 0:
        raise ParameterError(f"ring degree {n} must be a power of two >= 8")


def find_ntt_primes(ring_degree: int, bit_sizes: Sequence[int]) -> tuple:
    """Deterministic NTT-friendly modulus chain for X^N + 1.

    The first entry is the decryption (base) prime: the largest prime
    ≡ 1 (mod 2N) below 2^bits. Each further entry of b bits is the next
    unused prime just above 2^(b-1). Rescale primes sit slightly above
    the scale they divide, so the tracked scale drifts down, never up,
    protecting the base-level headroom. Every prime has the size asked:
    where a size has none left, a wider rescale prime would make the
    scale drift on, so that is a ParameterError.
    """
    _check_degree(ring_degree)
    step = 2 * ring_degree
    if not bit_sizes:
        raise ParameterError("empty modulus chain")
    for b in bit_sizes:
        if not 14 <= b <= MAX_PRIME_BITS:
            raise ParameterError(
                f"prime size {b} outside supported range [14, {MAX_PRIME_BITS}]"
            )
    chain = [prime_below(1 << bit_sizes[0], step)]
    # each size resumes above the last prime it took: every prime between
    # 2^(b-1) and that one is already in the chain, so the walk is linear
    last = {}
    for b in bit_sizes[1:]:
        p = prime_above(last.get(b, 1 << (b - 1)), step)
        while p in chain:
            p = prime_above(p, step)
        last[b] = p
        chain.append(p)
    for p, b in zip(chain, bit_sizes):
        if p.bit_length() != b:
            raise ParameterError(f"no unused {b}-bit prime ≡ 1 mod {step}")
    return tuple(chain)


def bit_reverse_permutation(n: int) -> np.ndarray:
    """rev(i), the log2(n)-bit reversal of i < n, by doubling: over 2m
    indices it is 2*rev(i) for i < m, then 2*rev(i) + 1."""
    perm = np.zeros(1, np.int64)
    while len(perm) < n:
        perm = np.concatenate((2 * perm, 2 * perm + 1))
    return perm


class _NttTables:
    """Twiddle factors and moduli for a whole chain, one row per prime.

    psi_j is a primitive 2N-th root of unity mod q_j. The forward
    transform returns the evaluations of the polynomial at psi^(2k+1) in
    bit-reversed k order. Stage s multiplies half-index k by
    psi^rev(2^s + (k mod 2^s)), rev the log2(N)-bit reversal, a sequence
    of period 2^s. psi_stage[s] holds its first
    W = min(max(2^s, 512), N/2) terms as a (primes, 1, W) block that
    broadcasts over the half viewed as (rows, N/2W, W): every stage is
    full-width up to N = 1024, and numpy's inner loops stay long beyond.
    ipsi_stage is the same for psi^-1, and the *_q tables hold each
    twiddle's biased quotient. The blocks are C-contiguous, so a pass
    reads each row's twiddles unstrided.

    The moduli are full-width as well, because numpy runs a ufunc over
    contiguous operands of one shape in a single loop but broadcasts a
    (rows, 1) column row by row: q, q2 (2q), q_inv (the quotient of 1),
    n_inv_wide and n_inv_q (N^-1 and its quotient) are (primes, N), and
    q_half and q2_half are (primes, N/2) for the NTT's halves. From
    N = _NTT_CHUNK on, where an NTT pass takes one row, they are
    zero-stride views of the column. An element at level l uses rows
    [:l+1].
    """

    __slots__ = (
        "psi_stage", "psi_stage_q", "ipsi_stage", "ipsi_stage_q", "q", "q2",
        "q_inv", "q_half", "q2_half", "n_inv_wide", "n_inv_q",
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
        h = ring_degree // 2
        stage_index = [
            (1 << s) + (np.arange(min(max(1 << s, 512), h)) % (1 << s))
            for s in range(ring_degree.bit_length() - 1)
        ]
        # fancy indexing leaves the prime axis innermost in memory
        self.psi_stage, self.ipsi_stage = (
            tuple(np.ascontiguousarray(powers[:, None, exps[idx]]) for idx in stage_index)
            for exps in (perm, (2 * ring_degree - perm) % (2 * ring_degree))
        )
        q_3d = q_col[:, :, None]
        self.psi_stage_q = tuple(_quotient(w, q_3d) for w in self.psi_stage)
        self.ipsi_stage_q = tuple(_quotient(w, q_3d) for w in self.ipsi_stage)

        def wide(col, width):
            # with one row per pass (N >= _NTT_CHUNK) a column costs numpy
            # nothing over a table, so the table stays a zero-stride view
            full = np.broadcast_to(col, (len(moduli), width))
            return full if ring_degree >= _NTT_CHUNK else np.ascontiguousarray(full)

        n_inv = np.array([[pow(ring_degree, -1, q)] for q in moduli], dtype=np.uint64)
        self.q, self.q_half = wide(q_col, ring_degree), wide(q_col, h)
        self.q2, self.q2_half = wide(2 * q_col, ring_degree), wide(2 * q_col, h)
        self.q_inv = wide(_quotient(1, q_col), ring_degree)
        self.n_inv_wide = wide(n_inv, ring_degree)
        self.n_inv_q = wide(_quotient(n_inv, q_col), ring_degree)

    def suffix(self, start: int) -> "_NttTables":
        """Views of rows [start:] of every table: the tables of a chain that
        ends this one, since each row depends on its prime alone."""
        view = object.__new__(_NttTables)
        for name in self.__slots__:
            val = getattr(self, name)
            if isinstance(val, tuple):
                setattr(view, name, tuple(v[start:] for v in val))
            else:
                setattr(view, name, val[start:])
        return view

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
_KEY_RINGS: set = set()


def register_key_ring(params: RingParams):
    """Mark params' chain as one whose tables serve the chains that end
    it (Q behind the special primes of a key ring): nothing is built
    until a transform asks for the tables of either."""
    _KEY_RINGS.add((params.ring_degree, params.moduli))


def _tables(params: RingParams) -> _NttTables:
    """Tables of the full chain, cached by value; one top-level NTT fills
    every level. A chain that ends a cached or registered longer one
    takes row views of its tables, which are built first if need be, so
    a key ring and its chain share one build."""
    n, moduli = key = (params.ring_degree, params.moduli)
    tb = _TABLE_CACHE.get(key)
    if tb is None:
        longer = next((
            k for k in (*_TABLE_CACHE, *_KEY_RINGS)
            if k[0] == n and len(k[1]) > len(moduli) and k[1][-len(moduli):] == moduli
        ), None)
        if longer is None:
            tb = _NttTables(*key)
        else:
            if longer not in _TABLE_CACHE:
                _TABLE_CACHE[longer] = _NttTables(*longer)
            tb = _TABLE_CACHE[longer].suffix(len(longer[1]) - len(moduli))
        _TABLE_CACHE[key] = tb
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
        _check_degree(n)
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

    def total_bits(self) -> int:
        return sum(q.bit_length() for q in self.moduli)


@dataclasses.dataclass(frozen=True)
class RingElement:
    """Polynomial residues: shape (level+1, N) uint64, one row per prime,
    behind any parts axes: (2, level+1, N) for an RLWE pair.

    Rows are reduced into [0, q_j). Arrays are frozen read-only; all ops
    return fresh elements.
    """

    params: RingParams
    level: int
    residues: np.ndarray
    domain: Domain

    def __post_init__(self):
        if self.residues.shape[-2:] != (self.level + 1, self.params.ring_degree):
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

    def part(self, i) -> "RingElement":
        """Part i (or the parts a slice i picks), as a view."""
        return self._like(self.residues[i])

    @property
    def parts_shape(self) -> tuple:
        """The block's parts axes: (2,) for a pair, () for one part."""
        return self.residues.shape[:-2]

    @property
    def moduli(self) -> tuple:
        return self.params.moduli[: self.level + 1]

    @property
    def _q(self) -> np.ndarray:
        """(level+1, 1) column of this element's moduli."""
        return self.params._q_col[: self.level + 1]


def _require_compatible(a: RingElement, b: RingElement, broadcast=False):
    """a and b share params, level and domain, and their blocks one shape,
    or with ``broadcast`` one of them is a single part."""
    if a.params is not b.params and a.params != b.params:
        raise ValueError("ring parameter mismatch")
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")
    if a.domain != b.domain:
        raise ValueError(f"domain mismatch: {a.domain} vs {b.domain}")
    if a.parts_shape != b.parts_shape and not (
        broadcast and () in (a.parts_shape, b.parts_shape)
    ):
        raise ValueError(f"parts mismatch: {a.parts_shape} vs {b.parts_shape}")


def pair(a: RingElement, b: RingElement) -> RingElement:
    """The pair (a, b) of one-part elements as one (2, level+1, N) element."""
    _require_compatible(a, b)
    if a.parts_shape:
        raise ValueError(f"a pair's parts are single, not {a.parts_shape}")
    return a._like(np.stack((a.residues, b.residues)))


def from_int_coeffs(coeffs, params: RingParams, level: int) -> RingElement:
    """Reduce signed integer coefficients into Coefficient RNS residues.

    int64 coefficients below twice the smallest prime in magnitude
    (sampled secrets and errors, and encode's on every workload) are
    offset by 2q into (0, 4q) and reduced by two conditional
    subtractions; larger ones take np.mod.
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
    return RingElement(params, level, res, Domain.COEFFICIENT)


def zero(params: RingParams, level: int, domain=Domain.COEFFICIENT) -> RingElement:
    res = np.zeros((level + 1, params.ring_degree), dtype=np.uint64)
    return RingElement(params, level, res, domain)


def _passes(parts: int, count: int, n: int):
    """(parts, rows) slices of the passes over a (parts, count, N) block:
    the whole block while it rounds to one pass of k = max(1, _NTT_CHUNK
    // n) rows, else each part alone in round(count / k) near-equal row
    slices, as numpy's loops cost less over (k, N) than (2, k/2, N)."""
    per = max(1, _NTT_CHUNK // n)
    if round(parts * count / per) <= 1:
        return [(slice(0, parts), slice(0, count))]
    passes = max(1, round(count / per))
    bounds = [count * i // passes for i in range(passes + 1)]
    row_slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [(slice(p, p + 1), rows) for p in range(parts) for rows in row_slices]


def _pass_buffers(block: np.ndarray):
    """One NTT pass over a (p, k, N) block: the work block x, (k, N) if
    p = 1; views of its halves and of its even and odd entries; three
    buffers of the halves' shape; and _mul's float64 and int64 scratch of
    x's shape, whose first x.size/2 entries serve the halves."""
    x = block[0].copy() if len(block) == 1 else block.copy()
    h = x.shape[-1] // 2
    pairs = x.reshape(x.shape[:-1] + (h, 2))
    bufs = tuple(np.empty(x.shape[:-1] + (h,), np.uint64) for _ in range(3))
    scratch = np.empty(x.shape), np.empty(x.shape, np.int64)
    return x, (x[..., :h], x[..., h:]), (pairs[..., 0], pairs[..., 1]), bufs, *scratch


def _table_rows(rows, chunk: slice):
    """The table rows of a pass over the block rows ``chunk``, where rows
    is the table row of the block's first row or an increasing index
    array of the table row of each: a slice (views of the tables) while
    they run consecutively, else the index array (a gather)."""
    if isinstance(rows, (int, np.integer)):
        return slice(rows + chunk.start, rows + chunk.stop)
    r = rows[chunk]
    if r[-1] - r[0] == len(r) - 1:
        return slice(int(r[0]), int(r[-1]) + 1)
    return r


def _ntt_forward_block(block: np.ndarray, tb: _NttTables, rows) -> np.ndarray:
    """Forward NTT of a (parts, k, N) block of Coefficient residues, every
    part alike, whose rows are the chain rows that ``rows`` gives (see
    _table_rows): k rows from a first row, or those of an index array."""
    out = np.empty_like(block)
    for parts, chunk in _passes(*block.shape):
        x, (x_lo, x_hi), (even, odd), (lo, hi, t), f, e = _pass_buffers(block[parts, chunk])
        rs = _table_rows(rows, chunk)
        f_h, e_h = (a.reshape(-1)[: x.size // 2] for a in (f, e))
        q, q2 = tb.q_half[rs], tb.q2_half[rs]
        for w, w_q in zip(tb.psi_stage, tb.psi_stage_q):
            # x below (2s + 1)q after s stages: Cooley-Tukey butterflies on
            # (x[k], x[k + N/2]) into (x[2k], x[2k + 1]), with t in [0, 2q)
            np.copyto(lo, x_lo)
            np.copyto(hi, x_hi)
            by_w = x.shape[:-1] + (-1, w.shape[2])
            _mul(
                hi.reshape(by_w), w[rs], w_q[rs], q.reshape(by_w[-3:]),
                t.reshape(by_w), f_h.reshape(by_w), e_h.reshape(by_w),
            )
            np.add(lo, t, out=even)
            lo += q2
            np.subtract(lo, t, out=odd)
        # the product by one brings x below 2q
        q = tb.q[rs]
        _mul(x, np.uint64(1), tb.q_inv[rs], q, x, f, e)
        out[parts, chunk] = _reduce(x, q)
    return out


def _ntt_inverse_block(block: np.ndarray, tb: _NttTables, rows) -> np.ndarray:
    """Inverse of :func:`_ntt_forward_block`."""
    out = np.empty_like(block)
    for parts, chunk in _passes(*block.shape):
        x, (x_lo, x_hi), (even, odd), (u, v, s), f, e = _pass_buffers(block[parts, chunk])
        rs = _table_rows(rows, chunk)
        f_h, e_h = (a.reshape(-1)[: x.size // 2] for a in (f, e))
        q, q2 = tb.q_half[rs], tb.q2_half[rs]
        for w, w_q in zip(reversed(tb.ipsi_stage), reversed(tb.ipsi_stage_q)):
            # x in [0, 2q): Gentleman-Sande butterflies on (x[2k], x[2k + 1])
            # into (x[k], x[k + N/2]), with u + v reduced below 2q
            np.copyto(u, even)
            np.copyto(v, odd)
            np.add(u, v, out=s)
            u += q2
            u -= v
            np.minimum(s, np.subtract(s, q2, out=v), out=x_lo)
            by_w = x.shape[:-1] + (-1, w.shape[2])
            _mul(
                u.reshape(by_w), w[rs], w_q[rs], q.reshape(by_w[-3:]),
                x_hi.reshape(by_w), f_h.reshape(by_w), e_h.reshape(by_w),
            )
        q = tb.q[rs]
        _mul(x, tb.n_inv_wide[rs], tb.n_inv_q[rs], q, x, f, e)
        out[parts, chunk] = _reduce(x, q)
    return out


def _ntt(a: RingElement, kernel, src: Domain, dst: Domain) -> RingElement:
    """a, in ``src``, through ``kernel`` with all its parts in one call."""
    if a.domain != src:
        raise ValueError(f"element not in {src.value} domain")
    block = a.residues.reshape((-1,) + a.residues.shape[-2:])
    out = kernel(block, _tables(a.params), 0)
    return a._like(out.reshape(a.residues.shape), dst)


def ntt_forward(a: RingElement) -> RingElement:
    """Negacyclic NTT per residue prime of every part of a, in one kernel
    call; exact, O(N log N) per row."""
    return _ntt(a, _ntt_forward_block, Domain.COEFFICIENT, Domain.EVALUATION)


def ntt_inverse(a: RingElement) -> RingElement:
    """Inverse of :func:`ntt_forward`; bit-exact round trip."""
    return _ntt(a, _ntt_inverse_block, Domain.EVALUATION, Domain.COEFFICIENT)


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    _require_compatible(a, b)
    q = _tables(a.params).q[: a.level + 1]
    return a._like(_reduce(a.residues + b.residues, q))


def negate(a: RingElement) -> RingElement:
    """-a: q - x per residue, q itself reduced to 0, in either domain."""
    q = _tables(a.params).q[: a.level + 1]
    return a._like(_reduce(q - a.residues, q))


def ring_sub(a: RingElement, b: RingElement) -> RingElement:
    _require_compatible(a, b)
    # a - b wraps below zero exactly when adding q brings it into [0, q)
    d = a.residues - b.residues
    return a._like(np.minimum(d, d + _tables(a.params).q[: a.level + 1]))


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product mod (X^N + 1, q_j) per prime, pointwise on Evaluation
    operands; a one-part operand multiplies each part of a pair.
    Coefficient operands are rejected: multiplying them pointwise would
    not be the ring product."""
    _require_compatible(a, b, broadcast=True)
    if a.domain != Domain.EVALUATION:
        raise ValueError("ring_mul expects Evaluation-domain operands")
    tb = _tables(a.params)
    rows = slice(0, a.level + 1)
    q = tb.q[rows]
    y, w = a.residues, b.residues
    r = _mul(y, w, w * tb.q_inv[rows], q, *_scratch(np.broadcast_shapes(y.shape, w.shape)))
    return a._like(_reduce(r, q))


def constant_column(c, params: RingParams, level: int) -> np.ndarray:
    """c mod q_j as a (level+1, 1) uint64 column, for an integer |c| < 2^63;
    an integer array c gives one column per entry, c.shape + (level+1, 1)."""
    c = np.asarray(c, dtype=np.int64)[..., None, None]
    return np.mod(c, params._q_col[: level + 1].astype(np.int64)).astype(np.uint64)


def _column_q(a: RingElement, col: np.ndarray, parts=()) -> np.ndarray:
    """a's full-width moduli table, once col is a parts + (level+1, 1)
    uint64 block of residues below a's primes."""
    shape = parts + (a.level + 1, 1)
    if col.shape != shape or col.dtype != np.uint64 or np.any(col >= a._q):
        raise ValueError(f"expected a {shape} uint64 column below q_j")
    return _tables(a.params).q[: a.level + 1]


def scalar_mul(a: RingElement, col: np.ndarray) -> RingElement:
    """a times col, one residue per prime, in either domain and on every
    part alike; the biased quotient is formed on the column, not on an
    N-wide block."""
    q = _column_q(a, col)
    r = _mul(a.residues, col, _quotient(col, a._q), q, *_scratch(a.residues.shape))
    return a._like(_reduce(r, q))


def scalar_add(a: RingElement, col: np.ndarray) -> RingElement:
    """a plus col, one residue per part and prime (col has a's shape with
    N = 1): Evaluation operands only, where the constant polynomial c is
    c at every root."""
    if a.domain != Domain.EVALUATION:
        raise ValueError("scalar_add expects an Evaluation-domain operand")
    q = _column_q(a, col, a.parts_shape)
    return a._like(_reduce(a.residues + col, q))


def _lazy_sum(acc: np.ndarray, terms, q: np.ndarray, q_col: np.ndarray) -> np.ndarray:
    """acc plus the sum of y*w mod q over the (y, w, w_q) terms, with w_q
    = _quotient(w, q): each lazy product, in [0, 2q) below 2^43, adds into
    the uint64 block acc, exact for up to MAX_SUM_TERMS of them, and one
    remainder by the column q_col finishes every sum in place. Only acc
    and one product block are alive, however many terms there are."""
    out, f, e = _scratch(acc.shape)
    for y, w, w_q in terms:
        acc += _mul(y, w, w_q, q, out, f, e)
    return np.remainder(acc, q_col, out=acc)


def _limbs(x: np.ndarray):
    """(lo, rest) with x = lo + 2^21*rest and lo in [-2^20, 2^20), for int64 x."""
    half = 1 << (_LIMB_BITS - 1)
    lo = ((x + half) & ((1 << _LIMB_BITS) - 1)) - half
    return lo, (x - lo) >> _LIMB_BITS


def scalar_mul_sums(els, weights) -> list:
    """sum_k els[k] * weights[k, c] mod q_j for every column c of the int64
    (d, C) matrix ``weights``, |weights| <= MAX_WEIGHT, in one pass over
    the d elements: els are d elements of one shape, level and domain
    (ciphertexts' pairs, say), and each weight meets every part alike.
    Returns C elements of els' shape.

    The sums are exact float64 matrix products (Dumas, Giorgi and Pernet,
    ACM TOMS 2008). A weight splits into three signed limbs, w = w0 +
    2^21*w1 + 2^42*w2 with |w_a| <= 2^20, and a residue x < 2^42 into two,
    x = x0 + 2^21*x1 with |x0| <= 2^20 and 0 <= x1 <= 2^21, so a limb
    product is an integer of magnitude at most 2^41 and a sum of
    _SUM_FLUSH = 4096 of them one of at most 2^53: exact in float64,
    whatever order or FMA the BLAS sums in. The elements stream in blocks
    (_limb_sums), and every _SUM_FLUSH of them the six limb-pair sums are
    reduced and recombined mod q_j (_recombine); no (d, parts, level+1, N)
    stack is built.
    """
    d = len(els)
    if not 0 < d <= MAX_SUM_TERMS:
        raise ValueError(f"{d} terms outside [1, {MAX_SUM_TERMS}]")
    first = els[0]
    for el in els:
        _require_compatible(first, el)
    if (
        not isinstance(weights, np.ndarray) or weights.dtype != np.int64
        or weights.ndim != 2 or weights.shape[0] != d
        or np.any((weights < -MAX_WEIGHT) | (weights > MAX_WEIGHT))
    ):
        raise ValueError(f"expected a ({d}, C) int64 matrix of weights within ±2^62")
    w0, rest = _limbs(weights)
    w1, w2 = _limbs(rest)
    c = weights.shape[1]
    # row a*C + c holds limb a of column c
    w = np.stack((w0, w1, w2)).transpose(0, 2, 1).reshape(3 * c, d).astype(np.float64)
    n, rows_all = first.params.ring_degree, first.level + 1
    q_col = first._q
    two21 = np.uint64(1 << _LIMB_BITS) % q_col
    shift = (two21, _quotient(two21, q_col))
    xs = [el.residues.view(np.int64) for el in els]
    out = np.empty((c,) + first.residues.shape, np.uint64)
    step = max(1, _SUM_SPAN // n)
    for r0 in range(0, rows_all, step):
        rows = slice(r0, min(r0 + step, rows_all))
        q, sh = q_col[rows], tuple(s[rows] for s in shift)
        for n0 in range(0, n, _SUM_SPAN):
            block = (Ellipsis, rows, slice(n0, n0 + _SUM_SPAN))
            for k0 in range(0, d, _SUM_FLUSH):
                k = slice(k0, k0 + _SUM_FLUSH)
                t = _recombine(_limb_sums(w[:, k], xs[k], block), q, sh)
                out[block] = t if k0 == 0 else _reduce(out[block] + t, q)
    return [first._like(a) for a in out]


def _limb_sums(w: np.ndarray, xs: list, block: tuple) -> np.ndarray:
    """The (3, C, 2) + block-shape sums, over the elements xs (int64 views
    of residues) at ``block``, of weight limb a times residue limb b, for
    the (3C, len(xs)) weight limbs w. _SUM_FEATURES elements at a time
    are copied into a float64 block and split there, x into 2^21*x1 (x
    rounded by _SPLIT) and x0 = x - 2^21*x1, and one np.matmul adds their
    products. Limb 1's sums carry the 2^21 until the end, when they are
    scaled back, so every entry is an exact integer."""
    shape = xs[0][block].shape
    size = math.prod(shape)
    buf = np.empty(min(len(xs), _SUM_FEATURES) * 2 * size)
    acc, part = np.empty((w.shape[0], 2 * size)), None
    for k0 in range(0, len(xs), _SUM_FEATURES):
        group = xs[k0 : k0 + _SUM_FEATURES]
        x = buf[: len(group) * 2 * size].reshape((len(group), 2) + shape)
        lo, hi = x[:, 0], x[:, 1]
        for i, xi in enumerate(group):
            np.copyto(lo[i], xi[block], casting="unsafe")
        np.add(lo, _SPLIT, out=hi)
        hi -= _SPLIT
        lo -= hi
        wk, x = w[:, k0 : k0 + len(group)], x.reshape(len(group), -1)
        if k0 == 0:
            np.matmul(wk, x, out=acc)
        else:
            part = np.matmul(wk, x, out=part)
            acc += part
    acc = acc.reshape((3, w.shape[0] // 3, 2) + shape)
    acc[:, :, 1] *= 2.0 ** -_LIMB_BITS
    return acc


def _recombine(s: np.ndarray, q: np.ndarray, shift: tuple) -> np.ndarray:
    """sum over a, b of s[a, :, b] * 2^(21(a+b)) mod q, in [0, q), for the
    exact integer sums s of :func:`_limb_sums` (|s| <= 2^53) and the
    (2^21 mod q, its quotient) columns ``shift``. Each sum is reduced into
    (0, 2q) as s - rint(s/q)*q + q, in int64; those of one shift add up,
    and Horner's rule in 2^21 mod q joins the shifts 2^0, 2^21, 2^42 and
    2^63 with three lazy products."""
    q_i = q.view(np.int64)
    est = np.rint(np.multiply(s, 1.0 / q.astype(np.float64)))
    y = s.astype(np.int64)
    y -= est.astype(np.int64) * q_i
    y += q_i
    y = y.view(np.uint64)
    # the sums at shift 2^21 and 2^42, each below 4q
    y[1, :, 0] += y[0, :, 1]
    y[2, :, 0] += y[1, :, 1]
    t, scratch = y[2, :, 1], _scratch(y.shape[1:2] + y.shape[3:])
    for g in (y[2, :, 0], y[1, :, 0], y[0, :, 0]):
        # t below 6q, then 4q after the last step
        t = _mul(t, *shift, q, *scratch)
        t += g
    return _reduce(_reduce(t, 2 * q), q)


def mul_sums(xs, keys, base: RingElement = None) -> RingElement:
    """sum_i xs[i] * keys[i] mod q_j: xs are one-part Evaluation elements
    at one level, each multiplying every part of keys[i], Evaluation
    elements of one parts shape (an evaluation key's pairs) on the same
    chain at that level or above, whose row prefix serves. The lazy
    products add up as in _lazy_sum, onto ``base`` if given: an
    Evaluation element of keys' parts shape on a chain that ends xs'
    chain at its level (Q_l behind the key ring's P), added to the rows
    it shares with them."""
    if not 0 < len(xs) <= MAX_SUM_TERMS or len(keys) != len(xs):
        raise ValueError(f"{len(xs)} terms against {len(keys)} keys")
    first, parts = xs[0], keys[0].parts_shape
    lv = first.level
    for x, key in zip(xs, keys):
        _require_compatible(first, x)
        if (
            key.params != first.params or key.level < lv or key.domain != x.domain
            or key.parts_shape != parts
        ):
            raise ValueError("key element below the level, off the chain or of other parts")
    if first.domain != Domain.EVALUATION or first.parts_shape:
        raise ValueError("mul_sums expects one-part Evaluation-domain xs")
    tb = _tables(first.params)
    q, q_inv = tb.q[: lv + 1], tb.q_inv[: lv + 1]
    ws = (key.residues[..., : lv + 1, :] for key in keys)
    terms = ((x.residues, w, w * q_inv) for x, w in zip(xs, ws))
    acc = np.zeros(parts + first.residues.shape, np.uint64)
    if base is not None:
        shared = base.level + 1
        if (
            base.domain != Domain.EVALUATION or base.parts_shape != parts
            or base.moduli != first.moduli[-shared:]
        ):
            raise ValueError("base element not of the keys' parts on the sums' last rows")
        acc[..., -shared:, :] = base.residues
    return first._like(_lazy_sum(acc, terms, q, first._q))


class Conversion:
    """Constants of a centred fast base conversion (Bajard et al., SAC
    2016) from src's primes ``rows`` (q_j, S of them, product D; a slice
    or increasing ints, kept as an int64 index array) to dst's primes
    [:level+1] (t, T of them), fixed once: ``lead``, how many rows open
    src's chain (0 for q_l, k for P and P*q_l); ``own``, the targets'
    rows of those source primes they hold, in source order (a ModUp
    digit's rows in P ∪ Q); inv = (D/q_j)^-1 mod q_j as an (S, 1)
    column; and w, an (S + 1, T, 1) block of D/q_j mod t for each source
    prime and, last, -D mod t (one array, as a parameter set holds some
    40 conversions and each array costs a header). A lower level reads
    the targets' row prefix.

    A divisor, whose source primes are none of its targets (a rescale's
    q_l, ModDown's P, a product's P*q_l), also holds ``d_inv``, D^-1 mod
    the targets as a (T, 1) column, which :func:`divide` reads; a ModUp
    digit's conversion has d_inv None, as D is 0 mod its own rows."""

    __slots__ = ("src", "rows", "dst", "level", "lead", "own", "inv", "w", "d_inv")

    def __init__(self, src: RingParams, rows, dst: RingParams, level: int):
        if isinstance(rows, slice):
            rows = range(src.level_count)[rows]
        index = [int(i) for i in rows]
        if not index or index != sorted(set(index) & set(range(src.level_count))):
            raise ValueError(f"conversion rows {index} are not increasing source rows")
        primes = [src.moduli[i] for i in index]
        targets = dst.moduli[: level + 1]
        self.src, self.rows, self.dst, self.level = src, np.array(index, np.int64), dst, level
        # index[i] == i holds for every i below the first gap
        self.lead = sum(i == j for j, i in enumerate(index))
        self.own = np.array([targets.index(q) for q in primes if q in targets], np.int64)
        d = math.prod(primes)
        self.inv = np.array([[pow(d // q % q, -1, q)] for q in primes], dtype=np.uint64)
        self.w = np.array([[[d // q % t] for t in targets] for q in primes]
                          + [[[-d % t] for t in targets]], np.uint64)
        self.d_inv = None if len(self.own) else np.array(
            [[pow(d, -1, t)] for t in targets], np.uint64
        )


def _convert(x: np.ndarray, conv: Conversion, t) -> np.ndarray:
    """The (..., S, N) Coefficient residues x of conv's source rows, read
    as one integer x mod D, converted to conv.dst's primes t, a slice of
    [:conv.level+1] or an index array into it: sum_j y_j*(D/q_j) mod t
    with y_j = x_j*(D/q_j)^-1 mod q_j centred into (-q_j/2, q_j/2], which
    is x + u*D for an integer |u| <= S/2 (Bajard et al., SAC 2016).

    Each y_j - q_j that centring takes adds -D, so the v of them add
    v*(-D mod t); with the S lazy products in [0, 2t) the sum stays below
    3S*2^42, and one remainder by t finishes it. With one source prime
    it is the exact centred lift of that row; mod a source prime, x's row.
    """
    q_src, q_col = _tables(conv.src).q[conv.rows], conv.src._q_col[conv.rows]
    inv_q = _quotient(conv.inv, q_col)
    y = _reduce(_mul(x, conv.inv, inv_q, q_src, *_scratch(x.shape)), q_src)
    v = np.sum(y > q_col // 2, axis=-2, dtype=np.uint64)
    q_dst, w, neg_d = conv.dst._q_col[t], conv.w[:-1, t], conv.w[-1, t]
    # y's row j, as (..., 1, N), times the (T, 1) column w[j]
    terms = zip(np.moveaxis(y, -2, 0)[..., None, :], w, _quotient(w, q_dst))
    return _lazy_sum(v[..., None, :] * neg_d, terms, _tables(conv.dst).q[t], q_dst)


def mod_up(a: RingElement, a_eval: RingElement, conv: Conversion, level: int) -> RingElement:
    """ModUp of a digit: ntt_forward of _convert of a one-part Coefficient
    a's rows conv.rows to conv.dst's primes [:level+1], level <=
    conv.level, given a_eval = ntt_forward(a). The source primes, targets
    at or below ``level``, take a_eval's rows at conv.own; only the other
    rows are converted and transformed, in one kernel call."""
    if (
        a.domain != Domain.COEFFICIENT or a.parts_shape or a_eval.domain != Domain.EVALUATION
        or a_eval.params != a.params or a_eval.level != a.level
    ):
        raise ValueError("mod_up expects a one-part Coefficient element and its Evaluation form")
    if (
        a.params != conv.src or conv.rows[-1] > a.level or level > conv.level
        or len(conv.own) < len(conv.rows) or conv.own.max() > level
    ):
        raise ValueError(f"conversion does not fit level {a.level} -> {level}")
    out = np.empty((level + 1, a.params.ring_degree), np.uint64)
    out[conv.own] = a_eval.residues[conv.rows]
    rest = np.delete(np.arange(level + 1), conv.own)
    if len(rest):
        y = _convert(a.residues[conv.rows], conv, rest)
        out[rest] = _ntt_forward_block(y[None], _tables(conv.dst), rest)[0]
    return RingElement(conv.dst, level, out, Domain.EVALUATION)


def divide(x: RingElement, conv: Conversion) -> RingElement:
    """x, an element with one parts axis (a pair), divided by D, the
    product of its rows conv.rows, with rounding, returned in the
    Evaluation domain: (x_keep - lift) * conv.d_inv for lift = conv's
    centred lift of x_drop, x mod D (Cheon et al., SAC 2018). The kept
    rows run in one block: the dropped ones are conv.lead rows that open x
    (ModDown's P), x's top rows (a rescale's q_l; the lift is exact) or
    both (a product's P*q_l). All parts go through one NTT kernel call
    each way: for an Evaluation x, INTT(x_drop) on x's tables' dropped
    rows and NTT(lift); for a Coefficient x, NTT of the quotient alone."""
    if conv.d_inv is None:
        raise ValueError("divide by a ModUp conversion, whose primes are among its targets")
    if len(x.parts_shape) != 1:
        raise ValueError("divide expects an element with one parts axis")
    drop, lead, top = len(conv.rows), conv.lead, x.level + 1
    level = top - drop - 1
    keep = slice(lead, lead + level + 1)
    if (
        x.params != conv.src or not 0 <= level <= conv.level
        or (lead < drop and (conv.rows[lead] != keep.stop or conv.rows[-1] != top - 1))
        or x.moduli[keep] != conv.dst.moduli[: level + 1]
    ):
        raise ValueError(f"division does not fit level {x.level}")
    evaluation = x.domain == Domain.EVALUATION
    y = x.residues[:, conv.rows]
    if evaluation:
        y = _ntt_inverse_block(y, _tables(conv.src), conv.rows)
    tb, rows = _tables(conv.dst), slice(0, level + 1)
    out = _convert(y, conv, rows)
    if evaluation:
        out = _ntt_forward_block(out, tb, 0)
    # x_keep + (q - lift) in (0, 2q), inside _mul's range, formed in place
    d_inv, q = conv.d_inv[rows], tb.q[rows]
    np.subtract(q, out, out=out)
    out += x.residues[:, keep]
    f, e = np.empty(out.shape), np.empty(out.shape, np.int64)
    _mul(out, d_inv, _quotient(d_inv, conv.dst._q_col[rows]), q, out, f, e)
    np.minimum(out, out - q, out=out)
    if not evaluation:
        out = _ntt_forward_block(out, tb, 0)
    return RingElement(conv.dst, level, out, Domain.EVALUATION)


def drop_level(a: RingElement, new_level: int) -> RingElement:
    """Remove residues above new_level; congruences below are untouched."""
    if new_level > a.level:
        raise ValueError(f"cannot raise level {a.level} to {new_level}")
    if new_level < 0:
        raise ValueError("level must be >= 0")
    if new_level == a.level:
        return a
    return RingElement(
        a.params, new_level, a.residues[..., : new_level + 1, :].copy(), a.domain
    )


# ---------------------------------------------------------------------------
# numpy's float FFT, folded for X^N + 1: the canonical embedding, and exact
# products by a ternary polynomial.
# ---------------------------------------------------------------------------

@functools.cache
def _fold_twist(n: int) -> np.ndarray:
    """(2, N/2) complex: zeta^j and zeta^-j for j < N/2, zeta = e^(i*pi/N)."""
    tw = np.exp(1j * np.pi / n * np.arange(n // 2))
    tw = np.stack((tw, tw.conj()))
    tw.flags.writeable = False
    return tw


def folded_fft(x: np.ndarray) -> np.ndarray:
    """Real polynomials x (N coefficients on the last axis) at the roots
    zeta^(1 - 4m), m < N/2, of X^N + 1, zeta = e^(i*pi/N): one of each
    conjugate pair, so they determine x. Output m is x(zeta^(1 - 4m)),
    the N/2-point FFT of (x_j + i*x_{j+N/2})*zeta^j, as r^(N/2) = i at
    each of these roots r."""
    n = x.shape[-1]
    h = n // 2
    z = np.empty(x.shape[:-1] + (h,), np.complex128)
    z.real, z.imag = x[..., :h], x[..., h:]
    z *= _fold_twist(n)[0]
    return np.fft.fft(z)


def folded_ifft(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`folded_fft`: the N real coefficients of the
    polynomial with values z[..., m] at zeta^(1 - 4m) and their
    conjugates at the conjugate roots; the real and imaginary parts of
    IFFT(z)*zeta^-j are coefficients j and j + N/2. Consumes z: the IFFT
    runs in its buffer (numpy 2's out=), which the caller may reuse."""
    h = z.shape[-1]
    w = np.fft.ifft(z, out=z)
    w *= _fold_twist(2 * h)[1]
    x = np.empty(w.shape[:-1] + (2 * h,))
    x[..., :h], x[..., h:] = w.real, w.imag
    return x


def fft_spectra(a: RingElement) -> np.ndarray:
    """The spectra fft_mul needs for a: its coefficients centred into
    (-q_j/2, q_j/2], split into two signed 21-bit limbs lo + 2^21*hi and
    folded_fft'd, a (2,) + a.residues.shape[:-1] + (N/2,) complex block.
    An Evaluation a goes through ntt_inverse first."""
    if a.domain == Domain.EVALUATION:
        a = ntt_inverse(a)
    # x - q where x > q/2, formed in wrapping uint64 and read as int64
    q, x = _tables(a.params).q[: a.level + 1], a.residues
    x = (x - q * (x > q >> np.uint64(1))).view(np.int64)
    spectra = folded_fft(np.stack(_limbs(x)))
    spectra.flags.writeable = False
    return spectra


def fft_mul(a: RingElement, spectra: np.ndarray, u: np.ndarray, plus: np.ndarray) -> RingElement:
    """a*u + plus exactly, as a Coefficient element, for N int coefficients
    u in {-1, 0, 1}, spectra = fft_spectra(a) and an int64 plus that
    broadcasts to a's (parts, rows, N) block: per limb one product
    of folded spectra, one batched folded_ifft, then the rounded limb
    products recombined as lo + 2^21*hi, plus added, and one reduction.

    A limb product's coefficients are integers of magnitude at most
    weight(u)*2^20 <= 2^35 at N = 32768. The FFT's round-off on a
    convolution of x and y is below |x|*|y|*3k*(2 + sqrt(5))*2^-53 for
    2^k points (Percival, Math. Comp. 72, 2003, Thm. 5.1): with |x| <=
    2^20*sqrt(N) and |u| = sqrt(weight), about 2^-11 at N = 32768 and
    weight 2N/3. A result more than 1/4 from an integer raises
    FloatingPointError rather than round wrongly. With centred |a| <
    2^41 and plus below 2^42 (a residue and a small error e), the sum is
    |x| <= weight(u)*2^41 + 2^42 + |e|, below 2^56 at N = 32768 and
    weight 2N/3, where the quotient estimate rint(x*(1/q_j)) is within
    one of x/q_j.
    """
    n, shape = a.params.ring_degree, a.residues.shape
    u = np.asarray(u)
    if spectra.shape != (2,) + shape[:-1] + (n // 2,):
        raise ValueError(f"spectra of shape {spectra.shape} do not fit {shape}")
    if u.shape != (n,) or np.any(np.abs(u) > 1):
        raise ValueError(f"expected {n} coefficients in {{-1, 0, 1}}")
    if getattr(plus, "dtype", None) != np.int64 or np.broadcast_shapes(plus.shape, shape) != shape:
        raise ValueError(f"plus must be an int64 array that broadcasts to {shape}")
    z = spectra * folded_fft(u)
    f = folded_ifft(z)
    rounded = np.rint(f, out=z.view(np.float64))
    f -= rounded
    if not np.max(np.abs(f, out=f)) <= 0.25:
        raise FloatingPointError("FFT product too far from an integer to round")
    # f's buffer takes the limb products as int64, rounded's the reduction
    x = f.view(np.int64)
    np.copyto(x, rounded, casting="unsafe")
    x[1] <<= _LIMB_BITS
    x = np.add(x[0], x[1], out=x[0])
    x += plus
    # est = rint(x*(1/q)) is within one of x/q, so r = x - est*q, formed
    # in wrapping uint64, lies in (-q, q), and min(r, r + q) is r mod q
    tb, rows = _tables(a.params), slice(0, a.level + 1)
    q, t, est = tb.q[rows], rounded[0], rounded[1].view(np.int64)
    np.copyto(est, np.rint(np.multiply(x, tb.q_inv[rows], out=t), out=t), casting="unsafe")
    est, r = est.view(np.uint64), x.view(np.uint64)
    r -= np.multiply(est, q, out=est)
    return a._like(np.minimum(r, np.add(r, q, out=est)), Domain.COEFFICIENT)


# ---------------------------------------------------------------------------
# Samplers. The secret and error samplers take an explicit numpy
# Generator, the uniform one a seed; fixed seed => fixed output.
# ---------------------------------------------------------------------------

SEED_BYTES = 32


def sample_uniform(params: RingParams, level: int, seed: bytes, out=None) -> RingElement:
    """The uniform element of R_q that a 32-byte seed fixes, in the
    Evaluation domain (uniform in either): row by row, N words of the
    PCG64 stream seeded with the seed read as a little-endian integer,
    each word at or above floor(2^64/q_j)*q_j rejected and replaced by
    the stream's next, then reduced mod q_j. Only numpy's bit-generator
    stream is used, which numpy keeps stable across releases (NEP 19);
    the seed is public, so the element needs no secrecy, only
    uniformity and independence from the secret. With ``out``, a
    (level+1, N) uint64 block such as a key pair's row, the residues
    are written there.
    """
    if not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise ValueError(f"a uniform element's seed is {SEED_BYTES} bytes, not {seed!r:.40}")
    bits = np.random.PCG64(int.from_bytes(seed, "little"))
    n = params.ring_degree
    res = np.empty((level + 1, n), np.uint64) if out is None else out
    for row, q in zip(res, params.moduli[: level + 1]):
        limit, q = np.uint64((1 << 64) // q * q), np.uint64(q)
        words = bits.random_raw(n)
        while (kept := words[words < limit]).size < n:
            words = np.concatenate((kept, bits.random_raw(n - kept.size)))
        # a scalar divisor takes numpy's fast floor_divide
        np.subtract(kept, np.floor_divide(kept, q, out=row) * q, out=row)
    return RingElement(params, level, res, Domain.EVALUATION)


def ternary_coeffs(n: int, hamming_weight: int, rng: np.random.Generator) -> np.ndarray:
    """N int64 coefficients, exactly hamming_weight of them nonzero, each
    ±1."""
    if not 0 < hamming_weight <= n:
        raise ValueError(f"hamming weight {hamming_weight} outside (0, {n}]")
    coeffs = np.zeros(n, dtype=np.int64)
    pos = rng.choice(n, hamming_weight, replace=False)
    coeffs[pos] = rng.integers(0, 2, hamming_weight) * 2 - 1
    return coeffs


def gaussian_coeffs(n: int, std: float, rng: np.random.Generator, tail_bound=None) -> np.ndarray:
    """N int64 coefficients rounded from N(0, std^2).

    With tail_bound set, coefficients beyond tail_bound*std are resampled
    (used by key generation to make error-size invariants structural).
    """
    if std <= 0:
        raise ValueError("std must be positive")
    g = rng.normal(0.0, std, n)
    while tail_bound is not None and np.any(bad := np.abs(np.rint(g)) >= tail_bound * std):
        g[bad] = rng.normal(0.0, std, int(bad.sum()))
    return np.rint(g).astype(np.int64)


# ---------------------------------------------------------------------------
# CRT composition (off the hot path; object arrays hold Python bigints).
# ---------------------------------------------------------------------------

def compose(a: RingElement):
    """CRT-combine residues to integers in [0, Q); returns (values, Q)."""
    if a.domain != Domain.COEFFICIENT:
        raise ValueError("compose expects Coefficient domain")
    big_q = a.params.modulus_product(a.level)
    m = np.array([big_q // q for q in a.moduli], dtype=object)
    inv = np.array([[pow(big_q // q % q, -1, q)] for q in a.moduli], np.uint64)
    t = scalar_mul(a, inv).residues
    return np.dot(m, t.astype(object)) % big_q, big_q


def compose_signed(a: RingElement):
    """CRT-combine to centered representatives in (-Q/2, Q/2]."""
    vals, big_q = compose(a)
    half = big_q // 2
    return np.where(vals > half, vals - big_q, vals), big_q
