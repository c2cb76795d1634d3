"""Canonical-embedding encoder: real slot vectors <-> scaled plaintexts.

A length-(N/2) real vector is placed on the roots zeta^(5^k mod 2N) of
X^N + 1 (zeta = e^(i*pi/N); a real polynomial takes the conjugate values
at their conjugates), pulled back through the embedding, scaled by a
fixed factor, and rounded (half-to-even) to integer coefficients.
Because the embedding is a ring homomorphism, polynomial add/mul act
slotwise on the decoded values. The transform is ring's folded N/2-point
FFT, which encryption's exact product runs on; tests check it against
the N-point twisted FFT and an O(N^2) high-precision oracle.

A scalar constant gets no polynomial: encode_constant rounds it to an
integer, which ``scheme`` applies as one residue per prime. The slot
positions are derived once per ring degree, in numpy (functools.cache).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import ring

# Scales below 2^10 leave fewer than ~10 bits between rounding error and
# signal; refuse rather than silently produce garbage.
MIN_SCALE = 2.0 ** 10

# Scaled coefficients stay below this, so they round exactly into int64.
# A coefficient of the inverse embedding is at most the largest |slot|,
# so slots below MAX_COEFF / scale always encode.
MAX_COEFF = 2.0 ** 62


@functools.cache
def slot_positions(ring_degree: int) -> np.ndarray:
    """Index of each slot among ring.folded_fft's N/2 outputs.

    Slot k lives at the root zeta^(5^k mod 2N), zeta = e^(i*pi/N), and
    output m of the folded transform at zeta^(1 - 4m); as 5^k ≡ 1
    (mod 4), slot k is output ((1 - 5^k)/4) mod N/2. The slots fill the
    outputs, each once; 5^k mod 2N for k in [m, 2m) is 5^(k-m)*5^m.
    """
    h, two_n = ring_degree // 2, 2 * ring_degree
    powers, step = np.ones(1, np.int64), 5
    while len(powers) < h:
        powers = np.concatenate((powers, powers * step % two_n))
        step = step * step % two_n
    pos = (1 - powers) // 4 % h
    pos.flags.writeable = False
    return pos


@dataclasses.dataclass(frozen=True)
class Plaintext:
    """Encoded Coefficient-domain ring element plus its scale.

    round_error: measured max slot-domain error introduced by coefficient
    rounding at encode time (absolute, in units of scale), kept so the
    noise ledger can charge honest per-plaintext rounding noise.
    value_bound: upper bound on |slot values| carried for overflow guards.
    """

    poly: ring.RingElement
    scale: float
    round_error: float = 0.0
    value_bound: float = 0.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def level(self) -> int:
        return self.poly.level


def embed_to_coeffs(values: np.ndarray, ring_degree: int) -> np.ndarray:
    """Pull a full slot vector back through the embedding (float result)."""
    z = np.zeros(ring_degree // 2, dtype=np.complex128)
    z[slot_positions(ring_degree)] = values
    return ring.folded_ifft(z)


def coeffs_to_slots(coeffs: np.ndarray, ring_degree: int) -> np.ndarray:
    """Evaluate float coefficients at the slot roots (complex result)."""
    return ring.folded_fft(coeffs)[slot_positions(ring_degree)]


def encode(
    values,
    scale: float,
    params: ring.RingParams,
    level: int = None,
) -> Plaintext:
    """Round scale * embedding^-1(values) into an RNS plaintext.

    values: real vector of length <= N/2 (zero-padded to N/2).
    Rounding is half-to-even on the scaled embedding output.
    """
    n = params.ring_degree
    if level is None:
        level = params.max_level
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if values.ndim != 1 or len(values) > n // 2:
        raise ValueError(
            f"slot vector length {values.shape} exceeds capacity {n // 2}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("slot values must be finite")
    if scale < MIN_SCALE:
        raise ValueError(f"scale {scale} below precision floor {MIN_SCALE}")

    full = np.zeros(n // 2)
    full[: len(values)] = values
    # |coefficient| <= max|slot|; by division, so huge slots cannot overflow
    if np.max(np.abs(full)) >= MAX_COEFF / scale:
        raise ValueError("scaled coefficients exceed exact integer range")
    coeffs = embed_to_coeffs(full, n) * scale
    ints = np.rint(coeffs).astype(np.int64)
    # honest rounding cost, measured in the slot domain
    residual = coeffs_to_slots(coeffs - ints, n)
    round_error = float(np.max(np.abs(residual)))
    poly = ring.from_int_coeffs(ints, params, level)
    bound = float(np.max(np.abs(full))) + round_error / scale
    return Plaintext(poly, float(scale), round_error, bound)


def decode(pt: Plaintext) -> np.ndarray:
    """Slot values of a plaintext: embedding(poly) / scale, length N/2."""
    signed, _ = ring.compose_signed(pt.poly)
    coeffs = signed.astype(np.float64)
    slots = coeffs_to_slots(coeffs, pt.poly.params.ring_degree)
    return np.real(slots) / pt.scale


def encode_constant(value: float, scale: float):
    """(c0, round_error): the constant round(value*scale), half to even,
    and its rounding error in units of scale. c0 is exact when value*scale
    is integral, which the evaluator exploits for index constants.

    A constant needs no polynomial: its NTT is c0 mod q_j at every root,
    so ``scheme`` multiplies and adds it as one residue per prime.
    """
    if not np.isfinite(value):
        raise ValueError("constant must be finite")
    if scale < MIN_SCALE:
        raise ValueError(f"scale {scale} below precision floor {MIN_SCALE}")
    # Python floats: an overflow is inf, with no numpy warning
    scaled = float(value) * float(scale)
    if abs(scaled) >= MAX_COEFF:
        raise ValueError("scaled constant exceeds exact integer range")
    c0 = int(np.rint(scaled))
    return c0, abs(scaled - c0)
