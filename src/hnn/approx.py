"""Encrypted evaluation of the soft-argmax head.

The nonlinear pieces a ciphertext cannot do directly are built from
scheme primitives:

* exp on [-r, r]: Chebyshev-fitted polynomial, evaluated over a
  power-basis tree (y, y^2, y^4, ...) so multiplicative depth stays at
  ceil(log2 d), with plaintext constants encoded at compensating scales
  so every internal addition sees bit-matching scales.
* 1/x on [a, b]: Newton iteration z <- z(2 - x z) from the plaintext
  constant z0 = 1/b; relative error (1 - a/b)^(2^k) plus scheme noise.
  The first iteration is affine in x and folded into one level.
* softmax: subtract the slot mean of the logits (exact linear op that
  softmax is invariant to), divide by the temperature, exponentiate,
  sum, take the encrypted reciprocal, and multiply per class. Mean
  subtraction pins the exp-sum into [n(1-eps), n cosh(r) + n eps], which
  is what lets a handful of Newton steps converge.
* soft-argmax: per-class product with the exact index constant i at a
  small auxiliary scale; the weighted sum needs no further level.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial import chebyshev, polynomial

from . import encoding, scheme
from .errors import DomainViolation, LevelExhausted
from .scheme import Ciphertext, RelinKey, SecretKey

MAX_RADIUS = 8.0
DEFAULT_SUP_TOL = 1e-3
INDEX_SCALE = 2.0 ** 20  # exact scale for integer index constants
_PROBE_SLACK = 1e-6


@dataclasses.dataclass(frozen=True)
class PolyApprox:
    """Power-basis polynomial with a measured sup error on [-radius, radius]."""

    coefficients: tuple
    radius: float
    sup_error: float
    max_abs: float  # max |p| over the domain, for value-bound propagation

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, y):
        return polynomial.polyval(np.asarray(y), np.asarray(self.coefficients))


def measure_sup_error(approx_coeffs, fn, radius, grid_points=20001) -> float:
    grid = np.linspace(-radius, radius, grid_points)
    return float(
        np.max(np.abs(polynomial.polyval(grid, np.asarray(approx_coeffs)) - fn(grid)))
    )


@functools.lru_cache(maxsize=64)
def build_exp_approx(
    radius: float, degree: int, tol: float = DEFAULT_SUP_TOL, grid_points: int = 20001
) -> PolyApprox:
    """Chebyshev interpolant of exp on [-radius, radius].

    Rejects fits whose measured sup error exceeds tol (raise the degree
    or shrink the radius); pass tol=None to build diagnostic fits.
    """
    if not 0 < radius <= MAX_RADIUS:
        raise ValueError(f"radius {radius} outside (0, {MAX_RADIUS}]")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if grid_points < 10 ** 4:
        raise ValueError("sup error needs a dense grid (>= 1e4 points)")
    ch = chebyshev.Chebyshev.interpolate(np.exp, degree, domain=[-radius, radius])
    coeffs = tuple(float(c) for c in ch.convert(kind=polynomial.Polynomial).coef)
    sup = measure_sup_error(coeffs, np.exp, radius, grid_points)
    if tol is not None and sup > tol:
        raise ValueError(
            f"exp fit degree {degree} on [-{radius}, {radius}] has sup error "
            f"{sup:.2e} > {tol:.0e}; raise the degree"
        )
    grid = np.linspace(-radius, radius, grid_points)
    max_abs = float(np.max(np.abs(polynomial.polyval(grid, np.asarray(coeffs)))))
    return PolyApprox(coeffs, float(radius), sup, max_abs)


def poly_eval_depth(degree: int) -> int:
    """Levels consumed by eval_poly_encrypted for a given degree."""
    if degree <= 1:
        return 1
    split = 1 << (int(math.ceil(math.log2(degree + 1))) - 1)
    return max(
        poly_eval_depth(split - 1),
        poly_eval_depth(degree - split) + 1,
        int(math.log2(split)) + 1,
    )


# ---------------------------------------------------------------------------
# Constant helpers with exact scale targeting
# ---------------------------------------------------------------------------

def _const_pt(ct: Ciphertext, value: float, scale: float) -> encoding.Plaintext:
    return encoding.encode_constant(value, scale, ct.scheme.ring, ct.level)


def add_const(ct: Ciphertext, value: float) -> Ciphertext:
    return scheme.add_plain(ct, _const_pt(ct, value, ct.scale))


def tree_sum(cts) -> Ciphertext:
    """Balanced pairwise sum.

    A left fold charges the ledger max+1 per addition (+k bits for k
    terms); the tree charges +ceil(log2 k), which matches the true
    worst-case growth of a k-term sum.
    """
    cts = list(cts)
    if not cts:
        raise ValueError("empty sum")
    while len(cts) > 1:
        nxt = [
            scheme.add(cts[i], cts[i + 1]) if i + 1 < len(cts) else cts[i]
            for i in range(0, len(cts), 2)
        ]
        cts = nxt
    return cts[0]


def mul_const(
    ct: Ciphertext, value: float, target_scale: float = None
) -> Ciphertext:
    """Multiply by a scalar and rescale once.

    The constant is encoded at q_level (or at target_scale*q/scale), so
    the rescaled result lands exactly on the incoming scale (or on
    target_scale), keeping later additions scale-compatible.
    """
    if ct.level < 1:
        raise LevelExhausted("constant multiplication needs a rescale level")
    q = ct.scheme.ring.moduli[ct.level]
    pt_scale = float(q) if target_scale is None else target_scale * q / ct.scale
    prod = scheme.mult_plain(ct, _const_pt(ct, value, pt_scale))
    return scheme.rescale(prod)


def mul_const_raw(ct: Ciphertext, value: float, pt_scale: float) -> Ciphertext:
    """Multiply by a scalar at an explicit plaintext scale, no rescale."""
    return scheme.mult_plain(ct, _const_pt(ct, value, pt_scale))


# ---------------------------------------------------------------------------
# Encrypted polynomial evaluation
# ---------------------------------------------------------------------------

def eval_poly_encrypted(
    ct: Ciphertext, approx: PolyApprox, evk: RelinKey
) -> Ciphertext:
    """p(x) on the slots, power-basis tree, depth poly_eval_depth(d).

    Caller contract: slot values lie within [-radius, radius]. The
    result's value bound is max|p| + sup_error.
    """
    degree = approx.degree
    depth = poly_eval_depth(degree)
    if ct.level < depth + 1:
        raise LevelExhausted(
            f"degree {degree} needs {depth + 1} levels, have {ct.level}"
        )
    params = ct.scheme
    base = scheme.with_value_bound(ct, min(ct.value_bound, approx.radius * (1 + 1e-9)))
    powers = [base]
    for _ in range(1, int(math.ceil(math.log2(degree + 1)))):
        prev = powers[-1]
        powers.append(scheme.rescale(scheme.mult(prev, prev, evk)))

    def node(coeffs, level, scale):
        deg = len(coeffs) - 1
        if deg <= 1:
            y = scheme.ct_drop_level(base, level + 1)
            q = params.ring.moduli[level + 1]
            c1 = coeffs[1] if deg == 1 else 0.0
            r = scheme.rescale(mul_const_raw(y, c1, scale * q / y.scale))
            return add_const(r, coeffs[0])
        split = 1 << (int(math.ceil(math.log2(deg + 1))) - 1)
        ym = scheme.ct_drop_level(powers[int(math.log2(split))], level + 1)
        q = params.ring.moduli[level + 1]
        hi = node(coeffs[split:], level + 1, scale * q / ym.scale)
        prod = scheme.rescale(scheme.mult(ym, hi, evk))
        lo = node(coeffs[:split], level, scale)
        return scheme.add(prod, lo)

    out = node(list(approx.coefficients), ct.level - depth, ct.scale)
    return scheme.with_value_bound(out, approx.max_abs + approx.sup_error)


# ---------------------------------------------------------------------------
# Encrypted reciprocal
# ---------------------------------------------------------------------------

def newton_reciprocal_plain(x, upper_bound: float, iterations: int):
    """Plaintext oracle for the encrypted iteration below."""
    z = np.full_like(np.asarray(x, dtype=np.float64), 1.0 / upper_bound)
    for _ in range(iterations):
        z = z * (2.0 - x * z)
    return z


def encrypted_reciprocal(
    ct: Ciphertext,
    lower_bound: float,
    upper_bound: float,
    iterations: int,
    evk: RelinKey,
) -> Ciphertext:
    """Newton reciprocal for slots inside [lower_bound, upper_bound].

    z0 = 1/upper_bound (plaintext constant); k iterations of
    z <- z(2 - x z) give relative error (1 - lower/upper)^(2^k) plus
    scheme noise. Consumes 2k - 1 levels (the first iteration is affine
    in x and costs one).
    """
    if not 0 < lower_bound < upper_bound:
        raise ValueError("need 0 < lower_bound < upper_bound")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if ct.level < 2 * iterations - 1:
        raise LevelExhausted(
            f"{iterations} iterations need {2 * iterations - 1} levels, "
            f"have {ct.level}"
        )
    x = scheme.with_value_bound(ct, min(ct.value_bound, upper_bound))
    z0 = 1.0 / upper_bound
    z_cap = 1.0 / lower_bound  # Newton from below never overshoots 1/x
    z = add_const(mul_const(x, -z0 * z0), 2.0 * z0)
    z = scheme.with_value_bound(z, min(z.value_bound, z_cap))
    for _ in range(iterations - 1):
        w = scheme.rescale(scheme.mult(scheme.ct_drop_level(x, z.level), z, evk))
        w = scheme.with_value_bound(w, min(w.value_bound, 1.0 + _PROBE_SLACK))
        v = add_const(scheme.negate(w), 2.0)
        z = scheme.rescale(scheme.mult(scheme.ct_drop_level(z, v.level), v, evk))
        z = scheme.with_value_bound(z, min(z.value_bound, z_cap))
    return z


# ---------------------------------------------------------------------------
# Softmax / soft-argmax
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SoftmaxConfig:
    """Head configuration.

    temperature: positive scalar dividing the logits.
    class_count: number of logit ciphertexts.
    radius: domain half-width the mean-centered, tempered logits must
    stay inside; the exp fit lives on [-radius, radius].
    exp_degree / inv_iterations: approximation knobs; the defaults pass
    a 1e-3 end-to-end softmax error budget.
    """

    temperature: float = 1.0
    class_count: int = 2
    radius: float = 2.0
    exp_degree: int = 7
    inv_iterations: int = 5
    sup_tol: float = DEFAULT_SUP_TOL

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.exp_degree < 1 or self.inv_iterations < 1:
            raise ValueError("approximation degrees must be positive")

    def exp_approx(self) -> PolyApprox:
        return build_exp_approx(self.radius, self.exp_degree, self.sup_tol)

    def sum_interval(self):
        """Enclosure of sum_i p(y_i) given mean-centered in-domain logits.

        Jensen gives sum exp(y) >= n when the y_i average to zero; the
        max, with |y_i| <= r and zero mean, is n cosh(r). Both get the
        fit's sup error as slack.
        """
        eps = self.exp_approx().sup_error
        lo = self.class_count * (1.0 - eps)
        hi = self.class_count * (math.cosh(self.radius) + eps)
        return lo, hi

    def sigma_cap(self) -> float:
        """Largest single softmax output for in-domain logits."""
        n, r = self.class_count, self.radius
        return 1.0 / (1.0 + (n - 1) * math.exp(-2.0 * r)) + 2.0 * self.sup_tol


def softmax_depth(cfg: SoftmaxConfig) -> int:
    """Levels consumed from logits to sigma ciphertexts."""
    return 1 + poly_eval_depth(cfg.exp_degree) + (2 * cfg.inv_iterations - 1) + 1


def soft_argmax_min_levels(cfg: SoftmaxConfig) -> int:
    """Logit levels needed for the full head: softmax plus one spare so
    the index-weighted output sits above the base prime."""
    return softmax_depth(cfg) + 1


def _probe_domain(probe_key, ct, radius, what):
    if probe_key is None:
        return
    slots = scheme.decrypt_to_slots(probe_key, ct)
    worst = float(np.max(np.abs(slots)))
    if worst > radius * (1.0 + 1e-6) + 1e-9:
        raise DomainViolation(
            f"{what} reaches {worst:.4f}, outside +-{radius}"
        )


def encrypted_softmax(
    logit_cts,
    cfg: SoftmaxConfig,
    evk: RelinKey,
    probe_key: SecretKey = None,
) -> list:
    """Slotwise softmax over one ciphertext per class.

    Pipeline: mean-subtract and divide by temperature (one fused level),
    exp fit, slot sum, Newton reciprocal on the pinned interval, and a
    per-class product. probe_key (tests only) decrypt-checks the domain
    contract after the linear stage.
    """
    if len(logit_cts) != cfg.class_count:
        raise ValueError(
            f"{len(logit_cts)} logit ciphertexts for {cfg.class_count} classes"
        )
    need = softmax_depth(cfg)
    if logit_cts[0].level < need:
        raise LevelExhausted(
            f"softmax needs {need} levels, logits have {logit_cts[0].level}"
        )
    approx = cfg.exp_approx()
    n = cfg.class_count
    inv_t = 1.0 / cfg.temperature

    total = tree_sum(logit_cts)

    q_top = logit_cts[0].scheme.ring.moduli[logit_cts[0].level]
    ys = []
    for ct in logit_cts:
        own = mul_const_raw(ct, inv_t, float(q_top))
        mean = mul_const_raw(total, -inv_t / n, float(q_top))
        y = scheme.rescale(scheme.add(own, mean))
        y = scheme.with_value_bound(y, min(y.value_bound, cfg.radius))
        _probe_domain(probe_key, y, cfg.radius, "tempered centered logit")
        ys.append(y)

    exps = [eval_poly_encrypted(y, approx, evk) for y in ys]
    lo, hi = cfg.sum_interval()
    total_exp = scheme.with_value_bound(tree_sum(exps), hi)
    inv = encrypted_reciprocal(total_exp, lo, hi, cfg.inv_iterations, evk)

    cap = cfg.sigma_cap()
    sigmas = []
    for e in exps:
        sig = scheme.rescale(scheme.mult(scheme.ct_drop_level(e, inv.level), inv, evk))
        sigmas.append(scheme.with_value_bound(sig, min(sig.value_bound, cap)))
    return sigmas


def encrypted_soft_argmax(
    logit_cts,
    cfg: SoftmaxConfig,
    evk: RelinKey,
    probe_key: SecretKey = None,
) -> Ciphertext:
    """Weighted index sum  sum_i sigma_i * i  with indices 1..n.

    Slots land in [1, n]; rounding the decoded value and subtracting one
    recovers a 0-based class label.
    """
    if logit_cts[0].level < soft_argmax_min_levels(cfg):
        raise LevelExhausted(
            f"soft-argmax needs {soft_argmax_min_levels(cfg)} levels, "
            f"logits have {logit_cts[0].level}"
        )
    sigmas = encrypted_softmax(logit_cts, cfg, evk, probe_key)
    out = tree_sum(
        mul_const_raw(sig, float(i + 1), INDEX_SCALE) for i, sig in enumerate(sigmas)
    )
    bound = 1.0 + (cfg.class_count - 1) * cfg.sigma_cap()
    return scheme.with_value_bound(out, min(out.value_bound, bound))
