"""Encrypted evaluation of the soft-argmax head.

The nonlinear pieces a ciphertext cannot do directly are built from
scheme primitives:

* exp on [-r, r]: Chebyshev-fitted polynomial, evaluated over a
  power-basis tree (y, y^2, y^4, ...) so multiplicative depth stays at
  ceil(log2 d), with its coefficients multiplied in as scalars
  (scheme.mult_const, scheme.add_const) at compensating scales so every
  internal addition sees bit-matching scales.
* 1/x on [a, b]: k Newton steps z <- z(2 - x z) from z0 = 1/b, in
  their product form z_k = z0 * prod_{i<k} (1 + e^(2^i)) with
  e = 1 - z0 x (Goldschmidt division): e squares itself while z takes
  one factor per step, so k steps cost k + 1 levels, not 2k - 1. The
  relative error is e^(2^k) <= (1 - a/b)^(2^k) plus scheme noise.
* softmax: exponentiate, sum, take the encrypted reciprocal, and
  multiply per class. The caller folds mean-centering and temperature
  into the plaintext probe; zero-mean inputs pin the exp-sum into
  [n(1-eps), n cosh(r) + n eps], which lets a few Newton steps converge.
* soft-argmax: (sum_i i*e_i) * reciprocal, one ciphertext product; the
  index sum is one scheme.weighted_sums pass, whose exact index constants
  i sit at a small auxiliary scale, costing no level.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial import chebyshev, polynomial

from . import scheme
from .errors import DomainViolation, LevelExhausted
from .scheme import Ciphertext, RelinKey, SecretKey

MAX_RADIUS = 8.0
DEFAULT_SUP_TOL = 1e-3
SUP_GRID_POINTS = 20001  # dense enough to measure a fit's sup error
INDEX_SCALE = 2.0 ** 20  # exact scale for integer index constants


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


def measure_sup_error(approx_coeffs, fn, radius, grid_points=SUP_GRID_POINTS) -> float:
    grid = np.linspace(-radius, radius, grid_points)
    return float(
        np.max(np.abs(polynomial.polyval(grid, np.asarray(approx_coeffs)) - fn(grid)))
    )


@functools.lru_cache(maxsize=64)
def build_exp_approx(
    radius: float, degree: int, tol: float = DEFAULT_SUP_TOL
) -> PolyApprox:
    """Chebyshev interpolant of exp on [-radius, radius].

    Rejects fits whose measured sup error exceeds tol (raise the degree
    or shrink the radius); pass tol=None to build diagnostic fits.
    """
    if not 0 < radius <= MAX_RADIUS:
        raise ValueError(f"radius {radius} outside (0, {MAX_RADIUS}]")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    ch = chebyshev.Chebyshev.interpolate(np.exp, degree, domain=[-radius, radius])
    coeffs = tuple(float(c) for c in ch.convert(kind=polynomial.Polynomial).coef)
    sup = measure_sup_error(coeffs, np.exp, radius)
    if tol is not None and sup > tol:
        raise ValueError(
            f"exp fit degree {degree} on [-{radius}, {radius}] has sup error "
            f"{sup:.2e} > {tol:.0e}; raise the degree"
        )
    grid = np.linspace(-radius, radius, SUP_GRID_POINTS)
    max_abs = float(np.max(np.abs(polynomial.polyval(grid, np.asarray(coeffs)))))
    return PolyApprox(coeffs, float(radius), sup, max_abs)


def poly_eval_depth(degree: int) -> int:
    """Levels consumed by eval_poly_encrypted for a given degree."""
    return max(1, math.ceil(math.log2(degree + 1)))


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
    base = scheme.with_value_bound(ct, min(ct.value_bound, approx.radius * (1 + 1e-9)))
    powers = [base]
    for _ in range(1, depth):
        prev = powers[-1]
        powers.append(scheme.rescale(scheme.mult(prev, prev, evk)))
    out = _poly_node(
        list(approx.coefficients), ct.level - depth, ct.scale, powers, evk
    )
    return scheme.with_value_bound(out, approx.max_abs + approx.sup_error)


def _poly_node(coeffs, level, scale, powers, evk) -> Ciphertext:
    """sum_k coeffs[k] y^k at ``level`` and ``scale``, from the power tree
    powers[i] = y^(2^i): the high half times the largest power below the
    degree, plus the low half. A module function, not a closure, so one
    evaluation leaves no reference cycle pinning the powers and the evk.
    """
    params = powers[0].scheme
    q = params.ring.moduli[level + 1]
    deg = len(coeffs) - 1
    if deg <= 1:
        y = scheme.ct_drop_level(powers[0], level + 1)
        c1 = coeffs[1] if deg == 1 else 0.0
        r = scheme.rescale(scheme.mult_const(y, c1, scale * q / y.scale))
        return scheme.add_const(r, coeffs[0])
    split = 1 << (int(math.ceil(math.log2(deg + 1))) - 1)
    ym = scheme.ct_drop_level(powers[int(math.log2(split))], level + 1)
    hi = _poly_node(coeffs[split:], level + 1, scale * q / ym.scale, powers, evk)
    prod = scheme.rescale(scheme.mult(ym, hi, evk))
    lo = _poly_node(coeffs[:split], level, scale, powers, evk)
    return scheme.add(prod, lo)


# ---------------------------------------------------------------------------
# Encrypted reciprocal
# ---------------------------------------------------------------------------

def newton_reciprocal_plain(x, upper_bound: float, iterations: int):
    """Plaintext oracle for the encrypted iteration below."""
    z = np.full_like(np.asarray(x, dtype=np.float64), 1.0 / upper_bound)
    for _ in range(iterations):
        z = z * (2.0 - x * z)
    return z


def reciprocal_depth(iterations: int) -> int:
    """Levels encrypted_reciprocal consumes for a given iteration count."""
    return iterations + 1 if iterations > 1 else 1


def encrypted_reciprocal(
    ct: Ciphertext,
    lower_bound: float,
    upper_bound: float,
    iterations: int,
    evk: RelinKey,
) -> Ciphertext:
    """Newton reciprocal for slots inside [lower_bound, upper_bound].

    Evaluates the k-step Newton iterate z_k of newton_reciprocal_plain
    in product form: z_1 = 2 z0 - z0^2 x and e = 1 - z0 x, one level
    each side by side from x, then k - 1 times e <- e^2 and
    z <- z (1 + e). Since 1 - x z_k = e^(2^k), the relative error is
    (1 - lower/upper)^(2^k) plus scheme noise. Consumes
    reciprocal_depth(k) levels: k + 1, or one for k = 1.
    """
    if not 0 < lower_bound < upper_bound:
        raise ValueError("need 0 < lower_bound < upper_bound")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    depth = reciprocal_depth(iterations)
    if ct.level < depth:
        raise LevelExhausted(
            f"{iterations} iterations need {depth} levels, have {ct.level}"
        )
    x = scheme.with_value_bound(ct, min(ct.value_bound, upper_bound))
    z0 = 1.0 / upper_bound
    z_cap = 1.0 / lower_bound  # Newton from below never overshoots 1/x
    e_cap = 1.0 - lower_bound / upper_bound
    # constants encoded at q_top, so each rescaled product keeps x's scale
    q_top = float(x.scheme.ring.moduli[x.level])
    z = scheme.rescale(scheme.mult_const(x, -z0 * z0, q_top))
    z = scheme.add_const(z, 2.0 * z0)
    z = scheme.with_value_bound(z, min(z.value_bound, z_cap))
    e = scheme.add_const(scheme.rescale(scheme.mult_const(x, -z0, q_top)), 1.0)
    e = scheme.with_value_bound(e, min(e.value_bound, e_cap))
    for _ in range(iterations - 1):
        e = scheme.rescale(scheme.mult(e, e, evk))
        z = scheme.rescale(
            scheme.mult(scheme.ct_drop_level(z, e.level), scheme.add_const(e, 1.0), evk)
        )
        z = scheme.with_value_bound(z, min(z.value_bound, z_cap))
    return z


# ---------------------------------------------------------------------------
# Softmax / soft-argmax
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SoftmaxConfig:
    """Head configuration.

    temperature: positive scalar dividing the logits, folded into the
    probe weights by neural.forward_encrypted.
    class_count: number of logit ciphertexts.
    radius: domain half-width the mean-centered, tempered logits must
    stay inside; the exp fit lives on [-radius, radius].
    exp_degree / inv_iterations: approximation knobs; the defaults pass
    a 1e-3 end-to-end softmax error budget. The exp fit must stay within
    DEFAULT_SUP_TOL of exp on [-radius, radius].
    """

    temperature: float = 1.0
    class_count: int = 2
    radius: float = 2.0
    exp_degree: int = 7
    inv_iterations: int = 5

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be positive and finite")
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.exp_degree < 1 or self.inv_iterations < 1:
            raise ValueError("approximation degrees must be positive")

    def exp_approx(self) -> PolyApprox:
        return build_exp_approx(self.radius, self.exp_degree)

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
        return 1.0 / (1.0 + (n - 1) * math.exp(-2.0 * r)) + 2.0 * DEFAULT_SUP_TOL


def softmax_depth(cfg: SoftmaxConfig) -> int:
    """Levels consumed from logits to sigma ciphertexts."""
    return (
        poly_eval_depth(cfg.exp_degree) + reciprocal_depth(cfg.inv_iterations) + 1
    )


def soft_argmax_min_levels(cfg: SoftmaxConfig) -> int:
    """Logit levels needed for the full head: softmax plus one spare so
    the index-weighted output sits above the base prime."""
    return softmax_depth(cfg) + 1


def _exps_and_reciprocal(logit_cts, cfg, evk, probe_key, need):
    """(exp fits of the logits, encrypted reciprocal of their sum)."""
    if len(logit_cts) != cfg.class_count:
        raise ValueError(
            f"{len(logit_cts)} logit ciphertexts for {cfg.class_count} classes"
        )
    if logit_cts[0].level < need:
        raise LevelExhausted(
            f"head needs {need} levels, logits have {logit_cts[0].level}"
        )
    exps = []
    for ct in logit_cts:
        y = scheme.with_value_bound(ct, min(ct.value_bound, cfg.radius))
        if probe_key is not None:
            worst = float(np.max(np.abs(scheme.decrypt_to_slots(probe_key, y))))
            if worst > cfg.radius * (1.0 + 1e-6) + 1e-9:
                raise DomainViolation(
                    f"centered logit reaches {worst:.4f}, outside +-{cfg.radius}"
                )
        exps.append(eval_poly_encrypted(y, cfg.exp_approx(), evk))
    lo, hi = cfg.sum_interval()
    total_exp = scheme.with_value_bound(scheme.tree_sum(exps), hi)
    return exps, encrypted_reciprocal(total_exp, lo, hi, cfg.inv_iterations, evk)


def encrypted_softmax(
    logit_cts,
    cfg: SoftmaxConfig,
    evk: RelinKey,
    probe_key: SecretKey = None,
) -> list:
    """Slotwise softmax over one ciphertext per class.

    Caller contract: each slot's logits are mean-centered over the
    classes, divided by the temperature and inside [-radius, radius].
    Pipeline: exp fit, slot sum, Newton reciprocal on the pinned
    interval, and a per-class product. probe_key (tests only)
    decrypt-checks the domain contract.
    """
    exps, inv = _exps_and_reciprocal(
        logit_cts, cfg, evk, probe_key, softmax_depth(cfg)
    )
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
    """Weighted index sum  sum_i sigma_i * i  with indices 1..n, computed
    as (sum_i i * e_i) * inv on encrypted_softmax's inputs, the index sum
    being scheme.weighted_sums over the exps with the (n, 1) column 1..n.

    Slots land in [1, n]; rounding the decoded value and subtracting one
    recovers a 0-based class label.
    """
    exps, inv = _exps_and_reciprocal(
        logit_cts, cfg, evk, probe_key, soft_argmax_min_levels(cfg)
    )
    index = np.arange(1.0, len(exps) + 1.0)[:, None]
    (weighted,) = scheme.weighted_sums(exps, index, INDEX_SCALE)
    out = scheme.rescale(
        scheme.mult(scheme.ct_drop_level(weighted, inv.level), inv, evk)
    )
    bound = 1.0 + (cfg.class_count - 1) * cfg.sigma_cap()
    return scheme.with_value_bound(out, min(out.value_bound, bound))
