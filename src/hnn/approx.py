"""Encrypted evaluation of the soft-argmax head.

The nonlinear pieces a ciphertext cannot do directly are built from
scheme primitives:

* exp on [-r, r]: Chebyshev-fitted polynomial, evaluated over a
  power-basis tree (y, y^2, y^4, ...) so multiplicative depth stays at
  ceil(log2 d), with its coefficients multiplied in as scalars
  (scheme.mult_const, scheme.add_const) at compensating scales so every
  internal sum sees matching scales. A node's products share one key
  switch, so a degree-7 or 15 fit takes 4 or 7. From degree 16 on the
  tree also forms y^3, a baby step: a node's leaf is then
  c1 y + c2 y^2 + c3 y^3 in scalar products, a 4-coefficient node one
  rescale, and a degree-27 or 31 fit takes 8 or 10. eval_poly_pair
  gives p(y) and p(-y) from one tree: p = E + O with E even and O odd,
  so p(-y) = E(y) - O(y), and E is a polynomial in y^2 over the tree's
  upper powers.
* 1/x on [a, b]: k Newton steps z <- z(2 - x z) from z0 = 1/b, in
  their product form z_k = z0 * prod_{i<k} (1 + e^(2^i)) with
  e = 1 - z0 x (Goldschmidt division): e squares itself while z takes
  one factor per step, so k steps cost k + 1 levels, not 2k - 1. The
  relative error is e^(2^k) <= (1 - a/b)^(2^k) plus scheme noise. A
  factor t to multiply by joins the chain as its first product, where
  z would otherwise wait a level for e^2, so t * z_k costs the same
  k + 1 levels.
* softmax: exponentiate, sum, take the encrypted reciprocal, and
  multiply per class. The caller folds mean-centering and temperature
  into the plaintext probe; zero-mean inputs pin the exp-sum into
  [n(1-eps), n cosh(r) + n eps], which lets a few Newton steps converge.
* soft-argmax: (sum_i i*e_i) * reciprocal, the index sum being the
  reciprocal chain's factor t, so the product costs no level past the
  reciprocal's k + 1; the index sum is one scheme.weighted_sums pass,
  whose exact index constants i sit at a small auxiliary scale, costing
  no level either.
* two classes: zero mean makes the logits (y, -y), so the exp/Newton
  circuit is a function of y alone; build_head_fit fits it, as
  configured, with one degree-27 polynomial in u = y / 1.25r, charged
  its sup error: 5 levels where the circuit takes 9.

Every ciphertext product here is rescaled at once, by one ring.divide
by P*q_l where mult and rescale would run two, and the products of one
sum share it and their key switch (scheme.mult_rescale_sum): an exp
tree node's, with its leaf as the addend. The other scalar products
(mult_const) rescale on their own.
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
HEAD_FIT_DEGREE = 27  # depth 5, sup error 8.7e-8 for the default head
HEAD_FIT_WIDTH = 1.25  # the two-class fit covers |y| <= 1.25 r
HEAD_FIT_TOL = 1e-4  # a coarser fit (r past ~2.4) keeps the circuit


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

def _power_tree(ct: Ciphertext, approx: PolyApprox, evk: RelinKey) -> list:
    """[y, y^2, y^4, ...], poly_eval_depth(d) powers of ct for the fit,
    after the level check; y's value bound is clipped to the radius."""
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
        powers.append(scheme.mult_rescale(prev, prev, evk))
    return powers


def _cube(powers: list, evk: RelinKey):
    """y^3 = y * y^2, one level under y^2, once the tree reaches y^16,
    else None: one key switch that turns _poly_node's 4-coefficient
    nodes into lone rescales."""
    if len(powers) < 5:
        return None
    return scheme.mult_rescale(scheme.ct_drop_level(powers[0], powers[1].level), powers[1], evk)


def eval_poly_encrypted(
    ct: Ciphertext, approx: PolyApprox, evk: RelinKey
) -> Ciphertext:
    """p(x) on the slots, power-basis tree, depth poly_eval_depth(d).

    Caller contract: slot values lie within [-radius, radius]. The
    result's value bound is max|p| + sup_error.
    """
    powers = _power_tree(ct, approx, evk)
    out = _poly_node(
        list(approx.coefficients), ct.level - len(powers), ct.scale, powers, evk,
        _cube(powers, evk),
    )
    return scheme.with_value_bound(out, approx.max_abs + approx.sup_error)


def eval_poly_pair(ct: Ciphertext, approx: PolyApprox, evk: RelinKey) -> tuple:
    """(p(y), p(-y)) from one power tree, at eval_poly_encrypted's level
    and value bound: p = E + O with E(y) = c0 + c2 y^2 + c4 y^4 + ..., a
    polynomial in t = y^2 evaluated over the tree's powers of t, and O
    the odd terms over the whole tree, so that p(-y) = E - O. A degree-7
    fit takes 5 key switches where two eval_poly_encrypted calls take 8.

    Caller contract: slot values lie within [-radius, radius].
    """
    powers = _power_tree(ct, approx, evk)
    level, coeffs = ct.level - len(powers), approx.coefficients
    # O's coefficients up to its last odd one, so no node multiplies by zero
    odd = [c if k % 2 else 0.0 for k, c in enumerate(coeffs[: len(coeffs) // 2 * 2])]
    odd = _poly_node(odd, level, ct.scale, powers, evk)
    even = list(coeffs[0::2])
    if len(even) > 1:
        even = _poly_node(even, level, ct.scale, powers[1:], evk)
        pair = scheme.add(even, odd), scheme.sub(even, odd)
    else:  # degree one: E is the constant c0
        pair = (scheme.add_const(o, even[0]) for o in (odd, scheme.negate(odd)))
    bound = approx.max_abs + approx.sup_error
    return tuple(scheme.with_value_bound(p, bound) for p in pair)


def _poly_node(coeffs, level, scale, powers, evk, cube=None) -> Ciphertext:
    """sum_k coeffs[k] y^k at ``level`` and ``scale``, from the power tree
    powers[i] = y^(2^i), as sum_j y^(2^j)*p_j + leaf + c0 with p_j, the
    coefficients [2^j, 2^(j+1)), a node one level up. The leaf is c1*y,
    or, where ``cube`` = y^3 reaches level + 1, c1*y + c2*y^2 + c3*y^3,
    and the splits start at y^4 (baby steps, Paterson and Stockmeyer,
    SIAM J. Comput. 1973). The products and the leaf's mult_const
    terms, at level + 1 and scale*q, share one key switch and division;
    c0, which at scale*q would pass encode_constant's range, comes after.
    A module function, not a closure, so one evaluation leaves no
    reference cycle pinning the powers and the evk.
    """
    q = powers[0].scheme.ring.moduli[level + 1]
    basis = powers[:1] if cube is None or cube.level <= level else [*powers[:2], cube]
    pairs = []
    # splits from the power past the leaf's, y^2 or y^4, the largest first,
    # so that its deeper subtree runs while no other operand is alive
    for i in reversed(range(len(basis).bit_length(), (len(coeffs) - 1).bit_length())):
        y_i = powers[i]
        hi = _poly_node(
            coeffs[1 << i : 2 << i], level + 1, scale * q / y_i.scale, powers, evk, cube
        )
        pairs.append((scheme.ct_drop_level(y_i, level + 1), hi))
    leaf = scheme.tree_sum(
        scheme.mult_const(scheme.ct_drop_level(y_k, level + 1), c, scale * q / y_k.scale)
        for y_k, c in zip(basis, coeffs[1:] or [0.0])
    )
    out = scheme.mult_rescale_sum(pairs, evk, leaf) if pairs else scheme.rescale(leaf)
    return scheme.add_const(out, coeffs[0]) if coeffs[0] else out


# ---------------------------------------------------------------------------
# Encrypted reciprocal
# ---------------------------------------------------------------------------

def newton_reciprocal_plain(x, upper_bound: float, iterations: int):
    """Plaintext oracle for the encrypted iteration below."""
    z = np.full_like(np.asarray(x, dtype=np.float64), 1.0 / upper_bound)
    for _ in range(iterations):
        z = z * (2.0 - x * z)
    return z


def reciprocal_depth(iterations: int, folded: bool = False) -> int:
    """Levels encrypted_reciprocal consumes for a given iteration count,
    with a factor ``times`` folded in or without."""
    return iterations + 1 if folded or iterations > 1 else 1


def encrypted_reciprocal(
    ct: Ciphertext,
    lower_bound: float,
    upper_bound: float,
    iterations: int,
    evk: RelinKey,
    times: Ciphertext = None,
    ratio_bound: float = math.inf,
) -> Ciphertext:
    """Newton reciprocal for slots inside [lower_bound, upper_bound], or
    its product with the ciphertext ``times``.

    Evaluates the k-step Newton iterate z_k of newton_reciprocal_plain
    in product form: z_1 = 2 z0 - z0^2 x and e = 1 - z0 x, one level
    each side by side from x, then k - 1 times e <- e^2 and
    z <- z (1 + e). Since 1 - x z_k = e^(2^k), the relative error is
    (1 - lower/upper)^(2^k) plus scheme noise. Consumes
    reciprocal_depth(k) levels: k + 1, or one for k = 1.

    ``times``, at level ct.level - 1 or above, makes the result
    times * z_k: it multiplies z_1 as the chain's first product, at the
    level where e first squares, so each later z <- z (1 + e) runs level
    for level with the squarings. That takes
    reciprocal_depth(k, folded=True) = k + 1 levels, where a product
    after the chain takes k + 2 for k > 1. ``ratio_bound``, a bound the
    caller knows on |times / x|, caps each partial product times * z_i,
    as 0 < z_i <= 1/x.
    """
    if not 0 < lower_bound < upper_bound:
        raise ValueError("need 0 < lower_bound < upper_bound")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    depth = reciprocal_depth(iterations, times is not None)
    if ct.level < depth:
        raise LevelExhausted(
            f"{iterations} iterations need {depth} levels, have {ct.level}"
        )
    x = scheme.with_value_bound(ct, min(ct.value_bound, upper_bound))
    z0 = 1.0 / upper_bound
    cap = 1.0 / lower_bound  # Newton from below never overshoots 1/x
    e_cap = 1.0 - lower_bound / upper_bound
    # constants encoded at q_top, so each rescaled product keeps x's scale
    q_top = float(x.scheme.ring.moduli[x.level])
    z = scheme.rescale(scheme.mult_const(x, -z0 * z0, q_top))
    z = scheme.add_const(z, 2.0 * z0)
    z = scheme.with_value_bound(z, min(z.value_bound, cap))
    e = scheme.add_const(scheme.rescale(scheme.mult_const(x, -z0, q_top)), 1.0)
    e = scheme.with_value_bound(e, min(e.value_bound, e_cap))
    if times is not None:
        cap = min(ratio_bound, times.value_bound * cap)
        z = scheme.mult_rescale(scheme.ct_drop_level(times, z.level), z, evk)
        z = scheme.with_value_bound(z, min(z.value_bound, cap))
    for _ in range(iterations - 1):
        e = scheme.mult_rescale(e, e, evk)
        z = scheme.mult_rescale(
            scheme.ct_drop_level(z, e.level), scheme.add_const(e, 1.0), evk
        )
        z = scheme.with_value_bound(z, min(z.value_bound, cap))
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

    def fit_width(self) -> float:
        """R, the two-class fit's input divisor: u = y / R."""
        return HEAD_FIT_WIDTH * self.radius

    def head_fit(self, weight: float = 2.0):
        """build_head_fit for two classes, else None."""
        if self.class_count == 2:
            return build_head_fit(self.radius, self.exp_degree, self.inv_iterations, weight)
        return None


def _cheb_to_power(cheb) -> np.ndarray:
    """Power-basis coefficients of sum_k cheb[k] T_k; the rows hold T_k's
    integer coefficients, exact in float64."""
    rows = np.eye(len(cheb))
    for k in range(2, len(cheb)):
        rows[k, 1:] = 2.0 * rows[k - 1, :-1]
        rows[k] -= rows[k - 2]
    return np.asarray(cheb) @ rows


@functools.lru_cache(maxsize=64)
def build_head_fit(radius: float, exp_degree: int, inv_iterations: int, weight: float):
    """Chebyshev interpolant, degree HEAD_FIT_DEGREE in u on [-1, 1], of
    the two-class exp/Newton circuit at logits (y, -y), y = R u:
    (e(y) + weight e(-y)) * newton_reciprocal_plain(e(y) + e(-y), hi, k).
    Weight 2 gives the soft-argmax, weight 0 sigma_1 (sigma_2(u) is
    sigma_1(-u)). None where the grid-measured sup error passes
    HEAD_FIT_TOL."""
    cfg = SoftmaxConfig(radius=radius, exp_degree=exp_degree, inv_iterations=inv_iterations)
    exp_coeffs, hi, width = cfg.exp_approx().coefficients, cfg.sum_interval()[1], cfg.fit_width()

    def circuit(u):
        a, b = (polynomial.polyval(s * width * u, exp_coeffs) for s in (1.0, -1.0))
        return (a + weight * b) * newton_reciprocal_plain(a + b, hi, inv_iterations)

    # a wide radius's Newton overflows at the edge, and the fit fails
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _cheb_to_power(chebyshev.chebinterpolate(circuit, HEAD_FIT_DEGREE))
        grid = np.linspace(-1.0, 1.0, SUP_GRID_POINTS)
        values = polynomial.polyval(grid, coeffs)
        sup = float(np.max(np.abs(values - circuit(grid))))
    if sup <= HEAD_FIT_TOL:
        return PolyApprox(tuple(coeffs.tolist()), 1.0, sup, float(np.max(np.abs(values))))
    return None


def softmax_depth(cfg: SoftmaxConfig) -> int:
    """Levels consumed from logits to sigma ciphertexts."""
    fit = cfg.head_fit(0.0)
    if fit is not None:
        return 1 + poly_eval_depth(fit.degree)
    return poly_eval_depth(cfg.exp_degree) + reciprocal_depth(cfg.inv_iterations) + 1


def soft_argmax_min_levels(cfg: SoftmaxConfig) -> int:
    """Logit levels needed for the full head, one spare included so the
    output sits above the base prime: forming u and the fit, or the exp
    fit and the reciprocal with the index sum folded in."""
    fit = cfg.head_fit()
    if fit is not None:
        return poly_eval_depth(fit.degree) + 2
    exp = poly_eval_depth(cfg.exp_degree)
    return exp + reciprocal_depth(cfg.inv_iterations, folded=True) + 1


def _checked_logits(logit_cts, cfg, probe_key, need) -> list:
    """The logits, bounded by the radius, after the count, level and
    domain checks."""
    if len(logit_cts) != cfg.class_count:
        raise ValueError(
            f"{len(logit_cts)} logit ciphertexts for {cfg.class_count} classes"
        )
    if logit_cts[0].level < need:
        raise LevelExhausted(
            f"head needs {need} levels, logits have {logit_cts[0].level}"
        )
    ys = [
        scheme.with_value_bound(ct, min(ct.value_bound, cfg.radius)) for ct in logit_cts
    ]
    if probe_key is not None:
        _probe_domain(ys, cfg.radius, probe_key)
    return ys


def _probe_domain(cts, bound, probe_key):
    """Decrypt-check the head's input contract: every slot inside
    +-bound, and two logits each other's negatives up to their ledgered
    noise, since a fitted two-class head reads only the first."""
    for ct in cts:
        worst = float(np.max(np.abs(scheme.decrypt_to_slots(probe_key, ct))))
        if worst > bound * (1.0 + 1e-6) + 1e-9:
            raise DomainViolation(f"head input reaches {worst:.4f}, outside +-{bound:g}")
    if len(cts) == 2:
        total = scheme.add(*cts)
        worst = float(np.max(np.abs(scheme.decrypt_to_slots(probe_key, total))))
        if worst > 2.0 ** total.noise_bits / total.scale:
            raise DomainViolation(f"two logits sum to {worst:.3g}, not centered")


def _exps_and_sum(ys, cfg, evk):
    """(exp fits of the logits, their slot sum)."""
    exps = [eval_poly_encrypted(y, cfg.exp_approx(), evk) for y in ys]
    total = scheme.with_value_bound(scheme.tree_sum(exps), cfg.sum_interval()[1])
    return exps, total


def _fit_input(y: Ciphertext, cfg: SoftmaxConfig) -> Ciphertext:
    """u = y / R, one mult_const level."""
    q_top = float(y.scheme.ring.moduli[y.level])
    return scheme.rescale(scheme.mult_const(y, 1.0 / cfg.fit_width(), q_top))


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
    interval, and a per-class product, or for a fitted two-class head
    one eval_poly_pair of its sigma_1 fit at u. probe_key (tests only)
    decrypt-checks the domain contract.
    """
    fit = cfg.head_fit(0.0)
    need = softmax_depth(cfg) + (fit is not None)  # the fit's output above level 0
    ys = _checked_logits(logit_cts, cfg, probe_key, need)
    if fit is not None:
        pair = eval_poly_pair(_fit_input(ys[0], cfg), fit, evk)
        return [scheme.with_error(sig, fit.sup_error) for sig in pair]
    exps, total = _exps_and_sum(ys, cfg, evk)
    inv = encrypted_reciprocal(total, *cfg.sum_interval(), cfg.inv_iterations, evk)
    cap = cfg.sigma_cap()
    sigmas = []
    for e in exps:
        sig = scheme.mult_rescale(scheme.ct_drop_level(e, inv.level), inv, evk)
        sigmas.append(scheme.with_value_bound(sig, min(sig.value_bound, cap)))
    return sigmas


def fitted_soft_argmax(
    u: Ciphertext, cfg: SoftmaxConfig, evk: RelinKey, probe_key: SecretKey = None
) -> Ciphertext:
    """The two-class soft-argmax from u = y_1 / R, in |u| <= 1 / 1.25:
    one eval_poly_encrypted of cfg.head_fit(), charged its sup error.
    probe_key (tests only) decrypt-checks the domain."""
    fit, bound = cfg.head_fit(), 1.0 / HEAD_FIT_WIDTH
    if probe_key is not None:
        _probe_domain([u], bound, probe_key)
    u = scheme.with_value_bound(u, min(u.value_bound, bound))
    return scheme.with_error(eval_poly_encrypted(u, fit, evk), fit.sup_error)


def encrypted_soft_argmax(
    logit_cts,
    cfg: SoftmaxConfig,
    evk: RelinKey,
    probe_key: SecretKey = None,
) -> Ciphertext:
    """Weighted index sum  sum_i sigma_i * i  with indices 1..n, computed
    as (sum_i i * e_i) * inv on encrypted_softmax's inputs, the index sum
    being scheme.weighted_sums over the exps with the (n, 1) column 1..n
    and encrypted_reciprocal's factor ``times``, so that the product
    costs no level past the reciprocal's; a fitted two-class head runs
    fitted_soft_argmax of u = y_1 / R.

    Slots land in [1, n]; rounding the decoded value and subtracting one
    recovers a 0-based class label.
    """
    ys = _checked_logits(logit_cts, cfg, probe_key, soft_argmax_min_levels(cfg))
    if cfg.head_fit() is not None:
        return fitted_soft_argmax(_fit_input(ys[0], cfg), cfg, evk)
    exps, total = _exps_and_sum(ys, cfg, evk)
    index = np.arange(1.0, len(exps) + 1.0)[:, None]
    (weighted,) = scheme.weighted_sums(exps, index, INDEX_SCALE)
    # weighted / total = sum_i i * sigma_i, so every partial product of
    # the chain stays under the output's own bound; with at most
    # sigma_cap on any class, the index sum is largest with sigma_cap on
    # class n and the rest on class n - 1
    bound = cfg.class_count - 1.0 + cfg.sigma_cap()
    return encrypted_reciprocal(
        total, *cfg.sum_interval(), cfg.inv_iterations, evk, weighted, bound
    )
