import math
import timeit

import numpy as np
import pytest

from hnn import approx, encoding, neural, scheme
from hnn.errors import DomainViolation, LevelExhausted

from helpers import count_key_switches, reference_soft_argmax, reference_softmax


def enc(keys, values, rng):
    params = keys.scheme
    pt = encoding.encode(values, params.scale, params.ring)
    return scheme.encrypt(keys.pk, pt, rng)


def dec(keys, ct, count):
    return scheme.decrypt_to_slots(keys.sk, ct)[:count]


def centered(logits):
    """Class-mean-centered logits, the input contract of the encrypted head."""
    logits = np.asarray(logits, dtype=np.float64)
    return logits - logits.mean(axis=-1, keepdims=True)


def identity_probe(head_keys, logits, temperature, rng):
    """Soft-argmax of the given logits through neural.forward_encrypted
    with an identity probe, which applies centering and temperature."""
    k, classes = logits.shape
    cfg = approx.SoftmaxConfig(temperature=temperature, class_count=classes)
    head = neural.SoftArgmaxHead(temperature, classes)
    model = neural.LinearModel(np.eye(classes), np.zeros(classes))
    cts = neural.encrypt_features(head_keys.pk, logits, rng)
    out = neural.forward_encrypted(model, head, cts, head_keys.evk, cfg)
    return dec(head_keys, out, k)


class TestBuildExpApprox:
    def test_value_at_zero(self):
        fit = approx.build_exp_approx(2.0, 7)
        assert abs(fit(0.0) - 1.0) <= fit.sup_error

    def test_stored_error_consistent_with_regrid(self):
        # diagnostic fit on a wide domain: stored sup error must agree
        # with an independent dense-grid re-measurement
        fit = approx.build_exp_approx(4.0, 7, tol=None)
        remeasured = approx.measure_sup_error(
            fit.coefficients, np.exp, 4.0, grid_points=40001
        )
        assert fit.sup_error <= remeasured * 1.01 + 1e-12
        assert remeasured <= fit.sup_error * 1.01

    def test_error_monotone_in_degree(self):
        worse = approx.build_exp_approx(4.0, 7, tol=None)
        better = approx.build_exp_approx(4.0, 9, tol=None)
        assert better.sup_error <= worse.sup_error

    def test_rejects_insufficient_degree(self):
        # degree 7 cannot reach 1e-3 on [-4, 4]
        with pytest.raises(ValueError, match="raise the degree"):
            approx.build_exp_approx(4.0, 7)

    def test_radius_cap(self):
        with pytest.raises(ValueError):
            approx.build_exp_approx(9.0, 7, tol=None)


class TestEvalPoly:
    def test_degree_one_matches_plain_composition(self, head_keys, rng):
        # c0 + c1*x via eval_poly equals the explicit mult_const/add_const
        # route
        params = head_keys.scheme
        k = params.slot_capacity
        x = rng.uniform(-1, 1, k)
        ct = enc(head_keys, x, rng)
        fit = approx.PolyApprox((0.25, -1.5), 1.0, 0.0, 1.75)
        via_eval = approx.eval_poly_encrypted(ct, fit, head_keys.evk)
        q = params.ring.moduli[ct.level]
        manual = scheme.add_const(
            scheme.rescale(scheme.mult_const(ct, -1.5, float(q))), 0.25
        )
        assert via_eval.scale == manual.scale
        a = scheme.decrypt_to_slots(head_keys.sk, via_eval)[:k]
        b = scheme.decrypt_to_slots(head_keys.sk, manual)[:k]
        assert np.max(np.abs(a - b)) < 2.0 ** -25
        assert np.max(np.abs(a - (0.25 - 1.5 * x))) < 2.0 ** -20

    def test_square_on_interval(self, head_keys, rng):
        params = head_keys.scheme
        k = params.slot_capacity
        x = rng.uniform(-2, 2, k)
        ct = enc(head_keys, x, rng)
        fit = approx.PolyApprox((0.0, 0.0, 1.0), 2.0, 0.0, 4.0)
        out = dec(head_keys, approx.eval_poly_encrypted(ct, fit, head_keys.evk), k)
        assert np.max(np.abs(out - x ** 2)) < 2.0 ** -10

    def test_exp_fit_at_landmarks(self, head_keys, rng):
        fit = approx.build_exp_approx(2.0, 7)
        pts = np.array([-1.0, 0.0, 1.0])
        ct = enc(head_keys, pts, rng)
        out = dec(head_keys, approx.eval_poly_encrypted(ct, fit, head_keys.evk), 3)
        expect = np.exp(pts)
        assert np.max(np.abs(out - expect)) < fit.sup_error + 2.0 ** -10

    def test_level_check(self, small_keys, rng):
        # depth-3 tree cannot run on a 4-level chain remnant
        params = small_keys.scheme
        ct = enc(small_keys, np.zeros(params.slot_capacity), rng)
        low = scheme.ct_drop_level(ct, 1)
        fit = approx.build_exp_approx(2.0, 7)
        with pytest.raises(LevelExhausted):
            approx.eval_poly_encrypted(low, fit, small_keys.evk)


@pytest.fixture(scope="module")
def deep_keys():
    """An N = 32 ring of depth 6, deep enough for a degree-31 fit."""
    params = scheme.param_gen(128, 16, 6, scale_bits=40, allow_insecure=True)
    assert params.ring.ring_degree == 32
    return scheme.keygen(params, np.random.default_rng(91))


def per_class_pair(y, fit, evk):
    """The path eval_poly_pair replaces: one fit of y and one of -y."""
    return (
        approx.eval_poly_encrypted(y, fit, evk),
        approx.eval_poly_encrypted(scheme.negate(y), fit, evk),
    )


def within_ledgers(keys, a, b):
    """a and b decrypt within the sum of their ledgered errors."""
    gap = np.max(np.abs(scheme.decrypt_to_slots(keys.sk, a) - scheme.decrypt_to_slots(keys.sk, b)))
    return gap <= 2.0 ** a.noise_bits / a.scale + 2.0 ** b.noise_bits / b.scale


class TestPolyTree:
    """eval_poly_encrypted against PolyApprox.__call__ at every degree
    up to 31, on an N = 32 ring of depth 6, and the key switches its
    summed products take."""

    @pytest.mark.parametrize("degree", range(1, 32))
    def test_matches_the_plain_polynomial_within_its_ledger(self, deep_keys, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-1, 1, degree + 1)
        fits = [
            approx.build_exp_approx(2.0, degree, tol=None),
            # |p| <= sum |c_k| on [-1, 1]
            approx.PolyApprox(tuple(coeffs), 1.0, 0.0, float(np.sum(np.abs(coeffs)))),
        ]
        for fit in fits:
            x = rng.uniform(-fit.radius, fit.radius, deep_keys.scheme.slot_capacity)
            out = approx.eval_poly_encrypted(enc(deep_keys, x, rng), fit, deep_keys.evk)
            assert out.level == deep_keys.scheme.max_level - approx.poly_eval_depth(degree)
            assert scheme.noise_measure(deep_keys.sk, out, fit(x)) <= out.noise_bits

    @pytest.mark.parametrize("degree, switches, divisions", [
        pytest.param(d, s, v, id=f"{d}-{s}")
        for d, s, v in ((7, 4, 6), (15, 7, 11), (16, 7, 10), (20, 8, 11), (23, 8, 11),
                        (27, 8, 12), (31, 10, 14))
    ])
    def test_key_switches_per_fit(self, deep_keys, monkeypatch, degree, switches, divisions):
        # the power tree's depth - 1 squarings, y^3 from degree 16 on,
        # then one switch per sum: each node's products and its leaf
        # share one key switch and one division; the nodes with no
        # product, whose leaf is c1*y, or with y^3 c1*y + c2*y^2 + c3*y^3,
        # rescale alone
        ct = enc(deep_keys, np.zeros(deep_keys.scheme.slot_capacity), np.random.default_rng(92))
        counts = count_key_switches(monkeypatch)
        approx.eval_poly_encrypted(ct, approx.build_exp_approx(2.0, degree, tol=None), deep_keys.evk)
        assert counts == {"switch": switches, "divide": divisions}


class TestBabySteps:
    """The y^3 tree of a fit of degree 16 or more against the tree it
    replaces, which splits every node on y^2 (approx._cube patched to
    form no y^3), on N = 32 and N = 1024 rings of depth 6."""

    @pytest.fixture(scope="class", params=[16, 512], ids=["n32", "n1024"])
    def keys(self, request):
        params = scheme.param_gen(128, request.param, 6, 40, allow_insecure=True)
        return scheme.keygen(params, np.random.default_rng(request.param + 2))

    @pytest.mark.parametrize("degree", [16, 20, 27, 31])
    def test_matches_the_plain_tree_within_the_ledgers(self, keys, monkeypatch, degree):
        n = keys.scheme.slot_capacity
        rng = np.random.default_rng([3, degree, n])
        fit = approx.build_exp_approx(2.0, degree, tol=None)
        x = rng.uniform(-2, 2, n)
        ct = enc(keys, x, rng)
        fast = approx.eval_poly_encrypted(ct, fit, keys.evk)
        monkeypatch.setattr(approx, "_cube", lambda powers, evk: None)
        plain = approx.eval_poly_encrypted(ct, fit, keys.evk)
        assert fast.level == plain.level == keys.scheme.max_level - approx.poly_eval_depth(degree)
        assert within_ledgers(keys, fast, plain)
        for out in (fast, plain):
            assert scheme.noise_measure(keys.sk, out, fit(x)) <= out.noise_bits

    @pytest.mark.parametrize("degree", [7, 15])
    def test_a_shallower_fit_keeps_the_plain_tree(self, deep_keys, monkeypatch, degree):
        n = deep_keys.scheme.slot_capacity
        ct = enc(deep_keys, np.linspace(-2, 2, n), np.random.default_rng(degree))
        fit = approx.build_exp_approx(2.0, degree)
        fast = approx.eval_poly_encrypted(ct, fit, deep_keys.evk)
        monkeypatch.setattr(approx, "_cube", lambda powers, evk: None)
        plain = approx.eval_poly_encrypted(ct, fit, deep_keys.evk)
        assert np.array_equal(fast.parts.residues, plain.parts.residues)
        assert (fast.scale, fast.noise_bits) == (plain.scale, plain.noise_bits)


class TestPolyPair:
    """eval_poly_pair, the two-class head's E(y^2) +- O(y), against the
    path it replaces and against PolyApprox.__call__ at +-y."""

    @pytest.mark.parametrize("degree", range(1, 16))
    def test_matches_the_per_class_path_within_the_ledgers(self, deep_keys, degree):
        # degree 1 has no E tree, degree 2 an E of one leaf
        rng = np.random.default_rng(100 + degree)
        fit = approx.build_exp_approx(2.0, degree, tol=None)
        x = rng.uniform(-2, 2, deep_keys.scheme.slot_capacity)
        y = enc(deep_keys, x, rng)
        pair = approx.eval_poly_pair(y, fit, deep_keys.evk)
        slow = per_class_pair(y, fit, deep_keys.evk)
        level = deep_keys.scheme.max_level - approx.poly_eval_depth(degree)
        for sign, fast, ref in zip((1, -1), pair, slow):
            assert fast.level == ref.level == level
            assert fast.value_bound == ref.value_bound
            assert scheme.noise_measure(deep_keys.sk, fast, fit(sign * x)) <= fast.noise_bits
            assert within_ledgers(deep_keys, fast, ref)

    def test_a_degree_seven_pair_takes_five_key_switches(self, deep_keys, monkeypatch):
        # y^2 and y^4; E(t) = c0 + c2 t + c4 t^2 + c6 t^3 over (t, t^2),
        # one sum; O over (y, y^2, y^4), two sums and two lone rescales
        ct = enc(deep_keys, np.zeros(deep_keys.scheme.slot_capacity), np.random.default_rng(93))
        counts = count_key_switches(monkeypatch)
        approx.eval_poly_pair(ct, approx.build_exp_approx(2.0, 7), deep_keys.evk)
        assert counts == {"switch": 5, "divide": 8}

    def test_level_check(self, small_keys, rng):
        low = scheme.ct_drop_level(enc(small_keys, np.zeros(4), rng), 1)
        with pytest.raises(LevelExhausted):
            approx.eval_poly_pair(low, approx.build_exp_approx(2.0, 7), small_keys.evk)


class TestEncryptedReciprocal:
    def test_fixed_point_at_upper_bound(self, head_keys, rng):
        # x = b: z0*x = 1 exactly, so every iteration is a no-op
        k = head_keys.scheme.slot_capacity
        b = 2.0
        ct = enc(head_keys, np.full(k, b), rng)
        out = dec(head_keys, approx.encrypted_reciprocal(ct, 0.5, b, 5, head_keys.evk), k)
        assert np.max(np.abs(out - 1.0 / b)) < 1e-6

    def test_unit_input(self, head_keys, rng):
        k = head_keys.scheme.slot_capacity
        ct = enc(head_keys, np.ones(k), rng)
        out = dec(head_keys, approx.encrypted_reciprocal(ct, 0.5, 2.0, 5, head_keys.evk), k)
        assert np.max(np.abs(out - 1.0)) < 1e-4

    def test_error_bound_across_interval(self, head_keys, rng):
        # sampled slots across [a, b]: relative error within the
        # analytic bound (1 - a/b)^(2^k) plus 1e-3 slack, and the
        # encrypted result tracks the plaintext Newton oracle
        params = head_keys.scheme
        k = params.slot_capacity
        a, b, iters = 0.5, 2.0, 4
        xs = np.linspace(a, b, k)
        ct = enc(head_keys, xs, rng)
        out = dec(head_keys, approx.encrypted_reciprocal(ct, a, b, iters, head_keys.evk), k)
        rel = np.abs(out * xs - 1.0)
        bound = (1 - a / b) ** (2 ** iters)
        assert np.max(rel) <= bound + 1e-3
        oracle = approx.newton_reciprocal_plain(xs, b, iters)
        assert np.max(np.abs(out - oracle)) < 1e-4

    @pytest.mark.parametrize("iters", range(1, 7))
    def test_product_form_tracks_newton(self, head_keys, rng, iters):
        # the product form against the plaintext Newton iteration it
        # replaced, on the default head's pinned exp-sum interval: k + 1
        # levels (one for k = 1, where e is never squared), within 1e-4
        # of the oracle, measured noise inside the ledger
        k = head_keys.scheme.slot_capacity
        a, b = approx.SoftmaxConfig().sum_interval()
        xs = np.linspace(a, b, k)
        ct = enc(head_keys, xs, rng)
        out = approx.encrypted_reciprocal(ct, a, b, iters, head_keys.evk)
        levels = 1 if iters == 1 else iters + 1
        assert ct.level - out.level == levels == approx.reciprocal_depth(iters)
        oracle = approx.newton_reciprocal_plain(xs, b, iters)
        assert np.max(np.abs(dec(head_keys, out, k) - oracle)) < 1e-4
        assert scheme.noise_measure(head_keys.sk, out, oracle) <= out.noise_bits

    def test_input_validation(self, head_keys, rng):
        k = head_keys.scheme.slot_capacity
        ct = enc(head_keys, np.ones(k), rng)
        with pytest.raises(ValueError):
            approx.encrypted_reciprocal(ct, 2.0, 0.5, 5, head_keys.evk)
        low = scheme.ct_drop_level(ct, 3)
        with pytest.raises(LevelExhausted):
            approx.encrypted_reciprocal(low, 0.5, 2.0, 5, head_keys.evk)


class TestEncryptedSoftmax:
    def test_symmetric_logits(self, head_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        cts = [enc(head_keys, np.zeros(k), rng) for _ in range(2)]
        sig = approx.encrypted_softmax(cts, cfg, head_keys.evk)
        for s in sig:
            assert np.max(np.abs(dec(head_keys, s, k) - 0.5)) < 1e-3

    def test_known_two_class_value(self, head_keys, rng):
        # logits (2, 0): sigma_1 = 1/(1+e^-2) = 0.880797
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        y = centered([2.0, 0.0])
        cts = [enc(head_keys, np.full(k, v), rng) for v in y]
        sig = approx.encrypted_softmax(cts, cfg, head_keys.evk, probe_key=head_keys.sk)
        got = dec(head_keys, sig[0], k)
        assert np.max(np.abs(got - 1.0 / (1.0 + math.exp(-2.0)))) < 1e-3

    def test_probabilities_sum_to_one(self, head_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        logits = rng.uniform(-2, 2, (k, 2))
        cts = [enc(head_keys, centered(logits)[:, i], rng) for i in range(2)]
        sig = approx.encrypted_softmax(cts, cfg, head_keys.evk)
        total = sum(dec(head_keys, s, k) for s in sig)
        assert np.max(np.abs(total - 1.0)) < 2e-3

    def test_matches_oracle_on_random_logits(self, head_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        logits = rng.uniform(-2, 2, (k, 2))
        cts = [enc(head_keys, centered(logits)[:, i], rng) for i in range(2)]
        sig = approx.encrypted_softmax(cts, cfg, head_keys.evk)
        got = np.stack([dec(head_keys, s, k) for s in sig], axis=1)
        assert np.max(np.abs(got - reference_softmax(logits))) <= 1e-3

    def test_mean_subtraction_invariance(self, head_keys, rng):
        # the plaintext oracle is exactly shift-invariant; the encrypted
        # pipeline, centering folded into the probe, sees shifted logits
        # and is compared against the unshifted oracle
        k = head_keys.scheme.slot_capacity
        logits = rng.uniform(-1, 1, (k, 2))
        shift = rng.uniform(-5, 5, k)
        shifted = logits + shift[:, None]
        assert np.allclose(
            reference_softmax(logits), reference_softmax(shifted), atol=1e-12
        )
        got = identity_probe(head_keys, shifted, 1.0, rng)
        assert np.max(np.abs(got - reference_soft_argmax(logits))) <= 1e-3

    def test_domain_probe_detects_violation(self, head_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        cts = [
            enc(head_keys, np.full(k, 8.0), rng),
            enc(head_keys, np.full(k, -8.0), rng),
        ]
        with pytest.raises(DomainViolation):
            approx.encrypted_softmax(cts, cfg, head_keys.evk, probe_key=head_keys.sk)

    def test_domain_probe_refuses_uncentered_two_class_logits(self, head_keys, rng):
        # the two-class head reads only the first logit
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        cts = [enc(head_keys, np.full(k, 0.5), rng), enc(head_keys, np.full(k, 0.3), rng)]
        with pytest.raises(DomainViolation, match="not centered"):
            approx.encrypted_soft_argmax(cts, cfg, head_keys.evk, probe_key=head_keys.sk)
        # independently encrypted centered logits differ by noise alone
        cts = [enc(head_keys, np.full(k, 0.5), rng), enc(head_keys, np.full(k, -0.5), rng)]
        approx.encrypted_soft_argmax(cts, cfg, head_keys.evk, probe_key=head_keys.sk)


class TestEncryptedSoftArgmax:
    def test_uniform_case(self, head_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        cts = [enc(head_keys, np.zeros(k), rng) for _ in range(2)]
        out = dec(head_keys, approx.encrypted_soft_argmax(cts, cfg, head_keys.evk), k)
        assert np.max(np.abs(out - 1.5)) < 1e-3

    def test_three_class_confident_logits(self, rng):
        # logits (10, 0, 0) need a wide domain: mean-centered they reach
        # 20/3, so r = 6.7 with matching degree/iteration counts; nine
        # Newton steps converge fully at the operating point S ~ 787.
        # The worst-case ledger compounds hard over a cosh(6.7)-wide
        # reciprocal interval, so the chain carries spare levels beneath
        # the working range to keep the wraparound guard satisfied.
        from hnn import ring as ring_mod

        cfg = approx.SoftmaxConfig(
            temperature=1.0,
            class_count=3,
            radius=6.7,
            exp_degree=15,
            inv_iterations=9,
        )
        depth = approx.soft_argmax_min_levels(cfg) + 18
        moduli = ring_mod.find_ntt_primes(16, [42] + [41] * depth)
        params = scheme.SchemeParams(
            security_level=128,
            ring=ring_mod.RingParams(16, moduli),
            scale=2.0 ** 40,
            slot_capacity=8,
            allow_insecure=True,
        )
        keys = scheme.keygen(params, np.random.default_rng(42))
        k = params.slot_capacity
        logits = np.array([10.0, 0.0, 0.0])
        cts = [
            scheme.encrypt(
                keys.pk,
                encoding.encode(np.full(k, v), params.scale, params.ring),
                rng,
            )
            for v in centered(logits)
        ]
        out = scheme.decrypt_to_slots(
            keys.sk, approx.encrypted_soft_argmax(cts, cfg, keys.evk)
        )[:k]
        oracle = reference_soft_argmax(logits[None, :])[0]
        assert abs(oracle - 1.000136) < 1e-6  # plaintext oracle sanity
        assert np.max(np.abs(out - oracle)) < 2e-3

    def test_huge_temperature_approaches_uniform(self, head_keys, rng):
        # T -> inf drives every probability to 1/n, the index sum to (n+1)/2
        k = head_keys.scheme.slot_capacity
        logits = rng.uniform(-2, 2, (k, 2))
        out = identity_probe(head_keys, logits, 1e6, rng)
        assert np.max(np.abs(out - 1.5)) < 1e-3

    def test_matches_index_sum_of_softmax(self, head_keys, rng):
        # the one-product path (sum_i i*e_i) * inv against the per-class
        # path it replaced: sum_i i * sigma_i from encrypted_softmax
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        logits = rng.uniform(-2, 2, (k, 2))
        cts = [enc(head_keys, centered(logits)[:, i], rng) for i in range(2)]
        out = dec(head_keys, approx.encrypted_soft_argmax(cts, cfg, head_keys.evk), k)
        sig = approx.encrypted_softmax(cts, cfg, head_keys.evk)
        per_class = sum((i + 1) * dec(head_keys, s, k) for i, s in enumerate(sig))
        assert np.max(np.abs(out - per_class)) < 1e-6

    def test_two_class_head_matches_the_per_class_path(self, monkeypatch):
        # on the N = 1024 ring of the exp/Newton head (depth 11), as
        # forward_encrypted runs it: the fitted head from the probe's u
        # against the exp/Newton circuit from both logits
        params = scheme.param_gen(128, 512, 11, 40, allow_insecure=True)
        assert params.ring.ring_degree == 1024
        keys = scheme.keygen(params, np.random.default_rng(94))
        rng = np.random.default_rng(95)
        y = rng.uniform(-2, 2, params.slot_capacity)
        model = neural.LinearModel(np.array([[1.0, -1.0]]), np.zeros(2))
        head = neural.SoftArgmaxHead(1.0, 2)
        cts = neural.encrypt_features(keys.pk, y[:, None], rng)
        fast = neural.forward_encrypted(model, head, cts, keys.evk, probe_key=keys.sk)
        monkeypatch.setattr(approx.SoftmaxConfig, "head_fit", no_fit)
        slow = neural.forward_encrypted(model, head, cts, keys.evk, probe_key=keys.sk)
        assert (fast.level, slow.level) == (5, 1)
        assert within_ledgers(keys, fast, slow)
        oracle = reference_soft_argmax(np.column_stack((y, -y)))
        assert np.max(np.abs(dec(keys, fast, len(y)) - oracle)) < 1e-3

    def test_output_within_its_value_bound(self, head_keys, rng):
        # four classes at radius 1 with the mass on the top two: the index
        # sum reads 3.26, above 1 + 3 * sigma_cap = 3.14 but within
        # 3 + sigma_cap
        cfg = approx.SoftmaxConfig(class_count=4, radius=1.0)
        k = head_keys.scheme.slot_capacity
        logits = np.tile([-1.0, -1.0, 1.0, 1.0], (k, 1))
        cts = [enc(head_keys, logits[:, i], rng) for i in range(4)]
        out = approx.encrypted_soft_argmax(cts, cfg, head_keys.evk)
        got = dec(head_keys, out, k)
        assert np.max(np.abs(got - reference_soft_argmax(logits))) < 1e-3
        assert np.max(np.abs(got)) <= out.value_bound

    def test_output_in_index_range(self, head_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        logits = rng.uniform(-2, 2, (k, 2))
        cts = [enc(head_keys, centered(logits)[:, i], rng) for i in range(2)]
        out = dec(head_keys, approx.encrypted_soft_argmax(cts, cfg, head_keys.evk), k)
        assert np.all(out >= 1.0 - 1e-3)
        assert np.all(out <= 2.0 + 1e-3)

    def test_rounding_matches_argmax_beyond_margin(self, head_keys, rng):
        # gap >= T*ln(199) makes sigma_max >= 0.995, so the rounded index
        # sum recovers argmax exactly; that gap needs a radius >= 2.65
        # domain, hence a dedicated radius-3 configuration
        cfg = approx.SoftmaxConfig(radius=3.0, exp_degree=9, inv_iterations=5)
        assert approx.soft_argmax_min_levels(cfg) <= head_keys.scheme.max_level
        k = head_keys.scheme.slot_capacity
        gap = rng.uniform(math.log(199.0), 5.9, k)
        winner = rng.integers(0, 2, k)
        base = -gap / 2.0
        logits = np.stack([base, base], axis=1)
        logits[np.arange(k), winner] += gap
        cts = [enc(head_keys, logits[:, i], rng) for i in range(2)]
        out = dec(head_keys, approx.encrypted_soft_argmax(cts, cfg, head_keys.evk), k)
        assert np.array_equal(np.rint(out).astype(int) - 1, winner)


def no_fit(cfg, weight=2.0):
    """SoftmaxConfig.head_fit for a head without a fit: the two-class
    exp/Newton circuit, per class."""
    return None


def unfolded_soft_argmax(cts, cfg, evk):
    """The path encrypted_soft_argmax's folded chain replaces: the index
    sum times the finished reciprocal, a product one level after it."""
    exps = [approx.eval_poly_encrypted(ct, cfg.exp_approx(), evk) for ct in cts]
    lo, hi = cfg.sum_interval()
    total = scheme.with_value_bound(scheme.tree_sum(exps), hi)
    inv = approx.encrypted_reciprocal(total, lo, hi, cfg.inv_iterations, evk)
    index = np.arange(1.0, cfg.class_count + 1.0)[:, None]
    (weighted,) = scheme.weighted_sums(exps, index, approx.INDEX_SCALE)
    return scheme.mult_rescale(scheme.ct_drop_level(weighted, inv.level), inv, evk)


class TestFoldedIndexProduct:
    """encrypted_soft_argmax, whose index sum is the reciprocal chain's
    first product, against unfolded_soft_argmax, on N = 32 and the
    exp/Newton head's N = 1024 ring, for two classes per class (as a
    head whose fit is too coarse runs them) and three, and one to five
    Newton steps."""

    @pytest.fixture(scope="class", params=[16, 512], ids=["n32", "n1024"])
    def keys(self, request):
        # depth 11, deep enough for the unfolded path at five steps,
        # whose output then sits at level 0
        params = scheme.param_gen(128, request.param, 11, 40, allow_insecure=True)
        return scheme.keygen(params, np.random.default_rng(request.param))

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("iters", range(1, 6))
    def test_matches_the_unfolded_path(self, keys, monkeypatch, classes, iters):
        cfg = approx.SoftmaxConfig(class_count=classes, inv_iterations=iters)
        monkeypatch.setattr(approx.SoftmaxConfig, "head_fit", no_fit)
        n = keys.scheme.slot_capacity
        rng = np.random.default_rng([classes, iters, n])
        if classes == 2:
            y = rng.uniform(-2, 2, n)
            y = np.column_stack((y, -y))
        else:
            y = centered(rng.uniform(-1.5, 1.5, (n, classes)))
        cts = [enc(keys, y[:, i], rng) for i in range(classes)]
        counts = count_key_switches(monkeypatch)
        fast = approx.encrypted_soft_argmax(cts, cfg, keys.evk)
        # the exp fits' switches and divisions (4 and 6 each), the first
        # Newton step's two rescales, and one switch and division per
        # product: the index product and two a later step. With the
        # linear layer's three logit rescales, five steps make a
        # three-class forward pass's 21 and 32
        per_head = {
            "switch": 4 * classes + 2 * iters - 1,
            "divide": 6 * classes + 2 * iters + 1,
        }
        assert counts == per_head
        counts.update(switch=0, divide=0)
        slow = unfolded_soft_argmax(cts, cfg, keys.evk)
        assert counts == per_head
        depth = approx.poly_eval_depth(cfg.exp_degree)
        assert fast.level == cts[0].level - (depth + iters + 1)
        assert slow.level == cts[0].level - (depth + approx.reciprocal_depth(iters) + 1)
        # the circuit both evaluate, in plaintext: the exp fit's index
        # sum times the Newton iterate of its slot sum
        e = cfg.exp_approx()(y)
        inv = approx.newton_reciprocal_plain(e.sum(axis=1), cfg.sum_interval()[1], iters)
        want = (e @ np.arange(1.0, classes + 1.0)) * inv
        for out in (fast, slow):
            assert scheme.noise_measure(keys.sk, out, want) <= out.noise_bits
        assert within_ledgers(keys, fast, slow)


def two_class_composite(cfg, y):
    """The exp/Newton circuit at logits (y, -y) in plaintext: (soft-argmax,
    sigma_1, sigma_2), what the fits approximate."""
    e = cfg.exp_approx()(np.column_stack((y, -y)))
    inv = approx.newton_reciprocal_plain(e.sum(axis=1), cfg.sum_interval()[1], cfg.inv_iterations)
    sig = e * inv[:, None]
    return sig @ np.array([1.0, 2.0]), sig[:, 0], sig[:, 1]


class TestTwoClassFit:
    """The two-class head as one fit of its exp/Newton composite, against
    that circuit run per class, on N = 32 and N = 1024 rings deep enough
    for both (depth 11), and in plaintext."""

    @pytest.fixture(scope="class", params=[16, 512], ids=["n32", "n1024"])
    def keys(self, request):
        params = scheme.param_gen(128, request.param, 11, 40, allow_insecure=True)
        return scheme.keygen(params, np.random.default_rng(request.param + 1))

    @pytest.mark.parametrize("iters", range(1, 6))
    def test_matches_the_exp_newton_circuit(self, keys, monkeypatch, iters):
        cfg = approx.SoftmaxConfig(inv_iterations=iters)
        n = keys.scheme.slot_capacity
        rng = np.random.default_rng([2, iters, n])
        y = rng.uniform(-2, 2, n)
        cts = [enc(keys, y, rng), enc(keys, -y, rng)]
        counts = count_key_switches(monkeypatch)
        fast = [approx.encrypted_soft_argmax(cts, cfg, keys.evk, probe_key=keys.sk)]
        # forming u is one division; the fit's power tree, y^3 and sums
        # take 8 switches and 12, so a forward pass, whose linear layer
        # forms u, takes 8 and 13
        assert counts == {"switch": 8, "divide": 13}
        fast += approx.encrypted_softmax(cts, cfg, keys.evk)
        assert [out.level for out in fast] == [cts[0].level - 6] * 3
        monkeypatch.setattr(approx.SoftmaxConfig, "head_fit", no_fit)
        slow = [approx.encrypted_soft_argmax(cts, cfg, keys.evk)]
        slow += approx.encrypted_softmax(cts, cfg, keys.evk)
        # the fast outputs' ledgers carry the fits' sup errors against
        # the composite
        for f, s, want in zip(fast, slow, two_class_composite(cfg, y)):
            assert within_ledgers(keys, f, s)
            for out in (f, s):
                assert scheme.noise_measure(keys.sk, out, want) <= out.noise_bits

    def test_a_forward_pass_takes_8_switches_and_13_divisions(self, keys, monkeypatch):
        n = keys.scheme.slot_capacity
        rng = np.random.default_rng(96)
        model = neural.LinearModel(rng.normal(0, 0.3, (3, 2)), rng.normal(0, 0.1, 2))
        cts = neural.encrypt_features(keys.pk, rng.uniform(-1, 1, (n, 3)), rng)
        counts = count_key_switches(monkeypatch)
        out = neural.forward_encrypted(model, neural.SoftArgmaxHead(1.1, 2), cts, keys.evk)
        assert counts == {"switch": 8, "divide": 13}
        assert out.level == keys.scheme.max_level - 6

    def test_fit_matches_the_composite_on_a_dense_grid(self):
        cfg = approx.SoftmaxConfig()
        width = cfg.fit_width()
        assert width == 2.5
        y = np.linspace(-width, width, 40001)
        for fit, want in zip((cfg.head_fit(), cfg.head_fit(0.0)), two_class_composite(cfg, y)):
            assert fit.degree == 27 and fit.radius == 1.0
            err = np.max(np.abs(fit(y / width) - want))
            assert err <= fit.sup_error * 1.01 and fit.sup_error < 1e-7
        truth = neural.soft_argmax_value(np.column_stack((y, -y)), 1.0)
        inside = np.abs(y) <= cfg.radius
        assert np.max(np.abs(cfg.head_fit()(y / width) - truth)[inside]) < 1e-4

    def test_out_of_domain_no_worse_than_the_circuit(self):
        # on r <= |y| <= 1.25 r the fit tracks the circuit it replaces
        cfg = approx.SoftmaxConfig()
        r, width = cfg.radius, cfg.fit_width()
        y = np.concatenate((np.linspace(-width, -r, 2001), np.linspace(r, width, 2001)))
        truth = neural.soft_argmax_value(np.column_stack((y, -y)), 1.0)
        circuit = np.abs(two_class_composite(cfg, y)[0] - truth)
        fitted = np.abs(cfg.head_fit()(y / width) - truth)
        assert np.all(fitted <= circuit + 1e-4)

    def test_wide_radius_keeps_the_exp_newton_circuit(self):
        # Newton from 1/hi diverges short of 1.25 r = 3.75; the degree-9
        # exp fit takes 4 levels
        cfg = approx.SoftmaxConfig(radius=3.0, exp_degree=9)
        assert cfg.head_fit() is None and cfg.head_fit(0.0) is None
        assert approx.SoftmaxConfig(class_count=3).head_fit() is None
        assert neural.pipeline_depth(cfg) == 12

    def test_cold_derivation_is_cheap(self):
        cfg = approx.SoftmaxConfig()
        cfg.exp_approx()

        def cold():
            approx.build_head_fit.cache_clear()
            cfg.head_fit()

        assert min(timeit.repeat(cold, number=1, repeat=20)) <= 1.5e-3

    def test_probe_key_checks_u(self, head_keys, rng):
        # |u| <= 1 / 1.25: a logit past the radius is refused from the
        # probe's u as from the logits themselves
        k = head_keys.scheme.slot_capacity
        model = neural.LinearModel(np.array([[1.0, -1.0]]), np.zeros(2))
        head = neural.SoftArgmaxHead(1.0, 2)
        for y, ok in ((1.99, True), (2.05, False)):
            cts = neural.encrypt_features(head_keys.pk, np.full((k, 1), y), rng)
            if ok:
                neural.forward_encrypted(model, head, cts, head_keys.evk, probe_key=head_keys.sk)
            else:
                with pytest.raises(DomainViolation, match="outside"):
                    neural.forward_encrypted(
                        model, head, cts, head_keys.evk, probe_key=head_keys.sk
                    )


class TestDepthBookkeeping:
    def test_default_head_depth_is_fixed_constant(self):
        # two classes: u, then the degree-27 fit; three: the exp/Newton
        # circuit
        cfg = approx.SoftmaxConfig()
        assert approx.poly_eval_depth(cfg.exp_degree) == 3
        assert approx.softmax_depth(cfg) == 6
        assert approx.soft_argmax_min_levels(cfg) == 7
        assert neural.pipeline_depth(cfg) == 7
        cfg = approx.SoftmaxConfig(class_count=3)
        assert approx.softmax_depth(cfg) == 10
        assert approx.soft_argmax_min_levels(cfg) == 10
        assert neural.pipeline_depth(cfg) == 11

    @pytest.mark.parametrize("degree", range(1, 16))
    def test_poly_eval_consumes_declared_depth(self, head_keys, rng, degree):
        # the closed form max(1, ceil(log2(d + 1))) is what the tree spends
        assert approx.poly_eval_depth(degree) == max(1, math.ceil(math.log2(degree + 1)))
        fit = approx.build_exp_approx(2.0, degree, tol=None)
        ct = enc(head_keys, rng.uniform(-2, 2, 8), rng)
        out = approx.eval_poly_encrypted(ct, fit, head_keys.evk)
        assert out.level == ct.level - approx.poly_eval_depth(degree)

    def test_softmax_consumes_exactly_declared_depth(self, head_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = head_keys.scheme.slot_capacity
        cts = [enc(head_keys, np.zeros(k), rng) for _ in range(2)]
        sig = approx.encrypted_softmax(cts, cfg, head_keys.evk)
        assert cts[0].level - sig[0].level == approx.softmax_depth(cfg)

    def test_insufficient_levels_rejected(self, small_keys, rng):
        cfg = approx.SoftmaxConfig()
        k = small_keys.scheme.slot_capacity
        cts = [enc(small_keys, np.zeros(k), rng) for _ in range(2)]
        with pytest.raises(LevelExhausted):
            approx.encrypted_softmax(cts, cfg, small_keys.evk)
