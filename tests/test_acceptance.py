"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report inline. Criteria that exercise homomorphic add/mult run on
table-compliant 128-bit parameter sets; the deep soft-argmax pipelines
run on reduced-degree rings with allow_insecure set (the chain a
depth-15 circuit needs at 128-bit security wants N = 32768, which only
changes slot count and speed, not the arithmetic being checked).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from hnn import approx, encoding, neural, ring, scheme

from helpers import poly_mul, reference_softmax, schoolbook_mul


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def encrypt_vec(keys, values, rng, scale=None):
    params = keys.scheme
    pt = encoding.encode(values, scale or params.scale, params.ring)
    return scheme.encrypt(keys.pk, pt, rng)


def test_homomorphic_addition_bound():
    with criterion("homomorphic-addition"):
        params = scheme.param_gen(128, 512, 1, scale_bits=40)
        assert params.ring.ring_degree == 4096  # secure per the table
        keys = scheme.keygen(params, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        k = params.slot_capacity

        # confirm the bound with the ledger before freezing it: the
        # estimated post-add noise must stay inside 1e-5 * scale
        predicted = params.fresh_noise_bits() + 1.0
        assert 2.0 ** predicted / params.scale < 1e-5

        start = time.monotonic()
        worst = 0.0
        for _ in range(1000):
            u = rng.uniform(-1, 1, k)
            v = rng.uniform(-1, 1, k)
            total = scheme.add(
                encrypt_vec(keys, u, rng), encrypt_vec(keys, v, rng)
            )
            got = scheme.decrypt_to_slots(keys.sk, total)[:k]
            worst = max(worst, float(np.max(np.abs(got - (u + v)))))
        elapsed = time.monotonic() - start
        print(f"add: max error {worst:.3e} over 1000 pairs, {elapsed:.1f}s")
        assert worst < 1e-5
        assert elapsed < 60.0


def test_homomorphic_multiplication_bound():
    with criterion("homomorphic-multiplication"):
        # depth 2: the pre-rescale product carries its noise at scale^2,
        # which the budget of a minimal 2-prime chain cannot host
        params = scheme.param_gen(128, 512, 2, scale_bits=40)
        assert params.ring.ring_degree == 8192
        keys = scheme.keygen(params, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        k = params.slot_capacity
        worst = 0.0
        for _ in range(1000):
            u = rng.uniform(-1, 1, k)
            v = rng.uniform(-1, 1, k)
            prod = scheme.rescale(
                scheme.mult(
                    encrypt_vec(keys, u, rng), encrypt_vec(keys, v, rng), keys.evk
                )
            )
            got = scheme.decrypt_to_slots(keys.sk, prod)[:k]
            worst = max(worst, float(np.max(np.abs(got - u * v))))
        print(f"mult+rescale: max error {worst:.3e} over 1000 pairs")
        assert worst < 1e-4


def test_ntt_equals_schoolbook_bit_exact():
    with criterion("ntt-vs-schoolbook"):
        rng = np.random.default_rng(5)
        for n in (8, 64, 256):
            params = ring.RingParams(n, ring.find_ntt_primes(n, [42, 41]))
            for _ in range(200):
                a_res = np.stack(
                    [
                        rng.integers(0, q, n, dtype=np.uint64)
                        for q in params.moduli
                    ]
                )
                b_res = np.stack(
                    [
                        rng.integers(0, q, n, dtype=np.uint64)
                        for q in params.moduli
                    ]
                )
                a = ring.RingElement(params, 1, a_res, ring.Domain.COEFFICIENT)
                b = ring.RingElement(params, 1, b_res, ring.Domain.COEFFICIENT)
                assert np.array_equal(
                    poly_mul(a, b).residues,
                    schoolbook_mul(a, b).residues,
                )
        print("ntt mult == schoolbook for N in {8, 64, 256}, 200 pairs each")


def test_encode_decode_roundtrip_bound():
    with criterion("encode-decode-roundtrip"):
        params = scheme.param_gen(128, 2048, 0, scale_bits=40)
        rng = np.random.default_rng(6)
        n_half = params.ring.ring_degree // 2
        worst = 0.0
        for _ in range(300):
            v = rng.uniform(-1, 1, n_half)
            pt = encoding.encode(v, params.scale, params.ring)
            back = encoding.decode(pt)
            worst = max(worst, float(np.max(np.abs(back - v))))
        print(f"encode/decode: max error {worst:.3e} = 2^{math.log2(worst):.1f}")
        assert worst < 2.0 ** -20


@pytest.fixture(scope="module")
def softmax_ring():
    cfg = approx.SoftmaxConfig()
    depth = neural.pipeline_depth(cfg)
    params = scheme.param_gen(128, 1000, depth, scale_bits=40, allow_insecure=True)
    keys = scheme.keygen(params, np.random.default_rng(7))
    return cfg, params, keys


def test_encrypted_softmax_linf(softmax_ring):
    with criterion("encrypted-softmax"):
        cfg, params, keys = softmax_ring
        rng = np.random.default_rng(8)
        m = 1000
        logits = rng.uniform(-cfg.radius, cfg.radius, (m, 2))
        # the head takes class-mean-centered logits; softmax is
        # shift-invariant, so the reference is unchanged
        y = logits - logits.mean(axis=1, keepdims=True)
        cts = [encrypt_vec(keys, y[:, i], rng) for i in range(2)]
        sig = approx.encrypted_softmax(cts, cfg, keys.evk)
        got = np.stack(
            [scheme.decrypt_to_slots(keys.sk, s)[:m] for s in sig], axis=1
        )
        linf = float(np.max(np.abs(got - reference_softmax(logits))))
        print(f"softmax L_inf over {m} random in-domain vectors: {linf:.3e}")
        assert linf <= 1e-3


def test_soft_argmax_uniform_limit(softmax_ring):
    with criterion("soft-argmax-uniform-limit"):
        cfg, params, keys = softmax_ring
        hot = approx.SoftmaxConfig(
            temperature=1e6,
            class_count=cfg.class_count,
            radius=cfg.radius,
            exp_degree=cfg.exp_degree,
            inv_iterations=cfg.inv_iterations,
        )
        rng = np.random.default_rng(9)
        m = 1000
        logits = rng.uniform(-cfg.radius, cfg.radius, (m, 2))
        # identity probe: the encrypted path folds T into its weights
        model = neural.LinearModel(np.eye(2), np.zeros(2))
        head = neural.SoftArgmaxHead(hot.temperature, 2)
        cts = neural.encrypt_features(keys.pk, logits, rng)
        out = scheme.decrypt_to_slots(
            keys.sk, neural.forward_encrypted(model, head, cts, keys.evk, hot)
        )[:m]
        dev = float(np.max(np.abs(out - 1.5)))
        print(f"T=1e6 soft-argmax deviation from (n+1)/2: {dev:.3e}")
        assert dev < 1e-3


def test_gradient_fidelity():
    with criterion("gradient-fidelity"):
        from helpers import central_difference

        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            z = rng.normal(0, 2, n)
            t = float(rng.uniform(0.3, 5.0))
            grad_z, grad_t = neural.soft_argmax_backward(z, t)
            fd_z = central_difference(lambda zz: neural.soft_argmax_value(zz, t), z)
            rel = np.max(np.abs(grad_z - fd_z) / np.maximum(np.abs(fd_z), 1e-6))
            fd_t = (
                neural.soft_argmax_value(z, t + 1e-5)
                - neural.soft_argmax_value(z, t - 1e-5)
            ) / 2e-5
            rel_t = abs(grad_t - fd_t) / max(abs(fd_t), 1e-6)
            worst = max(worst, float(rel), float(rel_t))
        print(f"gradient vs central differences: worst relative {worst:.2e}")
        assert worst < 1e-4


def test_calibration_recovers_scale():
    with criterion("temperature-calibration"):
        for s, tol in ((1.0, 0.05), (2.0, 0.1)):
            rng = np.random.default_rng(11)
            z = rng.normal(0.0, 1.5, (40_000, 2))
            p = reference_softmax(z)
            labels = (rng.uniform(0, 1, len(z)) < p[:, 1]).astype(int)
            model = neural.LinearModel(np.eye(2) * s, np.zeros(2))
            head = neural.calibrate_temperature(
                model,
                neural.SoftArgmaxHead(1.0, 2),
                neural.Dataset(z, labels),
                min_temperature=0.25,
            )
            print(f"calibration: scale {s} recovered as T={head.temperature:.4f}")
            assert abs(head.temperature - s) < tol


@pytest.fixture(scope="module")
def toy_pipeline():
    """Train, calibrate, and run the 512-sample encrypted test set once."""
    rng = np.random.default_rng(12)
    d_in = 64
    data = neural.two_blob_dataset(1024, d_in, rng)
    train = neural.Dataset(data.features[:512], data.labels[:512])
    test = neural.Dataset(data.features[512:], data.labels[512:])

    start = time.monotonic()
    cfg_train = neural.TrainConfig(
        learning_rate=0.1,
        epochs=80,
        noise_std=1e-7,  # matched to measured scheme noise below
        logit_radius=1.6,
        range_penalty_weight=10.0,
    )
    head = neural.SoftArgmaxHead(1.0, 2)
    model, _ = neural.train_noise_injection(
        neural.LinearModel.zeros(d_in, 2), head, train, cfg_train, rng
    )
    head = neural.calibrate_temperature(model, head, train)

    cfg = neural.head_config(head)
    params = scheme.param_gen(
        128, 512, neural.pipeline_depth(cfg), scale_bits=40, allow_insecure=True
    )
    keys = scheme.keygen(params, np.random.default_rng(13))
    feature_cts = neural.encrypt_features(keys.pk, test.features, rng)
    sa_ct = neural.forward_encrypted(model, head, feature_cts, keys.evk, cfg)
    scores = scheme.decrypt_to_slots(keys.sk, sa_ct)[: len(test)]
    elapsed = time.monotonic() - start
    return model, head, test, scores, elapsed


def test_end_to_end_agreement(toy_pipeline):
    with criterion("end-to-end-agreement"):
        model, head, test, scores, elapsed = toy_pipeline
        plain_pred = model.logits(test.features).argmax(axis=1)
        enc_pred = neural.scores_to_classes(scores, 2)
        agreement = float(np.mean(enc_pred == plain_pred))
        print(
            f"end-to-end: {agreement * 100:.2f}% class agreement on "
            f"{len(test)} samples in {elapsed:.1f}s"
        )
        assert agreement >= 0.99
        assert elapsed < 600.0


def test_noise_ledger_soundness(small_keys):
    with criterion("noise-ledger-soundness"):
        params = small_keys.scheme
        k = params.slot_capacity
        rng = np.random.default_rng(14)
        violations = 0
        trials = 10_000
        for _ in range(trials):
            u = rng.uniform(-1, 1, k)
            v = rng.uniform(-1, 1, k)
            ct = encrypt_vec(small_keys, u, rng)
            vals = u.copy()
            for op in rng.integers(0, 3, int(rng.integers(1, 4))):
                if op == 0:
                    other = encrypt_vec(small_keys, v, rng, scale=ct.scale)
                    ct = scheme.add(ct, scheme.ct_drop_level(other, ct.level))
                    vals = vals + v
                elif op == 1:
                    other = encrypt_vec(small_keys, v, rng)
                    ct = scheme.rescale(
                        scheme.mult(
                            ct, scheme.ct_drop_level(other, ct.level), small_keys.evk
                        )
                    )
                    vals = vals * v
                else:
                    w = rng.uniform(-1, 1, k)
                    pt = encoding.encode(w, params.scale, params.ring, level=ct.level)
                    ct = scheme.rescale(scheme.mult_plain(ct, pt))
                    vals = vals * w
            if scheme.noise_measure(small_keys.sk, ct, vals) > ct.noise_bits:
                violations += 1
        rate = violations / trials
        print(f"ledger soundness: {violations}/{trials} violations ({rate:.2%})")
        assert rate <= 0.01


def test_budget_fires_before_corruption(small_keys):
    with criterion("budget-enforcement"):
        from hnn.errors import LevelExhausted, NoiseBudgetExceeded

        params = small_keys.scheme
        k = params.slot_capacity
        rng = np.random.default_rng(15)
        v = rng.uniform(0.5, 1.0, k)
        ct = encrypt_vec(small_keys, v, rng)
        vals = v.copy()
        raised = None
        for _ in range(10):
            try:
                ct = scheme.mult(ct, ct, small_keys.evk)
            except (NoiseBudgetExceeded, LevelExhausted) as exc:
                raised = exc
                break
            vals = vals * vals
            got = scheme.decrypt_to_slots(small_keys.sk, ct)[:k]
            assert np.max(np.abs(got - vals)) < 1e-3, "silent corruption"
        assert raised is not None
        print(f"budget enforcement: raised {type(raised).__name__} before corruption")


def test_reported_accuracy_ratio_statement(toy_pipeline):
    with criterion("paper-number-reproducibility"):
        model, head, test, scores, _ = toy_pipeline
        plain_pred = model.logits(test.features).argmax(axis=1)
        plain_acc = float(np.mean(plain_pred == test.labels))
        enc_metrics = neural.compute_metrics(scores, test.labels)
        ratio = enc_metrics["accuracy"] / plain_acc if plain_acc > 0 else float("nan")
        # The published transformer-scale accuracy and step-time numbers
        # need the pretrained backbone and GPUs; at desk scale this suite
        # reports the analogous encrypted/plain ratio next to the
        # published 82.5% figure without asserting it.
        print(
            "desk-scale report: plain accuracy "
            f"{plain_acc:.4f}, encrypted accuracy {enc_metrics['accuracy']:.4f}, "
            f"ratio {ratio * 100:.1f}% (published transformer-scale ratio: 82.5%; "
            "not comparable, not asserted)"
        )
        assert 0.0 < ratio <= 1.01
        assert math.isfinite(ratio)
