import dataclasses
import math

import numpy as np
import pytest

from hnn import encoding, neural, ring, scheme
from hnn.errors import (
    CryptoStateError,
    InsecureParameterError,
    LevelExhausted,
    NoiseBudgetExceeded,
    ParameterError,
    ScaleMismatch,
)

from helpers import (
    constant_plaintext,
    decrypt_three_part,
    encrypt_four_ntt,
    rescale_rows,
    tensor_no_relin,
)


def enc(keys, values, rng, scale=None):
    params = keys.scheme
    pt = encoding.encode(values, scale or params.scale, params.ring)
    return scheme.encrypt(keys.pk, pt, rng)


def dec(keys, ct, count):
    return scheme.decrypt_to_slots(keys.sk, ct)[:count]


class TestParamGen:
    def test_small_slot_shallow_depth_lands_on_2048(self):
        # the chain must fit the 128-bit table entry for N=2048
        params = scheme.param_gen(128, 4, 1)
        assert params.ring.ring_degree == 2048
        assert params.ring.total_bits() <= scheme.SECURITY_TABLE[128][2048]
        assert params.ring.level_count == 2

    def test_depth_zero_gives_single_prime(self):
        params = scheme.param_gen(128, 4, 0)
        assert params.ring.level_count == 1

    def test_impossible_demand_errors(self):
        with pytest.raises(ParameterError):
            scheme.param_gen(256, 4, 30)

    def test_every_generated_set_passes_embedded_table(self):
        for lam in (128, 192, 256):
            for depth in (0, 1, 2):
                try:
                    params = scheme.param_gen(lam, 8, depth)
                except ParameterError:
                    continue
                bound = scheme.SECURITY_TABLE[lam][params.ring.ring_degree]
                assert params.ring.total_bits() <= bound

    def test_insecure_rejected_without_override(self):
        moduli = ring.find_ntt_primes(32, [42, 41, 41])
        with pytest.raises(InsecureParameterError):
            scheme.SchemeParams(128, ring.RingParams(32, moduli), 2.0 ** 40, 16)

    def test_only_five_fields_are_set(self, small_params):
        init = [f.name for f in dataclasses.fields(scheme.SchemeParams) if f.init]
        assert init == [
            "security_level", "ring", "scale", "slot_capacity", "allow_insecure",
        ]
        with pytest.raises(ValueError, match="noise_budget_bits"):
            dataclasses.replace(small_params, noise_budget_bits=1e9)

    def test_derived_budget_matches_the_stored_one(self):
        # the N=1024 pipeline ring that version 1 parameter files stored
        # with noise_budget_bits = 484: 534 chain bits - 40 - 10
        cfg = neural.head_config(neural.SoftArgmaxHead())
        params = scheme.param_gen(
            128, 512, neural.pipeline_depth(cfg), 40, allow_insecure=True
        )
        assert params.ring.total_bits() == 534
        assert params.noise_budget_bits == 484.0

    def test_explicit_scale_bits_respected(self):
        params = scheme.param_gen(128, 64, 1, scale_bits=40)
        assert params.scale == 2.0 ** 40
        assert params.ring.ring_degree == 4096


class TestKeygen:
    def test_public_key_error_is_small(self, small_params):
        # b + a*s must equal the key error: all signed coefficients
        # below 6*err_std (structural via tail resampling), 100 seeds
        for seed in range(100):
            keys = scheme.keygen(small_params, np.random.default_rng(seed))
            e = ring.ring_add(
                keys.pk.b, ring.ring_mul(keys.pk.a, keys.sk.s)
            )
            signed, _ = ring.compose_signed(ring.ntt_inverse(e))
            worst = max(abs(int(v)) for v in signed)
            assert worst < 6 * scheme.ERR_STD

    @pytest.mark.parametrize("n", [32, 1024])
    def test_secret_has_two_thirds_weight(self, n):
        # floor(2N/3) entries of +-1: a uniform ternary draw's mean weight,
        # the distribution the security table is computed for
        params = scheme.param_gen(128, n // 2, 1, scale_bits=40, allow_insecure=True)
        assert params.ring.ring_degree == n
        keys = scheme.keygen(params, np.random.default_rng(5))
        signed, _ = ring.compose_signed(ring.ntt_inverse(keys.sk.s))
        coeffs = np.array([int(v) for v in signed])
        assert set(coeffs.tolist()) == {-1, 0, 1}
        assert np.count_nonzero(coeffs) == 2 * n // 3

    def test_seeds_distinguish_keys(self, small_params):
        k1 = scheme.keygen(small_params, np.random.default_rng(1))
        k2 = scheme.keygen(small_params, np.random.default_rng(2))
        k1b = scheme.keygen(small_params, np.random.default_rng(1))
        assert not np.array_equal(k1.pk.b.residues, k2.pk.b.residues)
        assert np.array_equal(k1.pk.b.residues, k1b.pk.b.residues)
        assert np.array_equal(k1.sk.s.residues, k1b.sk.s.residues)

    def test_relin_key_components_decrypt_to_masked_s2(self, small_keys):
        # b_j + a_j*s - s^2*e_j must be a small error polynomial, where
        # s^2*e_j is s^2's residue row j with every other row zero
        params = small_keys.scheme
        s = small_keys.sk.s
        s2 = ring.ring_mul(s, s)
        assert len(small_keys.evk.components) == params.ring.level_count
        for j, (b_j, a_j) in enumerate(small_keys.evk.components):
            masked = np.zeros_like(s2.residues)
            masked[j] = s2.residues[j]
            residual = ring.ring_sub(
                ring.ring_add(b_j, ring.ring_mul(a_j, s)), s2._like(masked)
            )
            signed, _ = ring.compose_signed(ring.ntt_inverse(residual))
            assert max(abs(int(v)) for v in signed) < 6 * scheme.ERR_STD


class TestEncryptDecrypt:
    def test_roundtrip_error_bound_1000_vectors(self, small_keys, rng):
        params = small_keys.scheme
        k = params.slot_capacity
        for _ in range(1000):
            v = rng.uniform(-1, 1, k)
            assert np.max(np.abs(dec(small_keys, enc(small_keys, v, rng), k) - v)) < 2.0 ** -20

    def test_zero_vector_decrypts_near_zero(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        ct = enc(small_keys, np.zeros(k), rng)
        assert np.max(np.abs(dec(small_keys, ct, k))) < 2.0 ** -20

    def test_encryption_is_randomized(self, small_keys, rng):
        v = np.full(small_keys.scheme.slot_capacity, 0.25)
        pt = encoding.encode(v, small_keys.scheme.scale, small_keys.scheme.ring)
        c1 = scheme.encrypt(small_keys.pk, pt, rng)
        c2 = scheme.encrypt(small_keys.pk, pt, rng)
        assert not np.array_equal(c1.parts[0].residues, c2.parts[0].residues)

    def test_thousand_encryptions_all_distinct(self, small_keys, rng):
        v = np.full(small_keys.scheme.slot_capacity, 0.5)
        pt = encoding.encode(v, small_keys.scheme.scale, small_keys.scheme.ring)
        seen = set()
        for _ in range(1000):
            ct = scheme.encrypt(small_keys.pk, pt, rng)
            seen.add(ct.parts[0].residues.tobytes())
        assert len(seen) == 1000

    def test_decrypt_deterministic(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        ct = enc(small_keys, rng.uniform(-1, 1, k), rng)
        first = dec(small_keys, ct, k)
        for _ in range(100):
            assert np.array_equal(dec(small_keys, ct, k), first)

    def test_encrypt_requires_top_level(self, small_keys, rng):
        params = small_keys.scheme
        pt = encoding.encode([0.5], params.scale, params.ring, level=0)
        with pytest.raises(ValueError):
            scheme.encrypt(small_keys.pk, pt, rng)

    @pytest.mark.parametrize(
        "kind, domain",
        [("encode", ring.Domain.COEFFICIENT), ("encode_constant", ring.Domain.EVALUATION)],
    )
    def test_encrypt_matches_four_ntt_reference(
        self, small_keys, monkeypatch, kind, domain
    ):
        # a Coefficient message is added to e0 before e0's NTT: the residues
        # of four NTTs in three; an Evaluation-domain message, which only a
        # hand-built Plaintext can hold (here the constant -0.75 at every
        # root), is rejected
        params = small_keys.scheme
        rp = params.ring
        if kind == "encode":
            values = np.linspace(-1.0, 1.0, params.slot_capacity)
            pt = encoding.encode(values, params.scale, rp)
        else:
            c0, _ = encoding.encode_constant(-0.75, params.scale)
            zero = ring.zero(rp, rp.max_level, ring.Domain.EVALUATION)
            poly = ring.scalar_add(zero, ring.constant_column(c0, rp, rp.max_level))
            pt = encoding.Plaintext(poly, params.scale)
        assert pt.poly.domain == domain
        if domain == ring.Domain.EVALUATION:
            with pytest.raises(ValueError):
                scheme.encrypt(small_keys.pk, pt, np.random.default_rng(41))
            return
        calls = []
        forward = ring.ntt_forward
        monkeypatch.setattr(ring, "ntt_forward", lambda a: calls.append(a) or forward(a))
        ct = scheme.encrypt(small_keys.pk, pt, np.random.default_rng(41))
        monkeypatch.undo()
        c0, c1 = encrypt_four_ntt(small_keys.pk, pt, np.random.default_rng(41))
        assert np.array_equal(ct.parts[0].residues, c0)
        assert np.array_equal(ct.parts[1].residues, c1)
        assert len(calls) == 3

    def test_three_part_decrypt(self, small_keys, rng):
        # the unrelinearized tensor exists only as a test oracle: it
        # decrypts under s^2, and no Ciphertext can hold its three parts
        k = small_keys.scheme.slot_capacity
        u, v = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
        cu, cv = enc(small_keys, u, rng), enc(small_keys, v, rng)
        tensor = tensor_no_relin(cu, cv)
        slots = decrypt_three_part(small_keys.sk, tensor, cu.scale * cv.scale)[:k]
        assert np.max(np.abs(slots - u * v)) < 2.0 ** -15
        with pytest.raises(ValueError):
            dataclasses.replace(cu, parts=tensor)


class TestAdd:
    def test_sum_within_twice_single_error(self, small_keys, rng):
        params = small_keys.scheme
        k = params.slot_capacity
        worst_single = 0.0
        worst_sum = 0.0
        for _ in range(100):
            u, v = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
            cu, cv = enc(small_keys, u, rng), enc(small_keys, v, rng)
            worst_single = max(
                worst_single,
                np.max(np.abs(dec(small_keys, cu, k) - u)),
                np.max(np.abs(dec(small_keys, cv, k) - v)),
            )
            worst_sum = max(
                worst_sum,
                np.max(np.abs(dec(small_keys, scheme.add(cu, cv), k) - (u + v))),
            )
        assert worst_sum <= 2 * worst_single

    def test_additive_identity(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        v = rng.uniform(-1, 1, k)
        ct = enc(small_keys, v, rng)
        zero_ct = enc(small_keys, np.zeros(k), rng)
        direct = dec(small_keys, ct, k)
        shifted = dec(small_keys, scheme.add(ct, zero_ct), k)
        assert np.max(np.abs(shifted - direct)) < 2.0 ** -20

    def test_commutes(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        cu = enc(small_keys, rng.uniform(-1, 1, k), rng)
        cv = enc(small_keys, rng.uniform(-1, 1, k), rng)
        ab = dec(small_keys, scheme.add(cu, cv), k)
        ba = dec(small_keys, scheme.add(cv, cu), k)
        assert np.array_equal(ab, ba)

    def test_scale_mismatch_rejected(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        a = enc(small_keys, np.zeros(k), rng)
        b = enc(small_keys, np.zeros(k), rng, scale=small_keys.scheme.scale * 2)
        with pytest.raises(ScaleMismatch):
            scheme.add(a, b)

    def test_level_mismatch_rejected(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        a = enc(small_keys, np.zeros(k), rng)
        b = scheme.ct_drop_level(enc(small_keys, np.zeros(k), rng), a.level - 1)
        with pytest.raises(ValueError):
            scheme.add(a, b)


class TestMultRescale:
    def test_product_error_bound(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        for _ in range(50):
            u, v = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
            ct = scheme.rescale(
                scheme.mult(enc(small_keys, u, rng), enc(small_keys, v, rng), small_keys.evk)
            )
            assert np.max(np.abs(dec(small_keys, ct, k) - u * v)) < 2.0 ** -15

    def test_multiplicative_identity(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        v = rng.uniform(-1, 1, k)
        ct = enc(small_keys, v, rng)
        ones = enc(small_keys, np.ones(k), rng)
        out = dec(small_keys, scheme.rescale(scheme.mult(ct, ones, small_keys.evk)), k)
        assert np.max(np.abs(out - v)) < 2.0 ** -15

    def test_matches_plaintext_oracle(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        for _ in range(100):
            u, v = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
            got = dec(
                small_keys,
                scheme.rescale(
                    scheme.mult(enc(small_keys, u, rng), enc(small_keys, v, rng), small_keys.evk)
                ),
                k,
            )
            assert np.max(np.abs(got - u * v)) < 2.0 ** -15

    def test_rescale_divides_scale_exactly(self, small_keys, rng):
        params = small_keys.scheme
        ct = enc(small_keys, np.full(params.slot_capacity, 0.5), rng)
        prod = scheme.mult(ct, ct, small_keys.evk)
        dropped_prime = params.ring.moduli[prod.level]
        out = scheme.rescale(prod)
        assert out.scale == prod.scale / dropped_prime
        assert out.level == prod.level - 1

    def test_values_stable_across_rescale(self, small_keys, rng):
        params = small_keys.scheme
        k = params.slot_capacity
        u, v = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
        prod = scheme.mult(enc(small_keys, u, rng), enc(small_keys, v, rng), small_keys.evk)
        before = scheme.decrypt_to_slots(small_keys.sk, prod)[:k]
        after = dec(small_keys, scheme.rescale(prod), k)
        assert np.max(np.abs(before - after)) < 2.0 ** -15

    def test_depth_two_square_chain(self, small_keys, rng):
        params = small_keys.scheme
        k = params.slot_capacity
        v = rng.uniform(-1, 1, k)
        ct = enc(small_keys, v, rng)
        sq = scheme.rescale(scheme.mult(ct, ct, small_keys.evk))
        sq2 = scheme.rescale(scheme.mult(sq, sq, small_keys.evk))
        assert np.max(np.abs(dec(small_keys, sq2, k) - v ** 4)) < 2.0 ** -12

    def test_rescale_matches_per_row_reference(self, small_keys, head_keys, rng):
        for keys in (small_keys, head_keys):
            k = keys.scheme.slot_capacity
            ct = enc(keys, rng.uniform(-1, 1, k), rng)
            for _ in range(3):
                prod = scheme.mult(ct, ct, keys.evk)
                expect = rescale_rows(prod)
                ct = scheme.rescale(prod)
                for part, rows in zip(ct.parts, expect):
                    assert np.array_equal(ring.ntt_inverse(part).residues, rows)

    def test_relinearized_matches_three_part_decrypt_every_level(
        self, small_keys, rng
    ):
        # the CRT-gadget key switch may move the decryption by at most
        # the ledger's relinearization charge
        params = small_keys.scheme
        k = params.slot_capacity
        top_u = enc(small_keys, rng.uniform(-1, 1, k), rng)
        top_v = enc(small_keys, rng.uniform(-1, 1, k), rng)
        for level in range(params.max_level, 0, -1):
            u = scheme.ct_drop_level(top_u, level)
            v = scheme.ct_drop_level(top_v, level)
            relin = scheme.mult(u, v, small_keys.evk)
            tensor = tensor_no_relin(u, v)
            diff = np.max(
                np.abs(
                    scheme.decrypt_to_slots(small_keys.sk, relin)
                    - decrypt_three_part(small_keys.sk, tensor, relin.scale)
                )
            )
            assert diff <= 2.0 ** params.relin_noise_bits(level) / relin.scale

    def test_rescale_at_level_zero_rejected(self, small_keys, rng):
        ct = enc(small_keys, np.zeros(small_keys.scheme.slot_capacity), rng)
        bottom = scheme.ct_drop_level(ct, 0)
        with pytest.raises(LevelExhausted):
            scheme.rescale(bottom)


class TestPlainOps:
    def test_add_plain(self, small_keys, rng):
        params = small_keys.scheme
        k = params.slot_capacity
        v = rng.uniform(-1, 1, k)
        w = rng.uniform(-1, 1, k)
        ct = enc(small_keys, v, rng)
        pt = encoding.encode(w, ct.scale, params.ring)
        out = dec(small_keys, scheme.add_plain(ct, pt), k)
        assert np.max(np.abs(out - (v + w))) < 2.0 ** -19

    def test_mult_plain(self, small_keys, rng):
        params = small_keys.scheme
        k = params.slot_capacity
        v = rng.uniform(-1, 1, k)
        w = rng.uniform(-1, 1, k)
        ct = enc(small_keys, v, rng)
        pt = encoding.encode(w, params.scale, params.ring)
        out = dec(small_keys, scheme.rescale(scheme.mult_plain(ct, pt)), k)
        assert np.max(np.abs(out - v * w)) < 2.0 ** -15


class TestConstOps:
    """mult_const and add_const against mult_plain and add_plain fed the
    constant polynomial, whose NTT is the N-wide block of c0 mod q_j."""

    VALUES = [0.75, -1.3, 0.0, -2.0 ** 20, 3.0e6]

    @staticmethod
    def _ct(params, level):
        # uniform parts and a ledger with room for every product below
        rng = np.random.default_rng(level)
        return scheme.Ciphertext(
            scheme=params,
            parts=tuple(ring.sample_uniform(params.ring, level, rng) for _ in range(2)),
            level=level,
            scale=2.0 ** 10,
            noise_bits=3.0,
            value_bound=2.0 ** -4,
        )

    @staticmethod
    def _same(got, want):
        for g, w in zip(got.parts, want.parts):
            assert np.array_equal(g.residues, w.residues)
        assert (got.level, got.scale, got.noise_bits, got.value_bound) == (
            want.level, want.scale, want.noise_bits, want.value_bound
        )

    @pytest.mark.parametrize("value", VALUES)
    def test_mult_const_equals_mult_plain(self, small_params, value):
        for level in (0, 2, small_params.max_level):
            ct = self._ct(small_params, level)
            pt = constant_plaintext(value, 2.0 ** 10, small_params.ring, level)
            self._same(
                scheme.mult_const(ct, value, 2.0 ** 10), scheme.mult_plain(ct, pt)
            )

    @pytest.mark.parametrize("value", VALUES)
    def test_add_const_equals_add_plain(self, small_params, value):
        for level in (0, 2, small_params.max_level):
            ct = self._ct(small_params, level)
            pt = constant_plaintext(value, ct.scale, small_params.ring, level)
            self._same(scheme.add_const(ct, value), scheme.add_plain(ct, pt))


class TestWeightedSums:
    """weighted_sums against the path it replaces, tree_sum over the
    mult_consts of each column, on the 13-prime N = 1024 chain: the same
    residues and ledgers, or the same error."""

    SCALE = 2.0 ** 10  # weight scale; with 2^16 inputs a 256-term sum fits level 0

    @pytest.fixture(scope="class")
    def params(self):
        params = scheme.param_gen(128, 512, 12, 40, allow_insecure=True)
        assert params.ring.level_count == 13 and params.ring.ring_degree == 1024
        return params

    @pytest.fixture(scope="class")
    def top_cts(self, params):
        # uniform parts, distinct ledgers, scales apart by less than the
        # tolerance, so that every term's ledger and the result's scale count
        rng = np.random.default_rng(31)
        lv = params.max_level
        return [
            scheme.Ciphertext(
                scheme=params,
                parts=tuple(ring.sample_uniform(params.ring, lv, rng) for _ in range(2)),
                level=lv,
                scale=2.0 ** 16 * (1.0 + k * 2.0 ** -40),
                noise_bits=float(rng.uniform(4.0, 12.0)) if k % 5 else -math.inf,
                value_bound=float(rng.uniform(0.25, 2.0)),
            )
            for k in range(256)
        ]

    @staticmethod
    def _reference(cts, weights, scale):
        """tree_sum of mult_consts per column, or the exception it raises."""
        try:
            return [
                scheme.tree_sum(
                    scheme.mult_const(ct, float(w), scale)
                    for ct, w in zip(cts, weights[:, c])
                )
                for c in range(weights.shape[1])
            ]
        except (ValueError, CryptoStateError) as exc:
            return exc

    def _check(self, cts, weights, scale=SCALE):
        want = self._reference(cts, weights, scale)
        if isinstance(want, Exception):
            with pytest.raises(type(want)):
                scheme.weighted_sums(cts, weights, scale)
            return want
        got = scheme.weighted_sums(cts, weights, scale)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            TestConstOps._same(g, w)
        return got

    @staticmethod
    def _weights(rng, d, c):
        w = rng.normal(0.0, 1.0, (d, c))
        w.flat[::5], w.flat[1::5], w.flat[2::5] = 0.0, 1.0, -1.0
        return w

    @pytest.mark.parametrize("d", [1, 2, 64, 256])
    def test_matches_tree_sum_of_mult_const_every_level(self, params, top_cts, d):
        rng = np.random.default_rng(d)
        for level in range(params.ring.level_count):
            cts = [scheme.ct_drop_level(ct, level) for ct in top_cts[:d]]
            for c in (1, 2, 3):
                got = self._check(cts, self._weights(rng, d, c))
                assert not isinstance(got, Exception)

    def test_weights_near_the_encoding_cap(self, params, top_cts):
        # the largest weights encode_constant takes wrap the low levels,
        # where both paths raise NoiseBudgetExceeded, and sum exactly above
        cap = encoding.MAX_COEFF / self.SCALE
        w = np.array([[cap * (1 - 2.0 ** -40), 0.0], [-cap / 2, 1.0], [1.0, -cap / 3]])
        outcomes = []
        for level in range(params.ring.level_count):
            cts = [scheme.ct_drop_level(ct, level) for ct in top_cts[:3]]
            outcomes.append(type(self._check(cts, w)))
        assert outcomes[0] is NoiseBudgetExceeded and outcomes[-1] is list
        with pytest.raises(ValueError, match="exceeds exact integer range"):
            scheme.weighted_sums(top_cts[:1], np.array([[cap]]), self.SCALE)

    def test_errors_match_the_per_term_path(self, params, small_params, top_cts):
        cts = top_cts[:4]
        w = np.ones((4, 2))
        other = scheme.Ciphertext(
            small_params, tuple(ring.zero(small_params.ring, 2, ring.Domain.EVALUATION)
                                for _ in range(2)), 2, cts[0].scale, 0.0, 1.0,
        )
        cases = [
            (cts[:3] + [scheme.ct_drop_level(cts[3], 5)], w, ValueError, "level"),
            (cts[:3] + [dataclasses.replace(cts[3], scale=2.0 ** 17)], w,
             ScaleMismatch, "scales"),
            ([scheme.ct_drop_level(ct, 2) for ct in cts[:3]] + [other], w,
             ValueError, "scheme parameter mismatch"),
            (cts, np.where(np.eye(4, 2) > 0, np.nan, 1.0), ValueError, "finite"),
            (cts[:3] + [dataclasses.replace(cts[3], noise_bits=params.noise_budget_bits)],
             w, NoiseBudgetExceeded, "budget"),
        ]
        for terms, weights, exc, match in cases:
            assert isinstance(self._reference(terms, weights, self.SCALE), exc)
            with pytest.raises(exc, match=match):
                scheme.weighted_sums(terms, weights, self.SCALE)
        with pytest.raises(ValueError, match="empty sum"):
            scheme.tree_sum([])
        with pytest.raises(ValueError, match="empty sum"):
            scheme.weighted_sums([], np.zeros((0, 2)), self.SCALE)
        for bad in (np.ones((3, 2)), np.ones(4), np.ones((4, 2, 1))):
            with pytest.raises(ValueError, match="weights of shape"):
                scheme.weighted_sums(cts, bad, self.SCALE)

    def test_too_many_terms_rejected_before_any_work(self, top_cts):
        n = ring.MAX_SUM_TERMS + 1
        weights = np.broadcast_to(np.zeros((1, 1)), (n, 1))
        with pytest.raises(ValueError, match="exceed"):
            scheme.weighted_sums([top_cts[0]] * n, weights, self.SCALE)


class TestNoiseLedger:
    def test_fresh_measured_below_estimate(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        v = rng.uniform(-1, 1, k)
        ct = enc(small_keys, v, rng)
        assert scheme.noise_measure(small_keys.sk, ct, v) <= ct.noise_bits

    def test_chained_adds_measured_below_estimate(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        v = rng.uniform(-0.05, 0.05, k)
        ct = enc(small_keys, v, rng)
        total_v = v.copy()
        total = ct
        for _ in range(10):
            other_v = rng.uniform(-0.05, 0.05, k)
            total = scheme.add(total, enc(small_keys, other_v, rng))
            total_v += other_v
        assert scheme.noise_measure(small_keys.sk, total, total_v) <= total.noise_bits

    def test_exact_zero_gives_minus_infinity(self, small_keys):
        # all-zero ciphertext without error injection decrypts exactly
        params = small_keys.scheme
        z = ring.ntt_forward(ring.zero(params.ring, params.max_level))
        ct = scheme.Ciphertext(
            scheme=params,
            parts=(z, z),
            level=params.max_level,
            scale=params.scale,
            noise_bits=-math.inf,
            value_bound=0.0,
        )
        k = params.slot_capacity
        assert scheme.noise_measure(small_keys.sk, ct, np.zeros(k)) == -math.inf

    def test_budget_error_fires_before_corruption(self, small_keys, rng):
        # keep squaring without rescaling: scale explodes quadratically;
        # the ledger must raise while every accepted state still decrypts
        params = small_keys.scheme
        k = params.slot_capacity
        v = rng.uniform(0.5, 1.0, k)
        ct = enc(small_keys, v, rng)
        vals = v.copy()
        raised = False
        for _ in range(8):
            try:
                ct = scheme.mult(ct, ct, small_keys.evk)
            except (NoiseBudgetExceeded, LevelExhausted):
                raised = True
                break
            vals = vals * vals
            got = scheme.decrypt_to_slots(small_keys.sk, ct)[:k]
            assert np.max(np.abs(got - vals)) < 1e-3, "silent corruption"
        assert raised

    @pytest.mark.parametrize("field", ["noise_bits", "value_bound", "scale"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ledger_rejected(self, small_keys, rng, field, bad):
        # NaN compares false against every guard; it must not slip through,
        # so no ciphertext holding it can be built
        ct = enc(small_keys, rng.uniform(-1, 1, 4), rng)
        with pytest.raises(NoiseBudgetExceeded):
            dataclasses.replace(ct, **{field: bad})

    def test_over_budget_or_wrapping_ledger_rejected(self, small_keys, rng):
        ct = enc(small_keys, rng.uniform(-1, 1, 4), rng)
        budget = ct.scheme.noise_budget_bits
        assert dataclasses.replace(ct, noise_bits=budget).noise_bits == budget
        with pytest.raises(NoiseBudgetExceeded):
            dataclasses.replace(ct, noise_bits=budget + 0.5)
        wrap = 2.0 ** ct.scheme.log2_modulus(ct.level) / ct.scale
        with pytest.raises(NoiseBudgetExceeded):
            dataclasses.replace(ct, value_bound=wrap)

    def test_budget_exceeded_on_tiny_budget(self, rng):
        # a depth-0 chain gets the floor budget, fresh noise + 6 bits, so
        # doubling a fresh ciphertext seven times runs past it
        params = scheme.param_gen(128, 16, 0, scale_bits=20, allow_insecure=True)
        assert params.noise_budget_bits == params.fresh_noise_bits() + 6.0
        keys = scheme.keygen(params, np.random.default_rng(0))
        pt = encoding.encode(np.zeros(16), params.scale, params.ring)
        ct = scheme.encrypt(keys.pk, pt, rng)
        with pytest.raises(NoiseBudgetExceeded, match="exceeds budget"):
            for _ in range(7):
                ct = scheme.add(ct, ct)


class TestHomomorphismProperty:
    def test_random_shallow_circuits_match_plaintext(self, small_keys, rng):
        # random circuits of depth <= 3 from add/mult/mult_plain/rescale
        params = small_keys.scheme
        k = params.slot_capacity
        for _ in range(25):
            u, v = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
            cu = enc(small_keys, u, rng)
            ops = rng.integers(0, 3, 3)
            ct, vals = cu, u
            for op in ops:
                # rescaling drifts the scale off the fresh default, so a
                # contract-respecting caller encrypts operands at the
                # ciphertext's current scale
                if op == 0:
                    cv = enc(small_keys, v, rng, scale=ct.scale)
                    ct = scheme.add(ct, scheme.ct_drop_level(cv, ct.level))
                    vals = vals + v
                elif op == 1:
                    cv = enc(small_keys, v, rng)
                    ct = scheme.rescale(
                        scheme.mult(ct, scheme.ct_drop_level(cv, ct.level), small_keys.evk)
                    )
                    vals = vals * v
                else:
                    w = rng.uniform(-1, 1, k)
                    pt = encoding.encode(w, params.scale, params.ring, level=ct.level)
                    ct = scheme.rescale(scheme.mult_plain(ct, pt))
                    vals = vals * w
            got = scheme.decrypt_to_slots(small_keys.sk, ct)[:k]
            measured = scheme.noise_measure(small_keys.sk, ct, vals)
            assert measured <= ct.noise_bits
            assert np.max(np.abs(got - vals)) < 2.0 ** -12
