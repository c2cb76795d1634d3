import dataclasses
import math

import numpy as np
import pytest

from hnn import encoding, neural, ring, scheme, serialize
from hnn.errors import (
    CryptoStateError,
    InsecureParameterError,
    LevelExhausted,
    NoiseBudgetExceeded,
    ParameterError,
    ScaleMismatch,
)

from helpers import (
    add_plain,
    constant_plaintext,
    decrypt_three_part,
    encrypt_four_ntt,
    encrypt_per_column,
    gadget_params,
    pair_with_zero,
    relinearize_crt,
    rescale_rows,
    split,
    tensor_no_relin,
    uniform_pair,
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

    def test_chain_without_primes_of_its_size_names_them(self):
        # at N = 32768 there are three 21-bit primes ≡ 1 mod 2N; this set
        # once loaded with three 22-bit rescale primes
        with pytest.raises(ParameterError, match="no unused 21-bit prime ≡ 1 mod 65536"):
            scheme.param_gen(128, 16384, 6, 20, allow_insecure=True)

    def test_every_generated_set_passes_embedded_table(self):
        for lam in (128, 192, 256):
            for depth in (0, 1, 2):
                try:
                    params = scheme.param_gen(lam, 8, depth)
                except ParameterError:
                    continue
                bound = scheme.SECURITY_TABLE[lam][params.ring.ring_degree]
                # the evk lives over Q*P, so P's bits count too
                assert params.key_ring.total_bits() <= bound
                assert params.key_ring.moduli[params.special_count :] == params.ring.moduli

    def test_secure_128_keeps_four_special_primes(self):
        # 329 chain bits + 4 * 42 = 497 <= 881 at N = 32768
        cfg = neural.head_config(neural.SoftArgmaxHead())
        params = scheme.param_gen(128, 16384, neural.pipeline_depth(cfg), 40)
        assert params.ring.ring_degree == 32768 and params.ring.total_bits() == 329
        assert (params.digit_size, params.special_count) == (4, 4)
        assert params.key_ring.total_bits() == 497 <= scheme.SECURITY_TABLE[128][32768]
        assert len(params.digits(params.max_level)) == 2
        special = params.key_ring.moduli[:4]
        assert all(p.bit_length() == 42 and p not in params.ring.moduli for p in special)

    def test_special_primes_step_down_to_fit_the_table(self):
        # 162 chain bits in 5 primes at N = 8192 (max 218): the rule asks
        # for ceil(5/2) = 3 special primes, 288 bits; two would make 246,
        # one makes 204
        moduli = ring.find_ntt_primes(8192, [42] + [30] * 4)
        params = scheme.SchemeParams(128, ring.RingParams(8192, moduli), 2.0 ** 29, 8)
        assert (params.digit_size, params.special_count) == (1, 1)
        assert params.key_ring.total_bits() == 204
        assert len(params.digits(params.max_level)) == 5
        insecure = dataclasses.replace(params, allow_insecure=True)
        assert (insecure.digit_size, insecure.special_count) == (3, 3)
        assert len(insecure.digits(insecure.max_level)) == 2

    def test_rule_gives_two_digits_on_every_chain_length(self):
        # alpha = k = ceil((L+1)/2) on every chain param_gen can build:
        # two digits at the top level, one below level k
        for depth in range(scheme.MAX_CHAIN_PRIMES):
            params = scheme.param_gen(128, 4, depth, 20, allow_insecure=True)
            primes = params.ring.level_count
            assert primes == depth + 1
            assert params.special_count == params.digit_size == math.ceil(primes / 2)
            assert len(params.digits(params.max_level)) <= 2
            assert len(params.digits(params.special_count - 1)) == 1

    def test_small_secure_set_without_spare_bits_is_the_crt_gadget(self):
        params = scheme.param_gen(128, 4, 1)
        assert params.ring.total_bits() + 42 > scheme.SECURITY_TABLE[128][2048]
        assert (params.digit_size, params.special_count) == (1, 0)
        assert params.key_ring is params.ring

    def test_size_rule_bounds(self):
        # one rule, shared with the parameter file: 31 primes (depth 30
        # plus the base) over a degree of at most 32768
        assert (scheme.MAX_CHAIN_PRIMES, scheme.MAX_RING_DEGREE) == (31, 32768)
        with pytest.raises(ParameterError, match=r"depth_need 31 outside \[0, 30\]"):
            scheme.param_gen(128, 4, 31, allow_insecure=True)
        with pytest.raises(ParameterError, match=r"slot_need 16385 outside \[1, 16384\]"):
            scheme.param_gen(128, 16385, 1, allow_insecure=True)
        big = ring.RingParams(65536, ring.find_ntt_primes(65536, [42]))
        with pytest.raises(ParameterError, match="ring degree 65536 exceeds 32768"):
            scheme.SchemeParams(128, big, 2.0 ** 40, 8, allow_insecure=True)

    def test_insecure_rejected_without_override(self):
        moduli = ring.find_ntt_primes(32, [42, 41, 41])
        with pytest.raises(InsecureParameterError):
            scheme.SchemeParams(128, ring.RingParams(32, moduli), 2.0 ** 40, 16)

    @pytest.mark.parametrize("slots", [0, -4, 17])
    def test_slot_capacity_outside_one_to_half_n_rejected(self, small_params, slots):
        assert small_params.ring.ring_degree == 32
        with pytest.raises(ParameterError, match="slot capacity"):
            dataclasses.replace(small_params, slot_capacity=slots)

    @pytest.mark.parametrize("scale", [3e12, 2.0 ** 40 + 1, 0.0, -2.0 ** 40, math.inf, math.nan])
    def test_scale_must_be_a_power_of_two(self, small_params, scale):
        # 3e12 would be saved as scale_bits = 42, the text of another set
        with pytest.raises(ParameterError, match="not a power of two"):
            dataclasses.replace(small_params, scale=scale)

    @pytest.mark.parametrize("bits", [13, 41, 60, -3])
    def test_scale_bits_outside_the_rule_rejected(self, small_params, bits):
        with pytest.raises(ParameterError, match=f"scale_bits {bits} outside"):
            dataclasses.replace(small_params, scale=2.0 ** bits)
        with pytest.raises(ParameterError, match=f"scale_bits {bits} outside"):
            scheme.param_gen(128, 16, 3, scale_bits=bits, allow_insecure=True)

    def test_only_five_fields_are_set(self, small_params):
        init = [f.name for f in dataclasses.fields(scheme.SchemeParams) if f.init]
        assert init == [
            "security_level", "ring", "scale", "slot_capacity", "allow_insecure",
        ]
        with pytest.raises(ValueError, match="noise_budget_bits"):
            dataclasses.replace(small_params, noise_budget_bits=1e9)

    def test_derived_budget_matches_the_stored_one(self):
        # the depth-12 N=1024 pipeline ring that version 1 parameter files
        # stored with noise_budget_bits = 484: 534 chain bits - 40 - 10
        params = scheme.param_gen(128, 512, 12, 40, allow_insecure=True)
        assert params.ring.total_bits() == 534
        assert params.noise_budget_bits == 484.0

    def test_explicit_scale_bits_respected(self):
        params = scheme.param_gen(128, 64, 1, scale_bits=40)
        assert params.scale == 2.0 ** 40
        assert params.ring.ring_degree == 4096

    def test_param_gen_builds_no_ntt_tables(self, monkeypatch):
        # a parameter set registers its key ring; the tables wait for the
        # first transform, which builds the key ring's once for both chains
        builds, build = [], ring._NttTables.__init__

        def counted(tables, *args):
            builds.append(args)
            build(tables, *args)

        monkeypatch.setattr(ring._NttTables, "__init__", counted)
        monkeypatch.setattr(ring, "_TABLE_CACHE", {})
        params = scheme.param_gen(128, 512, 12, 40, allow_insecure=True)
        assert params.special_count > 0
        assert builds == []
        ring.ntt_forward(ring.zero(params.ring, params.max_level))
        assert builds == [(params.ring.ring_degree, params.key_ring.moduli)]


class TestKeygen:
    def test_public_key_error_is_small(self, small_params):
        # b + a*s must equal the key error: all signed coefficients
        # below 6*err_std (structural via tail resampling), 100 seeds
        for seed in range(100):
            keys = scheme.keygen(small_params, np.random.default_rng(seed))
            b, a = split(keys.pk.pair)
            e = ring.ring_add(b, ring.ring_mul(a, keys.sk.s))
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
        assert not np.array_equal(k1.pk.pair.residues, k2.pk.pair.residues)
        assert np.array_equal(k1.pk.pair.residues, k1b.pk.pair.residues)
        assert np.array_equal(k1.sk.s.residues, k1b.sk.s.residues)

    def test_uniform_halves_expand_from_their_seeds(self, small_keys):
        # each key's a is sample_uniform of its own 32-byte seed, so a
        # blob can ship the seed in its place
        params = small_keys.scheme
        keys = [(small_keys.pk.pair, small_keys.pk.seed, params.ring)]
        keys += [(c, sd, params.key_ring) for c, sd in zip(
            small_keys.evk.components, small_keys.evk.seeds, strict=True
        )]
        for pair, seed, chain in keys:
            want = ring.sample_uniform(chain, chain.max_level, seed)
            assert np.array_equal(split(pair)[1].residues, want.residues)
        assert len({seed for _, seed, _ in keys}) == len(keys)

    def test_relin_key_components_decrypt_to_p_times_masked_s2(self, small_keys):
        # b_i + a_i*s - P*E_i*s^2 over the key ring P ∪ Q must be a small
        # error polynomial, where E_i is the integer mod Q that is 1 mod
        # digit i's primes and 0 mod the chain's others
        params = small_keys.scheme
        rp, kr, k = params.ring, params.key_ring, params.special_count
        assert (params.digit_size, k, kr.moduli[k:]) == (2, 2, rp.moduli)
        # the ternary secret's coefficients, lifted from Q to P ∪ Q
        signed, _ = ring.compose_signed(ring.ntt_inverse(small_keys.sk.s))
        coeffs = np.array([int(v) for v in signed], dtype=np.int64)
        s = ring.ntt_forward(ring.from_int_coeffs(coeffs, kr, kr.max_level))
        s2 = ring.ring_mul(s, s)
        big_q, big_p = math.prod(rp.moduli), math.prod(kr.moduli[:k])
        digits = params.digits(params.max_level)
        assert len(small_keys.evk.components) == len(digits) == 2
        for d, comp in zip(digits, small_keys.evk.components):
            assert (comp.params, comp.level, comp.parts_shape) == (kr, kr.max_level, (2,))
            b_i, a_i = split(comp)
            e_i = sum(
                big_q // q * pow(big_q // q, -1, q) for q in rp.moduli[d]
            ) % big_q
            col = np.array([[big_p * e_i % t] for t in kr.moduli], dtype=np.uint64)
            residual = ring.ring_sub(
                ring.ring_add(b_i, ring.ring_mul(a_i, s)), ring.scalar_mul(s2, col)
            )
            signed, _ = ring.compose_signed(ring.ntt_inverse(residual))
            assert max(abs(int(v)) for v in signed) < 6 * scheme.ERR_STD

    def test_pk_spectra_are_derived_on_the_first_encryption(self, small_params, monkeypatch):
        # keygen and a pk load leave the spectra underived; the first
        # encryption derives them once, and the bytes are those of a key
        # whose spectra came first
        calls = []
        derive = ring.fft_spectra
        monkeypatch.setattr(ring, "fft_spectra", lambda a: calls.append(a) or derive(a))
        keys = scheme.keygen(small_params, np.random.default_rng(6))
        pk = serialize.public_key_from_bytes(
            serialize.public_key_to_bytes(keys.pk), small_params
        )
        assert calls == []
        eager = scheme.PublicKey(small_params, keys.pk.pair, keys.pk.seed)
        assert np.array_equal(eager.spectra, derive(keys.pk.pair))
        assert len(calls) == 1
        v = np.linspace(-1.0, 1.0, small_params.slot_capacity)
        pt = encoding.encode(v, small_params.scale, small_params.ring)
        for _ in range(2):
            got = scheme.encrypt(pk, pt, np.random.default_rng(7))
            want = scheme.encrypt(eager, pt, np.random.default_rng(7))
            assert np.array_equal(got.parts.residues, want.parts.residues)
        assert len(calls) == 2
        assert pk.spectra is pk.spectra


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
        assert not np.array_equal(c1.parts.residues[0], c2.parts.residues[0])

    def test_thousand_encryptions_all_distinct(self, small_keys, rng):
        v = np.full(small_keys.scheme.slot_capacity, 0.5)
        pt = encoding.encode(v, small_keys.scheme.scale, small_keys.scheme.ring)
        seen = set()
        for _ in range(1000):
            ct = scheme.encrypt(small_keys.pk, pt, rng)
            seen.add(ct.parts.residues[0].tobytes())
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
        # a fresh ciphertext is in the Coefficient domain and runs no NTT;
        # its NTT has the residues of the four-NTT encryption; an
        # Evaluation-domain message, which only a hand-built Plaintext can
        # hold (here the constant -0.75 at every root), is rejected
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
        for name in ("_ntt_forward_block", "_ntt_inverse_block"):
            kernel = getattr(ring, name)
            monkeypatch.setattr(
                ring, name, lambda *a, k=kernel: calls.append(a) or k(*a)
            )
        ct = scheme.encrypt(small_keys.pk, pt, np.random.default_rng(41))
        monkeypatch.undo()
        assert ct.parts.domain == ring.Domain.COEFFICIENT
        assert len(calls) == 0
        c0, c1 = encrypt_four_ntt(small_keys.pk, pt, np.random.default_rng(41))
        ev = scheme.to_evaluation(ct)
        assert np.array_equal(ev.parts.residues[0], c0)
        assert np.array_equal(ev.parts.residues[1], c1)

    def test_three_part_decrypt(self, small_keys, rng):
        # the unrelinearized tensor exists only as a test oracle: it
        # decrypts under s^2, and no Ciphertext can hold its three parts
        k = small_keys.scheme.slot_capacity
        u, v = rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
        cu, cv = enc(small_keys, u, rng), enc(small_keys, v, rng)
        tensor = tensor_no_relin(cu, cv)
        slots = decrypt_three_part(small_keys.sk, tensor, cu.scale * cv.scale)[:k]
        assert np.max(np.abs(slots - u * v)) < 2.0 ** -15
        block = np.stack([d.residues for d in tensor])
        with pytest.raises(ValueError, match="needs 2 parts"):
            dataclasses.replace(cu, parts=tensor[0]._like(block))


class TestEncryptColumns:
    """scheme.encrypt_columns, which encrypt_features runs, against
    encode and scheme.encrypt one column at a time with the same rng:
    the same bundle bytes and ledgers."""

    @pytest.fixture(scope="class")
    def n1024_keys(self):
        params = scheme.param_gen(128, 512, 7, 40, allow_insecure=True)
        return scheme.keygen(params, np.random.default_rng(81))

    @pytest.fixture(scope="class")
    def large_keys(self):
        # N = 32768 on the 128-bit table
        params = scheme.param_gen(128, 16384, 2, 40)
        assert params.ring.ring_degree == 32768
        return scheme.keygen(params, np.random.default_rng(82))

    @staticmethod
    def assert_matches_per_column(keys, features, seed):
        params = keys.scheme
        got = scheme.encrypt_columns(keys.pk, features, np.random.default_rng(seed))
        want = encrypt_per_column(keys.pk, features, np.random.default_rng(seed))
        assert [ct.parts.domain for ct in got] == [ring.Domain.COEFFICIENT] * len(want)
        assert [(ct.level, ct.scale, ct.noise_bits, ct.value_bound) for ct in got] == [
            (ct.level, ct.scale, ct.noise_bits, ct.value_bound) for ct in want
        ]
        blobs = [
            serialize.bundle_to_bytes(serialize.Bundle(serialize.BUNDLE_FEATURES, len(features), cts), params)
            for cts in (got, want)
        ]
        assert blobs[0] == blobs[1]
        return got

    @pytest.mark.parametrize("d", [1, 3, 64])
    @pytest.mark.parametrize("ring_keys", ["small_keys", "n1024_keys"])
    def test_matches_per_column_encryption(self, request, ring_keys, d):
        keys = request.getfixturevalue(ring_keys)
        slots = keys.scheme.ring.ring_degree // 2
        rng = np.random.default_rng(d)
        for m in (slots, slots // 2 + 1):
            self.assert_matches_per_column(keys, rng.normal(0.0, 2.0, (m, d)), seed=d + m)

    def test_matches_per_column_encryption_on_a_large_ring(self, large_keys):
        features = np.random.default_rng(83).uniform(-4.0, 4.0, (16384, 3))
        self.assert_matches_per_column(large_keys, features, seed=84)

    def test_large_slots_join_as_residues(self, n1024_keys, monkeypatch):
        # a column of slots near 2^20 has coefficients past 2^51 at scale
        # 2^40 and joins as residues; its neighbours join as integers
        keys = n1024_keys
        rng = np.random.default_rng(85)
        features = rng.uniform(-1.0, 1.0, (512, 4))
        features[:, 2] = rng.uniform(2.0 ** 19, 2.0 ** 20, 512) * rng.choice([-1, 1], 512)
        calls = []
        reduce = ring.from_int_coeffs

        def spy(coeffs, *args):
            calls.append(int(np.max(np.abs(coeffs))))
            return reduce(coeffs, *args)

        monkeypatch.setattr(ring, "from_int_coeffs", spy)
        got = self.assert_matches_per_column(keys, features, seed=86)
        # one call from the column path, then one per column from the oracle
        assert len(calls) == 1 + 4 and calls[0] >= 2 ** 51 > max(calls[1:3] + calls[4:])
        back = scheme.decrypt_to_slots(keys.sk, got[2])[:512]
        assert np.max(np.abs(back - features[:, 2])) < 2.0 ** -10

    def test_refusals(self, small_keys):
        k = small_keys.scheme.ring.ring_degree // 2
        with pytest.raises(ValueError, match="exceeds capacity"):
            scheme.encrypt_columns(small_keys.pk, np.zeros((k + 1, 2)), np.random.default_rng(0))
        with pytest.raises(ValueError, match="matrix"):
            scheme.encrypt_columns(small_keys.pk, np.zeros(k), np.random.default_rng(0))


class TestFreshCiphertextDomain:
    """A fresh ciphertext is in the Coefficient domain: its NTT equals the
    four-NTT encryption it replaces, and each op keeps the domain or
    brings it to the Evaluation domain with the residues of the op on
    the Evaluation form."""

    @pytest.fixture(scope="class")
    def default_keys(self):
        # a depth-12, 13-prime N = 1024 ring
        params = scheme.param_gen(128, 512, 12, 40, allow_insecure=True)
        assert params.ring.level_count == 13 and params.ring.ring_degree == 1024
        return scheme.keygen(params, np.random.default_rng(71))

    @pytest.fixture(scope="class")
    def secure_keys(self):
        # N = 8192 on the 128-bit table, with two special primes
        params = scheme.param_gen(128, 4096, 2, 40)
        assert not params.allow_insecure and params.special_count == 2
        return scheme.keygen(params, np.random.default_rng(71))

    @pytest.mark.parametrize("ring_keys", ["default_keys", "secure_keys"])
    def test_ntt_of_fresh_ciphertext_is_the_four_ntt_encryption(self, request, ring_keys):
        keys = request.getfixturevalue(ring_keys)
        params = keys.scheme
        values = np.linspace(-1.0, 1.0, params.slot_capacity)
        pt = encoding.encode(values, params.scale, params.ring)
        for seed in range(3):
            ct = scheme.encrypt(keys.pk, pt, np.random.default_rng(seed))
            assert ct.parts.domain == ring.Domain.COEFFICIENT
            c0, c1 = encrypt_four_ntt(keys.pk, pt, np.random.default_rng(seed))
            ev = scheme.to_evaluation(ct)
            assert ev.parts.domain == ring.Domain.EVALUATION
            assert np.array_equal(ev.parts.residues, np.stack([c0, c1]))
            assert (ev.level, ev.scale, ev.noise_bits, ev.value_bound) == (
                ct.level, ct.scale, ct.noise_bits, ct.value_bound
            )
            assert scheme.to_evaluation(ev) is ev

    def test_rescale_of_coefficient_ct_every_level(self, default_keys):
        params = default_keys.scheme
        rp = params.ring
        rng = np.random.default_rng(72)
        for level in range(1, rp.level_count):
            ev = uniform_pair(rp, level, rng).residues.copy()
            ev[..., :2] = rp._q_col[: level + 1] - np.uint64(1)
            ev[..., 2] = 0
            coeff = ring.pair(*(ring.ntt_inverse(p) for p in split(
                ring.RingElement(rp, level, ev, ring.Domain.EVALUATION)
            )))
            ct = scheme.Ciphertext(params, coeff, level, params.scale, 10.0, 1.0)
            got, want = scheme.rescale(ct), scheme.rescale(scheme.to_evaluation(ct))
            assert got.parts.domain == ring.Domain.EVALUATION
            assert np.array_equal(got.parts.residues, want.parts.residues)
            assert (got.level, got.scale, got.noise_bits, got.value_bound) == (
                want.level, want.scale, want.noise_bits, want.value_bound
            )

    def test_ops_keep_or_bring_the_domain(self, default_keys):
        keys = default_keys
        params = keys.scheme
        rng = np.random.default_rng(73)
        k = params.slot_capacity
        x, y = (
            scheme.encrypt(keys.pk, encoding.encode(rng.uniform(-1, 1, k), params.scale, params.ring), rng)
            for _ in range(2)
        )
        xe, ye = scheme.to_evaluation(x), scheme.to_evaluation(y)
        coeff, evaluation = ring.Domain.COEFFICIENT, ring.Domain.EVALUATION
        w = rng.normal(0.0, 1.0, (2, 2))
        q_top = float(params.ring.moduli[params.max_level])
        pt = encoding.encode(rng.uniform(-1, 1, k), params.scale, params.ring)
        cases = [
            # (op on the Coefficient operands, the op on their Evaluation forms, its domain)
            (scheme.add(x, y), scheme.add(xe, ye), coeff),
            (scheme.add(x, ye), scheme.add(xe, ye), evaluation),
            (scheme.add(xe, y), scheme.add(xe, ye), evaluation),
            (scheme.mult_const(x, -0.75, q_top), scheme.mult_const(xe, -0.75, q_top), coeff),
            (scheme.ct_drop_level(x, 4), scheme.ct_drop_level(xe, 4), coeff),
            (scheme.weighted_sums([x, y], w, q_top)[1], scheme.weighted_sums([xe, ye], w, q_top)[1], coeff),
            (scheme.weighted_sums([x, ye], w, q_top)[0], scheme.weighted_sums([xe, ye], w, q_top)[0], evaluation),
            (scheme.mult(x, y, keys.evk), scheme.mult(xe, ye, keys.evk), evaluation),
            (scheme.mult_plain(x, pt), scheme.mult_plain(xe, pt), evaluation),
            (scheme.add_const(x, 0.5), scheme.add_const(xe, 0.5), evaluation),
            (scheme.rescale(x), scheme.rescale(xe), evaluation),
        ]
        for got, want, domain in cases:
            assert got.parts.domain == domain
            assert np.array_equal(scheme.to_evaluation(got).parts.residues, want.parts.residues)
            assert (got.level, got.scale, got.noise_bits, got.value_bound) == (
                want.level, want.scale, want.noise_bits, want.value_bound
            )
        got, want = scheme.decrypt(keys.sk, x), scheme.decrypt(keys.sk, xe)
        assert np.array_equal(got.poly.residues, want.poly.residues)


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


class TestNegateSub:
    """negate and sub against the plaintexts they must decrypt to, exactly:
    decryption is linear, so -ct and a - b decrypt to the negated and
    subtracted polynomials mod q, and both keep their ledger rules."""

    @pytest.mark.parametrize("evaluation", [False, True], ids=["coefficient", "evaluation"])
    def test_negate_decrypts_exactly_and_keeps_the_ledger(self, small_keys, rng, evaluation):
        k = small_keys.scheme.slot_capacity
        ct = enc(small_keys, rng.uniform(-1, 1, k), rng)
        if evaluation:
            ct = scheme.rescale(scheme.mult_const(ct, 1.0, 2.0 ** 20))
        neg = scheme.negate(ct)
        assert neg.parts.domain == ct.parts.domain
        q = ct.parts._q
        assert np.array_equal(neg.parts.residues, (q - ct.parts.residues) % q)
        want = ring.negate(scheme.decrypt(small_keys.sk, ct).poly)
        assert np.array_equal(scheme.decrypt(small_keys.sk, neg).poly.residues, want.residues)
        fields = ("level", "scale", "noise_bits", "value_bound")
        assert [getattr(neg, f) for f in fields] == [getattr(ct, f) for f in fields]

    def test_negate_of_zero_residues_is_zero(self, small_params):
        el = ring.zero(small_params.ring, small_params.max_level)
        assert not np.any(ring.negate(el).residues)

    def test_sub_decrypts_exactly_with_adds_ledger(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        a, b = (enc(small_keys, rng.uniform(-1, 1, k), rng) for _ in range(2))
        diff = scheme.sub(a, b)
        want = ring.ring_sub(
            scheme.decrypt(small_keys.sk, a).poly, scheme.decrypt(small_keys.sk, b).poly
        )
        assert np.array_equal(scheme.decrypt(small_keys.sk, diff).poly.residues, want.residues)
        total = scheme.add(a, b)
        assert (diff.noise_bits, diff.value_bound) == (total.noise_bits, total.value_bound)
        assert np.array_equal(
            scheme.sub(a, a).parts.residues, np.zeros_like(a.parts.residues)
        )

    def test_sub_checks_like_add(self, small_keys, rng):
        k = small_keys.scheme.slot_capacity
        a = enc(small_keys, np.zeros(k), rng)
        with pytest.raises(ScaleMismatch):
            scheme.sub(a, enc(small_keys, np.zeros(k), rng, scale=small_keys.scheme.scale * 2))
        with pytest.raises(ValueError):
            scheme.sub(a, scheme.ct_drop_level(a, a.level - 1))


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
                for part, rows in zip(split(ct.parts), expect):
                    assert np.array_equal(ring.ntt_inverse(part).residues, rows)

    @staticmethod
    def check_relinearized_every_level(keys, rng):
        """Hybrid key switching moves the decryption of mult(u, v) by at
        most the ledger's relinearization charge from the unrelinearized
        tensor's, at every level of keys' chain."""
        params = keys.scheme
        k = params.slot_capacity
        top_u = enc(keys, rng.uniform(-1, 1, k), rng)
        top_v = enc(keys, rng.uniform(-1, 1, k), rng)
        for level in range(params.max_level, 0, -1):
            u = scheme.ct_drop_level(top_u, level)
            v = scheme.ct_drop_level(top_v, level)
            relin = scheme.mult(u, v, keys.evk)
            tensor = tensor_no_relin(u, v)
            diff = np.max(
                np.abs(
                    scheme.decrypt_to_slots(keys.sk, relin)
                    - decrypt_three_part(keys.sk, tensor, relin.scale)
                )
            )
            assert diff <= 2.0 ** params.relin_noise_bits(level) / relin.scale

    def test_relinearized_matches_three_part_decrypt_every_level(
        self, small_keys, rng
    ):
        self.check_relinearized_every_level(small_keys, rng)

    def test_relinearized_matches_three_part_decrypt_on_the_head_chain(self, rng):
        # the exp/Newton head's 12-prime N = 1024 chain (depth 11), k = 6:
        # two digits from level 6 up, one below
        params = scheme.param_gen(128, 512, 11, 40, allow_insecure=True)
        assert (params.ring.level_count, params.special_count) == (12, 6)
        keys = scheme.keygen(params, np.random.default_rng(72))
        self.check_relinearized_every_level(keys, rng)

    def test_depth_one_set_multiplies_within_its_ledger(self, rng):
        # its budget floor holds one product's ledger at level 1, taken
        # at scale^2 before the division
        params = scheme.param_gen(128, 32, 1, 40, allow_insecure=True)
        assert params.ring.total_bits() - math.log2(params.scale) - 10 < (
            params.fresh_noise_bits() + math.log2(params.scale) + 1
        )
        keys = scheme.keygen(params, np.random.default_rng(73))
        v, w = rng.uniform(-1, 1, 32), rng.uniform(-1, 1, 32)
        out = scheme.mult_rescale(enc(keys, v, rng), enc(keys, w, rng), keys.evk)
        assert out.level == 0
        assert scheme.noise_measure(keys.sk, out, v * w) <= out.noise_bits
        assert np.max(np.abs(dec(keys, out, 32) - v * w)) < 2.0 ** -20

    def test_switch_noise_is_finite_on_a_35_prime_chain(self):
        # the 35-prime chain of test_three_class_confident_logits: k = 18,
        # so a digit's D^2 is about 2^1476, past a float's range
        moduli = ring.find_ntt_primes(16, [42] + [41] * 34)
        params = scheme.SchemeParams(
            128, ring.RingParams(16, moduli), 2.0 ** 40, 8, allow_insecure=True
        )
        assert params.special_count == 18
        for level in range(params.max_level + 1):
            # finite, and below a rescale's rounding, as on shorter chains
            bits = params.switch_noise_bits(level)
            assert math.isfinite(bits) and bits < params.division_round_bits(1)
            assert math.isfinite(params.relin_noise_bits(level))

    def test_digit_size_one_is_the_crt_gadget_every_level(self):
        # a 13-prime 128-bit chain whose 426 bits leave no room for a
        # 42-bit special prime (max 438): the same code path must give the
        # CRT-gadget oracle's residues at every level
        moduli = ring.find_ntt_primes(16384, [42] + [32] * 12)
        params = scheme.SchemeParams(128, ring.RingParams(16384, moduli), 2.0 ** 30, 8)
        assert (params.digit_size, params.special_count) == (1, 0)
        evk = scheme.keygen(params, np.random.default_rng(3)).evk
        assert len(evk.components) == 13
        rng = np.random.default_rng(4)
        for level in range(params.max_level, 0, -1):
            d2 = ring.sample_uniform(params.ring, level, rng.bytes(32))
            got = scheme._relinearize(d2, evk, level)
            want = relinearize_crt(d2, evk, level)
            for g, w in zip(split(got), want):
                assert (g.params, g.level) == (params.ring, level)
                assert np.array_equal(g.residues, w.residues)

    def test_key_switching_noise_is_below_a_rescale(self, head_keys):
        # with special primes, sum d_i*e_i/P is far below ModDown's
        # rounding, which is a few rescale roundings
        params = head_keys.scheme
        assert params.special_count > 0
        for level in range(1, params.max_level + 1):
            assert params.relin_noise_bits(level) < params.division_round_bits(1) + 2

    def test_rescale_at_level_zero_rejected(self, small_keys, rng):
        ct = enc(small_keys, np.zeros(small_keys.scheme.slot_capacity), rng)
        bottom = scheme.ct_drop_level(ct, 0)
        with pytest.raises(LevelExhausted):
            scheme.rescale(bottom)


class TestFusedProduct:
    """scheme.mult_rescale, one division by P*q_l, against rescale(mult()),
    which divides by P and then by q_l, at every level of a depth-12,
    13-prime N = 1024 chain (k = 7) and of a k = 0 chain."""

    @pytest.fixture(scope="class", params=["default", "gadget"])
    def keys(self, request):
        if request.param == "gadget":
            params = gadget_params()
        else:
            params = scheme.param_gen(128, 512, 12, 40, allow_insecure=True)
            assert (params.ring.level_count, params.special_count) == (13, 7)
        return scheme.keygen(params, np.random.default_rng(81))

    @pytest.fixture(scope="class")
    def operands(self, keys):
        """Two fresh top-level ciphertexts and their slot values."""
        rng = np.random.default_rng(82)
        values = [rng.uniform(-1, 1, keys.scheme.slot_capacity) for _ in range(2)]
        return values, [enc(keys, v, rng) for v in values]

    def levels(self, keys, operands):
        (v, w), (a, b) = operands
        for level in range(keys.scheme.max_level, 0, -1):
            yield level, v * w, scheme.ct_drop_level(a, level), scheme.ct_drop_level(b, level)

    def test_matches_rescale_of_mult_every_level(self, keys, operands):
        # both are the exact quotient x/(P*q_l) of the undivided product
        # plus their roundings. Two steps: ModDown's conversion of k primes
        # errs by a sum of k centred fractions, |e1| < k/2, which the
        # rescale divides by q_l, and the rescale's exact lift by |e2| < 1/2.
        # One step: a conversion of k + 1 primes, |e3| < (k + 1)/2. So the
        # two differ by less than (k + 2)/2 + k/(2 q_l): at most
        # floor(k/2) + 1 per coefficient, and not at all for k = 0, where
        # both run mult's sums through the same rescale
        k = keys.scheme.special_count
        bound = k // 2 + 1 if k else 0
        for level, _, a, b in self.levels(keys, operands):
            one = scheme.mult_rescale(a, b, keys.evk)
            two = scheme.rescale(scheme.mult(a, b, keys.evk))
            assert one.parts.domain == two.parts.domain == ring.Domain.EVALUATION
            assert (one.level, one.scale, one.value_bound) == (two.level, two.scale, two.value_bound)
            q = one.parts._q.astype(np.int64)
            diff = (
                ring.ntt_inverse(one.parts).residues.astype(np.int64)
                - ring.ntt_inverse(two.parts).residues.astype(np.int64)
            ) % q
            assert np.max(np.minimum(diff, q - diff)) <= bound

    def test_ledger_rule_bounds_measured_noise_every_level(self, keys, operands):
        # the tensor's terms and key switching's error, each over q_l, and
        # one rounding of the division by k + 1 primes
        params = keys.scheme
        k = params.special_count
        for level, product, a, b in self.levels(keys, operands):
            one = scheme.mult_rescale(a, b, keys.evk)
            terms = (
                a.noise_bits + math.log2(b.value_bound * b.scale),
                b.noise_bits + math.log2(a.value_bound * a.scale),
                a.noise_bits + b.noise_bits,
                params.switch_noise_bits(level),
            )
            q_bits = math.log2(params.ring.moduli[level])
            round_bits = params.division_round_bits(1) + 0.5 * math.log2(k + 1)
            want = scheme._log2_sum(*(t - q_bits for t in terms), round_bits)
            assert one.noise_bits == pytest.approx(want, abs=1e-12)
            assert scheme.noise_measure(keys.sk, one, product) <= one.noise_bits

    def test_guards_run_before_any_ring_work(self, keys, operands, monkeypatch):
        # a product whose payload would wrap Q_l: mult's ledger at level l
        # and scale a.scale*b.scale stops mult_rescale, as it stops mult,
        # before any product or division
        params = keys.scheme
        ct = scheme.ct_drop_level(operands[1][0], 1)
        log_q, log_s = params.log2_modulus(1), math.log2(ct.scale)
        big = scheme.with_value_bound(ct, 2.0 ** ((log_q - 2 * log_s) / 2 + 1))
        calls = []
        for name in ("ring_mul", "mul_sums", "divide"):
            monkeypatch.setattr(ring, name, lambda *a, n=name: calls.append(n))
        for op in (scheme.mult, scheme.mult_rescale):
            with pytest.raises(NoiseBudgetExceeded, match="would wrap the level-1"):
                op(big, big, keys.evk)
        assert calls == []
        with pytest.raises(LevelExhausted):
            scheme.mult_rescale(scheme.ct_drop_level(ct, 0), scheme.ct_drop_level(ct, 0), keys.evk)


class TestProductSum:
    """scheme.mult_rescale_sum, one key switch and one division for a sum
    of products and an addend, against the path it replaces: a
    mult_rescale per product and a rescale of the addend, added, on the
    N = 32 ring and the default head's 8-prime N = 1024 chain."""

    @pytest.fixture(scope="class", params=["n32", "default"])
    def keys(self, request):
        if request.param == "n32":
            return request.getfixturevalue("small_keys")
        depth = neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead()))
        params = scheme.param_gen(128, 512, depth, 40, allow_insecure=True)
        return scheme.keygen(params, np.random.default_rng(83))

    @pytest.fixture(scope="class")
    def operands(self, keys):
        """Seven fresh top-level ciphertexts and their slot values, small
        enough that three products sum within Q_1 at scale 2^80."""
        rng = np.random.default_rng(84)
        values = [rng.uniform(-0.5, 0.5, keys.scheme.slot_capacity) for _ in range(7)]
        return values, [enc(keys, v, rng) for v in values]

    def summands(self, keys, operands, count, level):
        """count pairs and an addend (0.5 times the last operand, at the
        products' scale) at ``level``, and the sum's slot values."""
        vals, cts = operands
        cts = [scheme.ct_drop_level(ct, level) for ct in cts]
        pairs = [(cts[2 * i], cts[2 * i + 1]) for i in range(count)]
        addend = scheme.mult_const(cts[6], 0.5, cts[0].scale)
        want = sum(vals[2 * i] * vals[2 * i + 1] for i in range(count)) + 0.5 * vals[6]
        return pairs, addend, want

    @pytest.mark.parametrize("count", [2, 3])
    def test_matches_the_sum_of_mult_rescales_within_the_ledgers(self, keys, operands, count):
        params, k = keys.scheme, keys.scheme.special_count
        for level in (params.max_level, 1):
            pairs, addend, want = self.summands(keys, operands, count, level)
            fused = scheme.mult_rescale_sum(pairs, keys.evk, addend)
            ref = scheme.tree_sum(
                [scheme.mult_rescale(a, b, keys.evk) for a, b in pairs] + [scheme.rescale(addend)]
            )
            assert (fused.level, fused.parts.domain) == (level - 1, ring.Domain.EVALUATION)
            assert fused.scale == pytest.approx(ref.scale, rel=1e-12)
            assert fused.value_bound == pytest.approx(ref.value_bound, rel=1e-12)
            # the ledger: every tensor term and the addend's noise over
            # q_l, one switching error and one (k+1)-prime rounding
            terms = [addend.noise_bits, params.switch_noise_bits(level)]
            for a, b in pairs:
                terms += (
                    a.noise_bits + math.log2(b.value_bound * b.scale),
                    b.noise_bits + math.log2(a.value_bound * a.scale),
                    a.noise_bits + b.noise_bits,
                )
            q_bits = math.log2(params.ring.moduli[level])
            want_bits = scheme._log2_sum(
                *(t - q_bits for t in terms), params.division_round_bits(k + 1)
            )
            assert fused.noise_bits == pytest.approx(want_bits, abs=1e-12)
            assert scheme.noise_measure(keys.sk, fused, want) <= fused.noise_bits
            gap = np.max(np.abs(
                scheme.decrypt_to_slots(keys.sk, fused) - scheme.decrypt_to_slots(keys.sk, ref)
            ))
            assert gap * fused.scale <= 2.0 ** fused.noise_bits + 2.0 ** ref.noise_bits

    def test_mismatched_operands_are_refused_before_any_work(self, keys, operands, monkeypatch):
        level = keys.scheme.max_level
        pairs, addend, _ = self.summands(keys, operands, 2, level)
        (a, b), (c, d) = pairs
        low = scheme.ct_drop_level(c, level - 1)
        wide = scheme.mult_const(c, 1.0, 2.0 ** 20)
        calls = []
        monkeypatch.setattr(ring, "mul_sums", lambda *args: calls.append(args))
        refused = [
            (ValueError, [], None),
            (ValueError, [(a, b), (low, scheme.ct_drop_level(d, level - 1))], addend),
            (ValueError, [(a, b), (low, d)], addend),
            (ValueError, [(a, b)], scheme.ct_drop_level(addend, level - 1)),
            (ScaleMismatch, [(a, b), (wide, d)], None),
            (ScaleMismatch, [(a, b)], scheme.mult_const(addend, 1.0, 2.0 ** 20)),
            (ScaleMismatch, [(a, b)], c),
        ]
        for error, sums, extra in refused:
            with pytest.raises(error):
                scheme.mult_rescale_sum(sums, keys.evk, extra)
        with pytest.raises(LevelExhausted):
            bottom = [scheme.ct_drop_level(ct, 0) for ct in (a, b)]
            scheme.mult_rescale_sum([bottom], keys.evk)
        assert calls == []


class TestPlainOps:
    def test_add_plain(self, small_keys, rng):
        params = small_keys.scheme
        k = params.slot_capacity
        v = rng.uniform(-1, 1, k)
        w = rng.uniform(-1, 1, k)
        ct = enc(small_keys, v, rng)
        pt = encoding.encode(w, ct.scale, params.ring)
        out = dec(small_keys, add_plain(ct, pt), k)
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
            parts=uniform_pair(params.ring, level, rng),
            level=level,
            scale=2.0 ** 10,
            noise_bits=3.0,
            value_bound=2.0 ** -4,
        )

    @staticmethod
    def _same(got, want):
        assert np.array_equal(got.parts.residues, want.parts.residues)
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
            self._same(scheme.add_const(ct, value), add_plain(ct, pt))


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
                parts=uniform_pair(params.ring, lv, rng),
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
            small_params, pair_with_zero(ring.zero(small_params.ring, 2, ring.Domain.EVALUATION)),
            2, cts[0].scale, 0.0, 1.0,
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
            parts=ring.pair(z, z),
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
