import math
import warnings

import numpy as np
import pytest

from hnn import encoding, ring

from helpers import (
    hp_coeffs_to_slots,
    hp_embed_to_coeffs,
    poly_mul,
    twisted_coeffs_to_slots,
    twisted_embed_to_coeffs,
)


def make_params(n=8, bits=(42,)):
    return ring.RingParams(n, ring.find_ntt_primes(n, list(bits)))


class TestEncode:
    def test_zeros_encode_to_zero_polynomial(self):
        params = make_params()
        pt = encoding.encode(np.zeros(4), 2.0 ** 30, params)
        assert np.all(pt.poly.residues == 0)
        assert pt.round_error == 0.0

    def test_constant_vector_is_constant_polynomial(self):
        params = make_params()
        c = 0.8125  # exact in binary so the rounding is clean
        scale = 2.0 ** 20
        pt = encoding.encode(np.full(4, c), scale, params)
        signed, _ = ring.compose_signed(pt.poly)
        assert signed[0] == round(c * scale)
        assert np.all(np.asarray(signed[1:], dtype=np.int64) == 0)

    def test_roundtrip_matches_high_precision_oracle(self):
        # N=8, scale 2^30, random slots in [-1,1]: decode(encode(v)) within
        # 2^-20 of v, and the integer coefficients match an mpmath oracle
        params = make_params(8)
        rng = np.random.default_rng(0)
        scale = 2.0 ** 30
        for _ in range(20):
            v = rng.uniform(-1, 1, 4)
            pt = encoding.encode(v, scale, params)
            signed, _ = ring.compose_signed(pt.poly)
            oracle_ints = np.rint(hp_embed_to_coeffs(v, 8) * scale).astype(np.int64)
            assert np.array_equal(np.asarray(signed, dtype=np.int64), oracle_ints)
            back = encoding.decode(pt)[:4]
            assert np.max(np.abs(back - v)) < 2.0 ** -20
            # decoded slots also agree with the high-precision embedding
            hp_back = np.real(hp_coeffs_to_slots(signed, 8))[:4] / scale
            assert np.max(np.abs(back - hp_back)) < 2.0 ** -40

    def test_rejects_bad_inputs(self):
        params = make_params()
        with pytest.raises(ValueError):
            encoding.encode(np.zeros(5), 2.0 ** 30, params)  # > N/2 slots
        with pytest.raises(ValueError):
            encoding.encode([np.inf, 0.0], 2.0 ** 30, params)
        with pytest.raises(ValueError):
            encoding.encode([0.5], 2.0 ** 9, params)  # below scale floor

    @pytest.mark.parametrize(
        "values",
        [np.full(8, 2.0 ** 23), [1e300, 0.2], [0.0, -(2.0 ** 22)]],
        ids=["constant-vector", "overflowing", "at-cap"],
    )
    def test_rejects_scaled_slots_past_cap(self, values):
        # max|slot| * scale >= 2^62 is refused before the FFT, with no
        # numpy overflow or invalid-cast warning on the way
        params = make_params(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exact integer range"):
                encoding.encode(values, 2.0 ** 40, params)


class TestEncodeColumns:
    """encoding.encode_columns against encode, column by column."""

    @pytest.mark.parametrize("n, m, d", [(8, 4, 1), (8, 3, 5), (64, 32, 7), (1024, 300, 3), (64, 0, 2)])
    def test_rows_are_encode_of_each_column(self, n, m, d):
        params = make_params(n, [42, 41])
        rng = np.random.default_rng(n + m + d)
        values = rng.normal(0.0, 3.0, (m, d))
        if d > 2:
            values[:, 1] = 0.0
            values[:, 2] *= 2.0 ** 18
        scale = 2.0 ** 40
        ints, errors, bounds = encoding.encode_columns(values, scale, n)
        assert ints.shape == (d, n) and ints.dtype == np.int64
        for j in range(d):
            pt = encoding.encode(values[:, j], scale, params)
            signed, _ = ring.compose_signed(pt.poly)
            assert np.array_equal(ints[j], np.asarray(signed, dtype=np.int64))
            assert (errors[j], bounds[j]) == (pt.round_error, pt.value_bound)

    @pytest.mark.parametrize(
        "column, scale",
        [
            (np.zeros(5), 2.0 ** 30),  # > N/2 slots
            (np.array([np.nan, 0.0]), 2.0 ** 30),
            (np.array([np.inf, 0.0]), 2.0 ** 30),
            (np.array([0.0, -(2.0 ** 22)]), 2.0 ** 40),  # at the 2^62 cap
            (np.array([1e300, 0.2]), 2.0 ** 40),
            (np.array([0.5]), 2.0 ** 9),  # below the scale floor
        ],
        ids=["too-long", "nan", "inf", "at-cap", "overflowing", "low-scale"],
    )
    def test_refuses_what_encode_refuses(self, column, scale):
        # the same message, for the column alone and beside a good one
        params = make_params()
        with pytest.raises(ValueError) as want:
            encoding.encode(column, scale, params)
        for matrix in (column[:, None], np.column_stack((np.zeros(len(column)), column))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as got:
                    encoding.encode_columns(matrix, scale, 8)
            assert str(got.value) == str(want.value)

    def test_refuses_a_vector(self):
        with pytest.raises(ValueError, match="matrix"):
            encoding.encode_columns(np.zeros(4), 2.0 ** 30, 8)


class TestEncodeConstant:
    @pytest.mark.parametrize("value", [0.75, -1.3, 0.0, -2.0 ** 20, 3.0e6])
    def test_residues_equal_ntt_of_constant_polynomial(self, value):
        # c0's residue column, added at every root of the zero element, is
        # the NTT of the constant polynomial c0
        params = make_params(64, [42] + [41] * 5)
        scale = 2.0 ** 30
        c0, err = encoding.encode_constant(value, scale)
        assert c0 == int(np.rint(value * scale))
        assert err == abs(value * scale - c0)
        for level in (0, 2, params.max_level):
            col = ring.constant_column(c0, params, level)
            zero = ring.zero(params, level, ring.Domain.EVALUATION)
            coeffs = np.zeros(64, dtype=np.int64)
            coeffs[0] = c0
            expect = ring.ntt_forward(ring.from_int_coeffs(coeffs, params, level))
            assert np.array_equal(ring.scalar_add(zero, col).residues, expect.residues)

    def test_residues_equal_from_int_coeffs_every_level(self):
        # c0's column against c0 mod q_j in Python ints and against the
        # reduction of a full row; 2^62 - 512 is the largest c0 below the
        # 2^62 cap that a float product value*scale can hit (2^62 - 1
        # rounds up to 2^62). An array of them gives the same columns.
        params = make_params(64, [42] + [41] * 12)
        scale = 2.0 ** 20
        q0 = params.moduli[0]
        c0s = (0, 1, -1, q0 - 1, -(q0 - 1), 2**62 - 512, -(2**62 - 512))
        for c0 in c0s:
            got, err = encoding.encode_constant(c0 / scale, scale)
            assert (got, err) == (c0, 0.0)
            row = np.full(64, c0, dtype=np.int64)
            for level in range(params.level_count):
                col = ring.constant_column(got, params, level)
                want = ring.from_int_coeffs(row, params, level).residues
                assert col.dtype == np.uint64 and col.shape == (level + 1, 1)
                assert col[:, 0].tolist() == [c0 % q for q in params.moduli[: level + 1]]
                assert np.array_equal(np.broadcast_to(col, want.shape), want)
        grid = np.array(c0s).reshape(7, 1)
        cols = ring.constant_column(grid, params, params.max_level)
        assert cols.shape == (7, 1, params.level_count, 1)
        for c0, col in zip(c0s, cols[:, 0]):
            assert np.array_equal(col, ring.constant_column(c0, params, params.max_level))

    def test_decodes_to_the_constant(self):
        params = make_params(16)
        c0, _ = encoding.encode_constant(-0.625, 2.0 ** 20)
        coeffs = np.zeros(16, dtype=np.int64)
        coeffs[0] = c0
        pt = encoding.Plaintext(
            ring.from_int_coeffs(coeffs, params, params.max_level), 2.0 ** 20
        )
        assert np.max(np.abs(encoding.decode(pt) + 0.625)) < 1e-12

    def test_rounds_half_to_even(self):
        scale = 2.0 ** 10
        for scaled, c0 in ((512.0, 512), (2.5, 2), (3.5, 4), (-2.5, -2), (2.75, 3)):
            value = scaled / scale
            assert encoding.encode_constant(value, scale) == (c0, abs(scaled - c0))

    @pytest.mark.parametrize(
        "value, scale",
        [
            (math.inf, 2.0 ** 20),
            (math.nan, 2.0 ** 20),
            (0.5, 2.0 ** 9),  # below the scale floor
            (2.0 ** 22, 2.0 ** 40),  # value*scale = 2^62
            (-(2.0 ** 22), 2.0 ** 40),
            (1e300, 2.0 ** 40),  # value*scale overflows to inf
        ],
    )
    def test_rejects_bad_inputs(self, value, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                encoding.encode_constant(value, scale)


class TestDecode:
    def test_zero_polynomial_decodes_to_zeros(self):
        params = make_params()
        pt = encoding.Plaintext(ring.zero(params, 0), 2.0 ** 30)
        assert np.all(encoding.decode(pt) == 0)

    def test_double_roundtrip_is_projection(self):
        # encode/decode twice lands exactly where one round trip does
        params = make_params(16)
        rng = np.random.default_rng(1)
        v = rng.uniform(-1, 1, 8)
        scale = 2.0 ** 30
        once = encoding.decode(encoding.encode(v, scale, params))
        twice = encoding.decode(encoding.encode(once, scale, params))
        assert np.array_equal(once, twice)

    def test_scale_linearity(self):
        # encoding at 2*scale but recording scale doubles the decoded value
        params = make_params(16)
        rng = np.random.default_rng(2)
        v = rng.uniform(-1, 1, 8)
        scale = 2.0 ** 30
        pt = encoding.encode(v, 2 * scale, params)
        relabeled = encoding.Plaintext(pt.poly, scale, pt.round_error, pt.value_bound)
        assert np.max(np.abs(encoding.decode(relabeled)[:8] - 2 * v)) < 2.0 ** -19


class TestHomomorphisms:
    def test_additivity(self):
        params = make_params(16)
        rng = np.random.default_rng(3)
        scale = 2.0 ** 30
        u, v = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
        single = np.max(
            np.abs(encoding.decode(encoding.encode(u, scale, params))[:8] - u)
        )
        total = ring.ring_add(
            encoding.encode(u, scale, params).poly,
            encoding.encode(v, scale, params).poly,
        )
        back = encoding.decode(encoding.Plaintext(total, scale))[:8]
        assert np.max(np.abs(back - (u + v))) <= 2 * single + 2.0 ** -40

    def test_multiplicativity_at_matched_scale(self):
        # product coefficients live at scale^2, needing a two-prime chain
        params = make_params(16, bits=(42, 41))
        rng = np.random.default_rng(4)
        scale = 2.0 ** 25
        u, v = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
        prod = poly_mul(
            encoding.encode(u, scale, params).poly,
            encoding.encode(v, scale, params).poly,
        )
        back = encoding.decode(encoding.Plaintext(prod, scale * scale))[:8]
        assert np.max(np.abs(back - u * v)) < 2.0 ** -18

    def test_roundtrip_error_bound_with_reported_constant(self):
        # max error over [-1,1] slots bounded by c*N/scale; report c
        rng = np.random.default_rng(5)
        worst_c = 0.0
        for n in (8, 16, 32, 64):
            params = make_params(n)
            scale = 2.0 ** 30
            for _ in range(25):
                v = rng.uniform(-1, 1, n // 2)
                back = encoding.decode(encoding.encode(v, scale, params))[: n // 2]
                err = np.max(np.abs(back - v))
                worst_c = max(worst_c, err * scale / n)
        print(f"\nencode/decode round-trip constant c = {worst_c:.4f} (err <= c*N/scale)")
        assert worst_c < 1.0


class TestFoldedEmbedding:
    """The embedding on ring's folded N/2-point FFT against the N-point
    twisted FFT it replaces and the high-precision oracle."""

    @pytest.mark.parametrize("n", [2 ** k for k in range(3, 16)])
    def test_matches_the_twisted_fft(self, n):
        rng = np.random.default_rng(n)
        v = rng.uniform(-1, 1, n // 2)
        got, want = encoding.embed_to_coeffs(v, n), twisted_embed_to_coeffs(v, n)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # encode's integers at scale 2^40
        ints = np.rint(got * 2.0 ** 40)
        assert np.array_equal(ints, np.rint(want * 2.0 ** 40))
        slots, ref = encoding.coeffs_to_slots(ints, n), twisted_coeffs_to_slots(ints, n)
        assert np.max(np.abs(slots - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_the_high_precision_oracle(self, n):
        rng = np.random.default_rng(n + 1)
        v = rng.uniform(-1, 1, n // 2)
        want = hp_embed_to_coeffs(v, n)
        assert np.max(np.abs(encoding.embed_to_coeffs(v, n) - want)) <= 1e-15 * np.max(np.abs(want))
        hp = hp_coeffs_to_slots(want, n)
        got = encoding.coeffs_to_slots(want, n)
        assert np.max(np.abs(got - hp)) <= 1e-14 * np.max(np.abs(hp))
        assert np.max(np.abs(got.real - v)) < 1e-14

    def test_slot_positions_match_their_definition(self):
        # the doubling build against one Python pow per slot
        for e in range(3, 16):
            n = 1 << e
            want = [(1 - pow(5, k, 2 * n)) // 4 % (n // 2) for k in range(n // 2)]
            pos = encoding.slot_positions(n)
            assert pos.tolist() == want and not pos.flags.writeable

    def test_slots_fill_the_folded_outputs(self):
        # slot k at zeta^(5^k), which is output m of the folded transform
        # when 1 - 4m ≡ 5^k (mod 2N)
        for n in (8, 64, 1024, 32768):
            pos = encoding.slot_positions(n)
            assert sorted(pos.tolist()) == list(range(n // 2))
            for k in (0, 1, 2, n // 2 - 1):
                assert (1 - 4 * int(pos[k]) - pow(5, k, 2 * n)) % (2 * n) == 0
