import ctypes
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnn import neural, ring, scheme
from hnn.errors import ParameterError

from helpers import (
    centred_sum,
    divided_by_python_ints,
    fft_mul_two_step,
    find_ntt_primes_quadratic,
    gaussian_draws,
    gadget_params,
    miller_rabin,
    mod_down_parts,
    mulmod_split,
    naive_negacyclic_transform,
    ntt_forward_ct,
    ntt_inverse_gs,
    pair_with_zero,
    poly_mul,
    primitive_2n_root,
    random_ring_element,
    rescale_lift,
    schoolbook_int_negacyclic,
    schoolbook_mul,
    split,
    uniform_pair,
)


def make_params(n, bit_sizes=(42, 41)):
    return ring.RingParams(n, ring.find_ntt_primes(n, list(bit_sizes)))


def from_coeffs(coeffs, params, level=None):
    if level is None:
        level = params.max_level
    return ring.from_int_coeffs(np.asarray(coeffs, dtype=np.int64), params, level)


class TestParams:
    def test_degree_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            ring.RingParams(12, (13,))
        with pytest.raises(ParameterError):
            ring.RingParams(4, (17,))

    def test_moduli_must_be_ntt_friendly_primes(self):
        with pytest.raises(ParameterError):
            ring.RingParams(8, (15,))  # composite
        with pytest.raises(ParameterError):
            ring.RingParams(8, (19,))  # prime but not 1 mod 16
        with pytest.raises(ParameterError):
            ring.RingParams(8, (17, 17))  # duplicate

    def test_hand_built_chain_refuses_a_composite_whatever_is_cached(self):
        # is_prime keeps a bounded cache of its answers: once 17 and 97
        # are proved, their product, also 1 mod 16, is still refused
        assert ring.is_prime.cache_info().maxsize is not None
        ring.RingParams(8, (17, 97))
        assert ring.is_prime(17) and ring.is_prime(97)
        with pytest.raises(ParameterError, match="1649 is not prime"):
            ring.RingParams(8, (17, 97, 17 * 97))
        assert not ring.is_prime(17 * 97)

    def test_find_ntt_primes_properties(self):
        primes = ring.find_ntt_primes(64, [42, 41, 41, 41])
        assert len(set(primes)) == 4
        for q in primes:
            assert ring.is_prime(q)
            assert q % 128 == 1
        assert primes[0].bit_length() == 42
        for q in primes[1:]:
            assert q.bit_length() == 41


def _chernick_carmichaels(lo, count):
    """The first ``count`` Carmichael numbers (6k+1)(12k+1)(18k+1) >= lo
    whose three factors are prime."""
    k, out = max(1, int((lo / 1296) ** (1 / 3)) - 1), []
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(miller_rabin(f) for f in factors) and math.prod(factors) >= lo:
            out.append(math.prod(factors))
        k += 1
    return out


class TestPrimeSearch:
    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024, 4096, 16384, 32768])
    @pytest.mark.parametrize(
        "bit_sizes",
        [
            [42] + [41] * 12,
            [30, 20, 30, 20],
            [42, 20, 20, 30, 20, 30, 30],
            [36, 17, 18, 17, 18, 17],
            [42, 14, 14, 15],
            [20] * 6,
        ],
    )
    def test_resumed_walk_equals_quadratic_walk(self, n, bit_sizes):
        # the same chain wherever the quadratic walk finds every prime of
        # the size asked; where it takes a wider one (small sizes at large
        # N, whose walks can share one run of candidates from 65537 on),
        # the resumed walk refuses the sizes
        want = find_ntt_primes_quadratic(n, bit_sizes)
        if [q.bit_length() for q in want] == bit_sizes:
            assert ring.find_ntt_primes(n, bit_sizes) == want
        else:
            with pytest.raises(ParameterError, match="no unused"):
                ring.find_ntt_primes(n, bit_sizes)

    @pytest.mark.parametrize(
        "n, bit_sizes, size",
        [
            (32768, [42, 14, 20], 14),  # 65537 is the first candidate
            (1024, [42, 14, 14, 15], 14),
            (16384, [20] * 6, 20),  # four 21-bit primes once filled the chain
            (32768, [18], 18),  # a base prime: 65537 is the largest below 2^18
            (8192, [19, 41], 19),
        ],
    )
    def test_refuses_a_prime_of_another_size(self, n, bit_sizes, size):
        # the quadratic walk returns a prime of another size, which would
        # let the tracked scale drift with no warning
        got = [q.bit_length() for q in find_ntt_primes_quadratic(n, bit_sizes)]
        assert got != bit_sizes
        with pytest.raises(ParameterError, match=f"no unused {size}-bit prime ≡ 1 mod {2 * n}"):
            ring.find_ntt_primes(n, bit_sizes)

    @pytest.mark.parametrize(
        "n, bit_sizes",
        [(4, [42]), (24, [42]), (0, [42]), (64, []), (64, [13]), (64, [42, 43]),
         (32768, [14]), (16384, [15, 20])],
    )
    def test_same_errors_as_quadratic_walk(self, n, bit_sizes):
        with pytest.raises(ParameterError) as want:
            find_ntt_primes_quadratic(n, bit_sizes)
        with pytest.raises(ParameterError) as got:
            ring.find_ntt_primes(n, bit_sizes)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "n", [3215031751, 2152302898747, 3474749660383, 341550071728321]
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        # the least strong pseudoprimes to all of the bases 2..7, 2..11,
        # 2..13 and 2..17; the last is the seven-base bound itself, so
        # only the twelve bases reject it
        assert miller_rabin(n, (2, 3, 5, 7, 11, 13, 17)) == (n == 341550071728321)
        assert not ring.is_prime(n)

    def test_carmichael_numbers_are_composite(self):
        small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
        for n in small + _chernick_carmichaels(2 ** 40, 3) + _chernick_carmichaels(2 ** 49, 3):
            assert not ring.is_prime(n), n

    def test_agrees_with_twelve_bases_on_bench_rings(self):
        depth = neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead()))
        for slots, insecure in ((512, True), (16384, False)):
            params = scheme.param_gen(128, slots, depth, 40, allow_insecure=insecure)
            primes = params.key_ring.moduli
            assert set(params.ring.moduli) <= set(primes)
            for q in primes:
                assert ring.is_prime(q) and miller_rabin(q)
                # the odd neighbours of a chain prime are composite
                for c in (q - 2, q + 2, q + 2 * params.ring.ring_degree):
                    assert ring.is_prime(c) == miller_rabin(c)

    def test_agrees_with_twelve_bases_below_and_above_the_bound(self):
        rng = np.random.default_rng(19)
        for top in (2 ** 42, 341550071728321, 2 ** 62):
            for n in rng.integers(top // 2, top, 4000, dtype=np.int64) | 1:
                assert ring.is_prime(int(n)) == miller_rabin(int(n))


class TestNtt:
    def test_zero_maps_to_zero(self):
        params = ring.RingParams(8, (17,))
        z = ring.zero(params, 0)
        out = ring.ntt_forward(z)
        assert np.all(out.residues == 0)

    def test_roundtrip_exact_1000_random(self):
        params = make_params(64)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            el = random_ring_element(params, params.max_level, rng)
            back = ring.ntt_inverse(ring.ntt_forward(el))
            assert np.array_equal(back.residues, el.residues)

    def test_matches_naive_transform_n8_q17(self):
        # q = 17 is 1 mod 16; forward output is the naive negacyclic
        # evaluation in bit-reversed order
        params = ring.RingParams(8, (17,))
        coeffs = np.arange(1, 9, dtype=np.int64)
        el = from_coeffs(coeffs, params)
        fwd = ring.ntt_forward(el)
        psi = primitive_2n_root(8, 17)
        naive = naive_negacyclic_transform(coeffs, 8, 17, psi)
        perm = ring.bit_reverse_permutation(8)
        assert np.array_equal(fwd.residues[0], naive[perm])
        back = ring.ntt_inverse(fwd)
        assert np.array_equal(back.residues[0], el.residues[0])

    def test_bit_reverse_permutation_reverses_every_index(self):
        # the doubling build against each index's bits read backwards
        for bits in range(3, 16):
            want = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]
            perm = ring.bit_reverse_permutation(1 << bits)
            assert perm.dtype == np.int64 and perm.tolist() == want

    def test_domain_errors(self):
        params = make_params(8, (17,))
        el = from_coeffs([1, 0, 0, 0, 0, 0, 0, 0], params)
        ev = ring.ntt_forward(el)
        with pytest.raises(ValueError):
            ring.ntt_forward(ev)
        with pytest.raises(ValueError):
            ring.ntt_inverse(el)


class TestRingMul:
    # the minimum supported ring degree is 8, so the monomial identities
    # X*X = X^2 and X^(N-1)*X = -1 run there

    def test_monomial_product(self):
        params = ring.RingParams(8, (17,))
        x = from_coeffs([0, 1, 0, 0, 0, 0, 0, 0], params)
        out = poly_mul(x, x)
        expect = from_coeffs([0, 0, 1, 0, 0, 0, 0, 0], params)
        assert np.array_equal(out.residues, expect.residues)

    def test_wraparound_negates(self):
        # X^(N-1) * X = X^N = -1, i.e. constant q-1
        params = ring.RingParams(8, (17,))
        x7 = from_coeffs([0] * 7 + [1], params)
        x1 = from_coeffs([0, 1] + [0] * 6, params)
        out = poly_mul(x7, x1)
        expect = from_coeffs([-1] + [0] * 7, params)
        assert np.array_equal(out.residues, expect.residues)

    def test_matches_schoolbook_random(self):
        params = make_params(64)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_ring_element(params, params.max_level, rng)
            b = random_ring_element(params, params.max_level, rng)
            via_ntt = poly_mul(a, b)
            via_schoolbook = schoolbook_mul(a, b)
            assert np.array_equal(via_ntt.residues, via_schoolbook.residues)

    def test_level_mismatch_rejected(self):
        params = ring.RingParams(8, (17, 97))
        a = from_coeffs([1] * 8, params, level=1)
        b = from_coeffs([1] * 8, params, level=0)
        with pytest.raises(ValueError):
            ring.ring_mul(ring.ntt_forward(a), ring.ntt_forward(b))

    def test_coefficient_operands_rejected(self):
        # pointwise products of coefficients are not the ring product
        params = ring.RingParams(8, (17,))
        x = from_coeffs([0, 1, 0, 0, 0, 0, 0, 0], params)
        with pytest.raises(ValueError):
            ring.ring_mul(x, x)


class TestBatchedChain:
    """The (level+1, N) kernels against per-row and schoolbook oracles on
    a 17-prime chain, at every level."""

    @pytest.fixture(scope="class")
    def chain(self):
        return make_params(64, [42] + [41] * 16)

    def test_ntt_roundtrip_every_level(self, chain):
        rng = np.random.default_rng(11)
        assert chain.level_count == 17
        for level in range(chain.level_count):
            el = random_ring_element(chain, level, rng)
            fwd = ring.ntt_forward(el)
            assert fwd.residues.shape == (level + 1, 64)
            back = ring.ntt_inverse(fwd)
            assert np.array_equal(back.residues, el.residues)

    def test_twiddle_tables_match_python_pow(self, chain):
        # the doubling build against one Python pow per entry: stage s
        # multiplies half-index k by psi^rev(2^s + k mod 2^s), and its
        # table holds the first min(max(2^s, 512), N/2) of them; at
        # N = 2048 the early stages' tables repeat their period
        for n, moduli in ((64, chain.moduli), (2048, ring.find_ntt_primes(2048, [42, 41]))):
            tb = ring._NttTables(n, moduli)
            bits = n.bit_length() - 1
            assert len(tb.psi_stage) == len(tb.ipsi_stage) == bits
            for j, q in enumerate(moduli):
                psi = primitive_2n_root(n, q)
                for s, (w, iw, w_q, iw_q) in enumerate(
                    zip(tb.psi_stage, tb.ipsi_stage, tb.psi_stage_q, tb.ipsi_stage_q)
                ):
                    width = min(max(1 << s, 512), n // 2)
                    exps = [
                        int(format((1 << s) + k % (1 << s), f"0{bits}b")[::-1], 2)
                        for k in range(width)
                    ]
                    assert w.shape == iw.shape == (len(moduli), 1, width)
                    assert w[j, 0].tolist() == [pow(psi, e, q) for e in exps]
                    assert iw[j, 0].tolist() == [pow(psi, -e, q) for e in exps]
                    assert np.array_equal(w_q[j], ring._quotient(w[j], q))
                    assert np.array_equal(iw_q[j], ring._quotient(iw[j], q))
                assert (tb.n_inv_wide[j] == pow(n, -1, q)).all()
                assert np.array_equal(tb.n_inv_q[j], ring._quotient(tb.n_inv_wide[j], q))
                assert (tb.q[j] == q).all() and (tb.q2_half[j] == 2 * q).all()

    def test_ntt_rows_match_single_prime_rings(self, chain):
        # row j of a chain NTT equals the NTT over the one-prime ring q_j
        rng = np.random.default_rng(12)
        el = random_ring_element(chain, chain.max_level, rng)
        fwd = ring.ntt_forward(el)
        for j, q in enumerate(chain.moduli):
            single = ring.RingElement(
                ring.RingParams(64, (q,)), 0, el.residues[j : j + 1].copy(),
                ring.Domain.COEFFICIENT,
            )
            assert np.array_equal(ring.ntt_forward(single).residues[0], fwd.residues[j])

    def test_ring_mul_matches_schoolbook_every_level(self, chain):
        rng = np.random.default_rng(13)
        for level in range(chain.level_count):
            a = random_ring_element(chain, level, rng)
            b = random_ring_element(chain, level, rng)
            assert np.array_equal(
                poly_mul(a, b).residues, schoolbook_mul(a, b).residues
            )

    def test_add_sub_match_python_ints(self, chain):
        rng = np.random.default_rng(14)
        level = 9
        a = random_ring_element(chain, level, rng)
        b = random_ring_element(chain, level, rng)
        # all q-1 and all zero: the conditional subtracts at both edges
        top = chain._q_col[: level + 1] - np.uint64(1)
        extreme = ring.RingElement(
            chain, level, np.broadcast_to(top, (level + 1, 64)).copy(),
            ring.Domain.COEFFICIENT,
        )
        zero = ring.zero(chain, level)
        for left, right in ((a, b), (extreme, extreme), (zero, extreme), (extreme, zero)):
            for j, q in enumerate(chain.moduli[: level + 1]):
                x = [int(v) for v in left.residues[j]]
                y = [int(v) for v in right.residues[j]]
                assert ring.ring_add(left, right).residues[j].tolist() == [
                    (u + v) % q for u, v in zip(x, y)
                ]
                assert ring.ring_sub(left, right).residues[j].tolist() == [
                    (u - v) % q for u, v in zip(x, y)
                ]

    def test_compose_matches_python_crt(self, chain):
        rng = np.random.default_rng(15)
        el = random_ring_element(chain, 5, rng)
        values, big_q = ring.compose(el)
        assert big_q == chain.modulus_product(5)
        for j, q in enumerate(chain.moduli[:6]):
            assert [int(v) % q for v in values] == el.residues[j].tolist()
        assert all(0 <= int(v) < big_q for v in values)

    def test_crt_gadget_identity_every_level(self, chain):
        # the relinearization gadget: c2 = sum_j d_j*e_j mod Q_l, with
        # d_j row j of c2 centred into (-q_j/2, q_j/2] and e_j the chain's
        # CRT idempotent, which is the all-ones row j with the rest zero
        top = chain.max_level
        idem = []
        for j in range(chain.level_count):
            rows = np.zeros((chain.level_count, chain.ring_degree), dtype=np.uint64)
            rows[j] = 1
            values, _ = ring.compose(ring.RingElement(chain, top, rows, ring.Domain.COEFFICIENT))
            idem.append(int(values[0]))
            assert [idem[j] % q for q in chain.moduli] == [
                int(i == j) for i in range(chain.level_count)
            ]
        rng = np.random.default_rng(16)
        for level in range(chain.level_count):
            c2 = random_ring_element(chain, level, rng)
            q = chain._q_col[: level + 1].astype(np.int64)
            rows = c2.residues.astype(np.int64)
            digits = np.where(rows > q // 2, rows - q, rows)
            assert np.all(2 * np.abs(digits) <= q)
            values, big_q = ring.compose(c2)
            for i in range(chain.ring_degree):
                total = sum(int(digits[j, i]) * idem[j] for j in range(level + 1))
                assert total % big_q == int(values[i])


# largest 42-bit and smallest 14-bit NTT primes of the N=1024 ring
_Q_LARGEST = ring.prime_below(1 << 42, 2 * 1024)
_Q_SMALLEST = ring.prime_above(1 << 13, 2 * 1024)
# a depth-12, 13-prime chain at 512 slots (N = 1024): the three-class
# head's 12 primes and the next one
_DEFAULT_CHAIN = scheme.param_gen(128, 512, 12, scale_bits=40, allow_insecure=True).ring.moduli
_Y_BOUND = 1 << 49


def _pairs(q):
    """Lists of (y, w) at the product's input bounds y < 2^49, w < q."""
    return st.lists(
        st.tuples(st.integers(0, _Y_BOUND - 1), st.integers(0, q - 1)),
        min_size=1, max_size=32,
    )


class TestDivisionFreeKernels:
    """The constant-geometry lazy kernels against the Cooley-Tukey /
    Gentleman-Sande slow path they replace, bit for bit, and the
    biased float-quotient product against Python ints."""

    @pytest.mark.parametrize(
        "n, bit_sizes",
        [
            (64, [42] + [41] * 16),
            (1024, [42] + [41] * 15),
            (64, [20, 14, 17, 15, 19, 16, 18]),
            # passes of 8 rows: the top levels take two row chunks
            (2048, [42] + [41] * 12),
        ],
    )
    def test_kernels_match_slow_path_every_level(self, n, bit_sizes):
        chain = make_params(n, bit_sizes)
        rng = np.random.default_rng(21)
        for level in range(chain.level_count):
            q = chain._q_col[: level + 1]
            for res in (
                rng.integers(0, q, (level + 1, n), dtype=np.uint64),
                np.broadcast_to(q - np.uint64(1), (level + 1, n)).copy(),
            ):
                coeff = ring.RingElement(chain, level, res, ring.Domain.COEFFICIENT)
                ev = ring.RingElement(chain, level, res, ring.Domain.EVALUATION)
                assert np.array_equal(ring.ntt_forward(coeff).residues, ntt_forward_ct(coeff))
                every = slice(0, level + 1)
                assert np.array_equal(ring.ntt_inverse(ev).residues, ntt_inverse_gs(ev, every))
                # the one-row inverse a rescale runs on the top prime
                top = slice(level, level + 1)
                got = ring._ntt_inverse_block(res[None, top], ring._tables(chain), level)
                assert np.array_equal(got[0], ntt_inverse_gs(ev, top))

    def test_largest_growth_at_n_32768(self):
        # without per-stage reduction the all-(q - 1) input grows the most,
        # to below 31q after 15 stages; passes of one row, against moduli
        # tables that are zero-stride views
        chain = make_params(32768, [42] + [41] * 12)
        res = np.broadcast_to(chain._q_col - np.uint64(1), (13, 32768)).copy()
        el = ring.RingElement(chain, 12, res, ring.Domain.COEFFICIENT)
        assert np.array_equal(ring.ntt_forward(el).residues, ntt_forward_ct(el))
        ev = ring.RingElement(chain, 12, res, ring.Domain.EVALUATION)
        assert np.array_equal(ring.ntt_inverse(ev).residues, ntt_inverse_gs(ev, slice(0, 13)))

    def test_from_int_coeffs_small_path_matches_np_mod(self):
        # below 2 min q the offset-and-subtract path, from 2 min q on np.mod;
        # the chain mixes 14- to 42-bit primes, so rows see both sizes
        chain = make_params(64, [42, 41, 20, 14, 17])
        bound = 2 * min(chain.moduli)
        rng = np.random.default_rng(24)
        for c in (bound - 1, bound):
            for sign in (1, -1):
                coeffs = rng.integers(-c, c + 1, 64)
                coeffs[:4] = (sign * c, -sign * c, 0, sign)
                for level in range(chain.level_count):
                    q = chain._q_col[: level + 1].astype(np.int64)
                    got = ring.from_int_coeffs(coeffs, chain, level).residues
                    assert got.dtype == np.uint64
                    assert np.array_equal(got, np.mod(coeffs, q).astype(np.uint64))

    @staticmethod
    def _check_mul_lazy(pairs, q):
        y = np.array([p[0] for p in pairs], dtype=np.uint64)
        w = np.array([p[1] for p in pairs], dtype=np.uint64)
        # the biased quotient, as the tables store it and mulmod forms it
        r = ring._mul(y, w, ring._quotient(w, q), np.uint64(q), *ring._scratch(y.shape))
        for (yi, wi), ri in zip(pairs, r.tolist()):
            # r = y*w - est*q in wrapping uint64 with q odd fixes est, so
            # r in [0, 2q) with r = y*w mod q says est is floor(y*w/q)
            # or one below it
            assert 0 <= ri < 2 * q
            assert ri % q == yi * wi % q
        # mulmod: the same product reduced into [0, q)
        assert ring.mulmod(y, w, np.uint64(q)).tolist() == [
            yi * wi % q for yi, wi in pairs
        ]

    @settings(max_examples=300, deadline=None)
    @given(pairs=_pairs(_Q_LARGEST))
    @example(pairs=[(_Y_BOUND - 1, _Q_LARGEST - 1), (0, _Q_LARGEST - 1), (1, 1)])
    @example(pairs=[(4 * _Q_LARGEST - 1, _Q_LARGEST - 1), (31 * _Q_LARGEST, 1)])
    @example(pairs=[(_Q_LARGEST - 1, _Q_LARGEST - 1), (_Q_LARGEST - 1, 0), (0, 0)])
    # the quotient estimate one short: the lazy result lies in [q, 2q)
    @example(pairs=[(14340003587109, 315425793342)])
    # an unbiased quotient overshoots here: trunc(y*(w/q)) = floor(y*w/q) + 1
    @example(pairs=[(16673870588240, 3952548027273)])
    def test_mul_lazy_largest_42_bit_prime(self, pairs):
        assert _Q_LARGEST.bit_length() == 42
        self._check_mul_lazy(pairs, _Q_LARGEST)

    @settings(max_examples=300, deadline=None)
    @given(pairs=_pairs(_Q_SMALLEST))
    @example(pairs=[(_Y_BOUND - 1, _Q_SMALLEST - 1), (0, _Q_SMALLEST - 1), (1, 1)])
    @example(pairs=[(4 * _Q_SMALLEST - 1, _Q_SMALLEST - 1), (31 * _Q_SMALLEST, 1)])
    @example(pairs=[(_Q_SMALLEST - 1, _Q_SMALLEST - 1), (_Q_SMALLEST - 1, 0), (0, 0)])
    @example(pairs=[(_Q_SMALLEST, 13)])
    def test_mul_lazy_smallest_14_bit_prime(self, pairs):
        assert _Q_SMALLEST.bit_length() == 14
        self._check_mul_lazy(pairs, _Q_SMALLEST)

    @pytest.mark.parametrize("q", (_Q_LARGEST, _Q_SMALLEST) + _DEFAULT_CHAIN)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_biased_estimate_floor_or_one_below(self, q, data):
        # the product's quotient estimate est, read back from its
        # remainder r = y*w - est*q, for y < 2^49 and w < q
        pairs = data.draw(_pairs(q))
        pairs += [(_Y_BOUND - 1, q - 1), (_Y_BOUND - 1, 1), (q, q - 1)]
        y = np.array([p[0] for p in pairs], dtype=np.uint64)
        w = np.array([p[1] for p in pairs], dtype=np.uint64)
        r = ring._mul(y, w, ring._quotient(w, q), np.uint64(q), *ring._scratch(y.shape))
        for (yi, wi), ri in zip(pairs, r.tolist()):
            est, rem = divmod(yi * wi - ri, q)
            assert rem == 0
            assert est in (yi * wi // q - 1, yi * wi // q)

    def test_mulmod_matches_split_product_every_level(self):
        # (16, 1024) blocks against the moduli column, as the tables use it
        chain = make_params(1024, [42] + [41] * 15)
        rng = np.random.default_rng(22)
        q = chain._q_col
        a = rng.integers(0, q, (16, 1024), dtype=np.uint64)
        b = rng.integers(0, q, (16, 1024), dtype=np.uint64)
        a[:, :2] = q - np.uint64(1)
        b[:, 1:3] = q - np.uint64(1)
        for level in range(chain.level_count):
            rows = slice(0, level + 1)
            assert np.array_equal(
                ring.mulmod(a[rows], b[rows], q[rows]),
                mulmod_split(a[rows], b[rows], q[rows]),
            )

    def test_one_prime_conversion_is_the_centred_lift_every_level(self):
        # the lift of a rescale: the top row centred in Python integers,
        # so that a Coefficient pair divided by q_top is (x_j - top) *
        # q_top^-1 mod every prime q_j below it
        chain = make_params(64, [42] + [41] * 16)
        rng = np.random.default_rng(23)
        for level in range(1, chain.level_count):
            q = chain._q_col[: level + 1]
            res = rng.integers(0, q, (2, level + 1, 64), dtype=np.uint64)
            # the centring boundary q//2 -> itself, q//2 + 1 -> negative
            res[0, :, 0] = q[:, 0] // np.uint64(2)
            res[0, :, 1] = q[:, 0] // np.uint64(2) + np.uint64(1)
            res[0, :, 2] = q[:, 0] - np.uint64(1)
            res[0, :, 3] = 0
            el = ring.RingElement(chain, level, res, ring.Domain.COEFFICIENT)
            q_top = chain.moduli[level]
            tops = [[c - q_top if c > q_top // 2 else c for c in x[level].tolist()] for x in res]
            assert tops[0][:2] == [q_top // 2, -(q_top // 2)]
            conv = ring.Conversion(chain, slice(level, level + 1), chain, level - 1)
            got = ring.ntt_inverse(ring.divide(el, conv))
            for part, x, top in zip(got.residues, res, tops):
                want = [
                    [(c - t) * pow(q_top, -1, qj) % qj for c, t in zip(row, top)]
                    for row, qj in zip(x.tolist(), chain.moduli[:level])
                ]
                assert part.tolist() == want


class TestConversionRows:
    """Every conversion SchemeParams builds holds the row facts that
    divide and mod_up once derived on each call, fixed when it is built:
    its rows as an int64 index array, lead and own, against those per-call
    derivations written out here, on the N = 32 test ring (k = 2), the
    default head's N = 1024 ring (k = 6) and a CRT gadget set (k = 0)."""

    @pytest.fixture(scope="class", params=["n32", "n1024", "gadget"])
    def params(self, request):
        if request.param == "n32":
            return request.getfixturevalue("small_params")
        if request.param == "gadget":
            params = scheme.param_gen(128, 4, 1)
            assert params.special_count == 0
            return params
        depth = neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead()))
        return scheme.param_gen(128, 512, depth, scale_bits=40, allow_insecure=True)

    @staticmethod
    def lead(rows):
        """divide's: the dropped rows that open the chain."""
        lead = 0
        while lead < len(rows) and rows[lead] == lead:
            lead += 1
        return lead

    @staticmethod
    def own(conv, level):
        """mod_up's: the target rows [:level+1] that hold source primes,
        and the source row of each."""
        row_of = {conv.src.moduli[i]: i for i in conv.rows.tolist()}
        targets = conv.dst.moduli[: level + 1]
        own = [t for t, p in enumerate(targets) if p in row_of]
        return own, [row_of[targets[t]] for t in own]

    def test_lead_and_own_equal_the_per_call_derivation(self, params):
        rp, k = params.ring, params.special_count
        ups = {id(conv) for convs in params.mod_up for conv in convs}
        assert len(ups) == rp.level_count
        for lv in range(rp.level_count):
            for d, conv in zip(params.digits(lv), params.mod_up[lv], strict=True):
                rows = conv.rows.tolist()
                assert conv.rows.dtype == np.int64 and rows == list(range(d.start, d.stop))
                own, src_rows = self.own(conv, k + lv)
                assert conv.own.tolist() == own and src_rows == rows
                assert conv.lead == self.lead(rows)
        divs = [(params.mod_down, list(range(k)))] if k else []
        for lv in range(1, rp.level_count):
            divs += [(params.rescale_div[lv], [lv])]
            divs += [(params.mult_rescale_div[lv], [*range(k), k + lv])]
            if not k:
                assert params.mult_rescale_div[lv] is params.rescale_div[lv]
        for conv, rows in divs:
            assert conv.rows.dtype == np.int64 and conv.rows.tolist() == rows
            assert conv.lead == self.lead(rows)
            assert conv.own.tolist() == self.own(conv, conv.level)[0] == []

    def test_divisors_hold_their_inverse_and_mod_up_has_none(self, params):
        # D^-1 lives in the divisor, so divide cannot pair a conversion
        # with another divisor's column; a ModUp digit has no D^-1
        rp, k = params.ring, params.special_count
        divs = [params.mod_down] if k else []
        divs += [*params.rescale_div[1:], *params.mult_rescale_div[1:]]
        for conv in divs:
            d = math.prod(conv.src.moduli[i] for i in conv.rows.tolist())
            want = [[pow(d, -1, t)] for t in conv.dst.moduli[: conv.level + 1]]
            assert conv.d_inv.dtype == np.uint64 and conv.d_inv.tolist() == want
        pair = ring.zero(params.key_ring, k + rp.max_level)
        pair = ring.pair(pair, pair)
        for conv in {id(c): c for convs in params.mod_up for c in convs}.values():
            assert conv.d_inv is None
            with pytest.raises(ValueError, match="ModUp"):
                ring.divide(pair, conv)


class TestScalarKernels:
    """scalar_mul and scalar_add against the N-wide route they replace:
    the column broadcast to an (l+1, N) block, through mulmod, ring_mul
    and ring_add."""

    @pytest.fixture(scope="class")
    def chain(self):
        return make_params(1024, [42] + [41] * 12)

    @staticmethod
    def _columns(q, rng):
        return (
            rng.integers(0, q, q.shape, dtype=np.uint64),
            q - np.uint64(1),
            np.zeros_like(q),
        )

    def test_scalar_mul_matches_block_every_level(self, chain):
        rng = np.random.default_rng(25)
        for level in range(chain.level_count):
            q = chain._q_col[: level + 1]
            res = rng.integers(0, q, (level + 1, 1024), dtype=np.uint64)
            res[:, :2] = q - np.uint64(1)
            for col in self._columns(q, rng):
                block = np.broadcast_to(col, res.shape).copy()
                want = ring.mulmod(res, block, q)
                for domain in ring.Domain:
                    el = ring.RingElement(chain, level, res, domain)
                    got = ring.scalar_mul(el, col)
                    assert got.domain == domain and got.level == level
                    assert np.array_equal(got.residues, want)
                    assert np.array_equal(got.residues, mulmod_split(res, block, q))
                ev = ring.RingElement(chain, level, res, ring.Domain.EVALUATION)
                by_block = ring.ring_mul(ev, ev._like(block)).residues
                assert np.array_equal(ring.scalar_mul(ev, col).residues, by_block)

    def test_scalar_add_matches_block_every_level(self, chain):
        rng = np.random.default_rng(26)
        for level in range(chain.level_count):
            q = chain._q_col[: level + 1]
            res = rng.integers(0, q, (level + 1, 1024), dtype=np.uint64)
            res[:, :2] = q - np.uint64(1)
            ev = ring.RingElement(chain, level, res, ring.Domain.EVALUATION)
            for col in self._columns(q, rng):
                block = ev._like(np.broadcast_to(col, res.shape).copy())
                got = ring.scalar_add(ev, col)
                assert np.array_equal(got.residues, ring.ring_add(ev, block).residues)
            with pytest.raises(ValueError, match="Evaluation"):
                ring.scalar_add(ring.ntt_inverse(ev), col)

    def test_scalar_mul_sums_match_per_term_products(self, chain):
        # sum_k pairs[k] * weights[k, c] against 21-bit split products of
        # each part by the weight's residues, summed in Python ints, with
        # weights 0, ±1 and ±2^62 among random ones
        rng = np.random.default_rng(27)
        cap = ring.MAX_WEIGHT
        for level in (0, 5, chain.max_level):
            q = chain._q_col[: level + 1]
            for d, c in ((1, 1), (3, 2), (17, 3)):
                pairs = [
                    ring.RingElement(
                        chain, level,
                        rng.integers(0, q, (2, level + 1, 1024), dtype=np.uint64),
                        ring.Domain.EVALUATION,
                    )
                    for _ in range(d)
                ]
                weights = rng.integers(-cap, cap, (d, c), endpoint=True)
                extremes = [0, 1, -1, cap, -cap]
                weights.flat[: len(extremes)] = extremes[: weights.size]
                sums = ring.scalar_mul_sums(pairs, weights)
                assert len(sums) == c
                for j in range(c):
                    got = sums[j]
                    assert (got.level, got.domain, got.parts_shape) == (
                        level, ring.Domain.EVALUATION, (2,),
                    )
                    for p in range(2):
                        want = sum(
                            mulmod_split(x.residues[p], np.broadcast_to(
                                ring.constant_column(weights[k, j], chain, level),
                                x.residues[p].shape), q).astype(object)
                            for k, x in enumerate(pairs)
                        ) % q.astype(object)
                        assert np.array_equal(got.residues[p], want.astype(np.uint64))

    @pytest.mark.parametrize("classes", [1, 3])
    def test_scalar_mul_sums_equal_the_per_term_path(self, chain, classes):
        # the slow path the kernel replaced: one scalar_mul per term by the
        # weight's residue column, folded by ring_add; both domains, levels
        # 0, mid and top, residues 0 and q - 1 among random ones
        rng = np.random.default_rng(28 + classes)
        big = ring.MAX_WEIGHT - 1
        for level in (0, 6, chain.max_level):
            q = chain._q_col[: level + 1]
            for domain in ring.Domain:
                pairs = []
                for _ in range(6):
                    res = rng.integers(0, q, (2, level + 1, 1024), dtype=np.uint64)
                    res[:, :, :3] = q - np.uint64(1)
                    res[:, :, 3] = 0
                    pairs.append(ring.RingElement(chain, level, res, domain))
                # weights 0, ±1, ±(2^62 - 1) and one more, every column mixed
                values = [0, 1, -1, big, -big, -(3 << 40)]
                weights = np.array(
                    [[values[(k + c) % 6] for c in range(classes)] for k in range(6)], np.int64
                )
                sums = ring.scalar_mul_sums(pairs, weights)
                for c, got in enumerate(sums):
                    want = None
                    for el, w in zip(pairs, weights[:, c]):
                        term = ring.scalar_mul(el, ring.constant_column(w, chain, level))
                        want = term if want is None else ring.ring_add(want, term)
                    assert (got.level, got.domain) == (level, domain)
                    assert np.array_equal(got.residues, want.residues)

    def test_scalar_mul_sums_exact_across_the_float_flush(self):
        # 4097 terms on N = 32 cross the flush after 4096, at the edge of
        # float64's exact integers. The base prime lies within 2^20 of
        # 2^42, so on part 0, q - 1 has the high limb 2^21, which the
        # weight -2^62, top limb -2^20, takes to exactly -2^53 over 4096
        # terms. On part 1 the high limb is 2^21 - 1, and the weight
        # 2^62 - 2^42 + 12345 has the top limb 2^20 - 1: odd products
        # whose sum over all 4097 terms, past 2^53, would round in float64.
        rp = make_params(32, (42, 41, 30))
        q = rp._q_col
        assert q[0, 0] > (1 << 42) - (1 << 20)
        rng = np.random.default_rng(29)
        d = 4097
        assert ring._SUM_FLUSH == d - 1
        pairs = []
        for _ in range(d):
            res = np.broadcast_to(q - np.uint64(1), (2, 3, 32)).copy()
            res[1] = rng.integers(0, q, (3, 32), dtype=np.uint64)
            res[1, 0] = q[0] - np.uint64(1 + (1 << 20)) - rng.integers(0, 1 << 19, 32, dtype=np.uint64)
            pairs.append(ring.RingElement(rp, rp.max_level, res, ring.Domain.COEFFICIENT))
        weights = np.empty((d, 3), np.int64)
        weights[:, 0] = -ring.MAX_WEIGHT
        weights[:, 1] = ring.MAX_WEIGHT - (1 << 42) + 12345
        weights[:, 2] = rng.integers(-ring.MAX_WEIGHT, ring.MAX_WEIGHT, d, endpoint=True)
        sums = ring.scalar_mul_sums(pairs, weights)
        cols = ring.constant_column(weights, rp, rp.max_level)
        for c, got in enumerate(sums):
            want = None
            for el, col in zip(pairs, cols[:, c]):
                term = ring.scalar_mul(el, col)
                want = term if want is None else ring.ring_add(want, term)
            assert np.array_equal(got.residues, want.residues)

    def test_scalar_mul_sums_reject_bad_input(self, chain):
        el = ring.zero(chain, 2, ring.Domain.EVALUATION)
        two = pair_with_zero(el)
        w = np.zeros((2, 1), np.int64)
        cap = ring.MAX_WEIGHT
        bad = [
            ([], w[:0]),
            ([two, el], w),
            ([two, pair_with_zero(ring.zero(chain, 1, ring.Domain.EVALUATION))], w),
            ([two, pair_with_zero(ring.ntt_inverse(el))], w),
            ([two] * 2, w[:1]),
            ([two] * 2, w[:, 0]),
            ([two] * 2, w[:, :, None]),
            ([two] * 2, w.astype(np.float64)),
            ([two] * 2, w.astype(np.uint64)),
            ([two] * 2, w.tolist()),
            ([two] * 2, w + (cap + 1)),
            ([two] * 2, w - (cap + 1)),
            ([two] * 2, w + np.iinfo(np.int64).min),
        ]
        for els, weights in bad:
            with pytest.raises(ValueError):
                ring.scalar_mul_sums(els, weights)
        n = ring.MAX_SUM_TERMS + 1
        with pytest.raises(ValueError, match="terms outside"):
            ring.scalar_mul_sums([two] * n, np.broadcast_to(w[:1], (n, 1)))

    def test_bad_columns_rejected(self, chain):
        el = ring.zero(chain, 2, ring.Domain.EVALUATION)
        q = chain._q_col[:3]
        for col in (q[:2], q[:, 0], (q - np.uint64(1)).astype(np.int64), q):
            for op in (ring.scalar_mul, ring.scalar_add):
                with pytest.raises(ValueError):
                    op(el, col)


class TestKeySwitchKernels:
    """mod_up and divide against the centred sum formed in Python
    integers, and mul_sums against ring_mul and ring_add, on a depth-12
    N=1024 key ring: seven 42-bit special primes ahead of a 13-prime
    chain."""

    @pytest.fixture(scope="class")
    def params(self):
        return scheme.param_gen(128, 512, 12, scale_bits=40, allow_insecure=True)

    @pytest.fixture(scope="class")
    def rings(self, params):
        return params.ring, params.key_ring

    @staticmethod
    def residues(rp, shape, rng):
        # random residues, with the extremes 0 and q - 1 in every row
        q = rp._q_col[: shape[-2]]
        x = rng.integers(0, q, shape, dtype=np.uint64)
        x[..., :2] = q - np.uint64(1)
        x[..., 2] = 0
        return x

    def test_mod_up_equals_the_full_conversion_every_level(self, params):
        # each digit's ModUp into P ∪ Q_l, with its own rows taken from the
        # Evaluation input, against the NTT of the centred sum of the
        # digit's rows, at every level of the 13-prime chain; and on the
        # CRT gadget's chain (k = 0, a digit per prime)
        rng = np.random.default_rng(44)
        for ps in (params, gadget_params()):
            chain, key, k = ps.ring, ps.key_ring, ps.special_count
            n = chain.ring_degree
            for level in range(chain.level_count) if ps is params else (1, chain.max_level):
                x = self.residues(chain, (level + 1, n), rng)
                c2 = ring.RingElement(chain, level, x, ring.Domain.COEFFICIENT)
                d2 = ring.ntt_forward(c2)
                for conv in ps.mod_up[level]:
                    got = ring.mod_up(c2, d2, conv, k + level)
                    total = centred_sum(x[conv.rows], [chain.moduli[i] for i in conv.rows])
                    want = ring.ntt_forward(ring.from_int_coeffs(total, key, k + level))
                    assert (got.params, got.level, got.domain) == (
                        key, k + level, ring.Domain.EVALUATION,
                    )
                    assert np.array_equal(got.residues, want.residues)

    def test_mod_up_rejects_bad_input(self, params):
        chain, key, k = params.ring, params.key_ring, params.special_count
        c2 = ring.sample_uniform(chain, 5, np.random.default_rng(45).bytes(32))
        d2, c2 = c2, ring.ntt_inverse(c2)
        conv = params.mod_up[5][0]
        bad = [
            (d2, d2), (c2, c2), (c2, ring.drop_level(d2, 4)),
            (pair_with_zero(c2), pair_with_zero(d2)),
        ]
        for a, a_eval in bad:
            with pytest.raises(ValueError):
                ring.mod_up(a, a_eval, conv, key.max_level)
        with pytest.raises(ValueError, match="does not fit"):
            ring.mod_up(c2, d2, conv, key.max_level + 1)
        # a digit above the element (rows 7-12 at level 5), a digit above
        # the target level (rows 7-12 into P ∪ Q_5), and conversions whose
        # source primes are not all targets: a rescale's, and one prime
        # of two
        d12 = ring.sample_uniform(chain, 12, np.random.default_rng(46).bytes(32))
        assert params.mod_up[12][-1].rows.tolist() == list(range(7, 13))
        cases = [
            (c2, d2, params.mod_up[12][-1], key.max_level),
            (ring.ntt_inverse(d12), d12, params.mod_up[12][-1], k + 5),
            (c2, d2, params.rescale_div[5], 4),
            (c2, d2, ring.Conversion(chain, [3, 5], chain, 4), 4),
        ]
        for a, a_eval, conv, level in cases:
            with pytest.raises(ValueError, match="does not fit"):
                ring.mod_up(a, a_eval, conv, level)

    def test_mod_up_and_divide_are_the_centred_sum(self, params):
        chain, key, k = params.ring, params.key_ring, params.special_count
        rng = np.random.default_rng(41)
        # ModUp digits (a full one, the top prime alone, a short one at a
        # low level) and ModDown from the special primes, top and bottom;
        # constants built for dst's whole chain serve every level
        for rows, level in ((slice(4, 8), 12), (slice(12, 13), 12), (slice(0, 3), 2)):
            primes = chain.moduli[rows]
            x = self.residues(chain, (level + 1, 1024), rng)
            total = centred_sum(x[rows], primes)
            # a lift of x mod D, off by at most S/2 multiples of D
            for row, q in zip(x[rows].astype(object), primes):
                assert np.all(total % q == row)
            d = math.prod(primes)
            assert max(abs(v) for v in total) <= len(primes) * d // 2
            a = ring.RingElement(chain, level, x, ring.Domain.COEFFICIENT)
            want = np.array([total % t for t in key.moduli[: k + level + 1]]).astype(np.uint64)
            for top in (k + level, key.max_level):
                conv = ring.Conversion(chain, rows, key, top)
                out = ring.mod_up(a, ring.ntt_forward(a), conv, k + level)
                assert (out.params, out.level, out.domain) == (key, k + level, ring.Domain.EVALUATION)
                assert np.array_equal(ring.ntt_inverse(out).residues, want)
        big_p = math.prod(key.moduli[:k])
        for level in (12, 0):
            x = self.residues(key, (2, k + level + 1, 1024), rng)
            pair = ring.RingElement(key, k + level, x, ring.Domain.COEFFICIENT)
            for top in (level, chain.max_level):
                out = ring.divide(pair, ring.Conversion(key, slice(0, k), chain, top))
                assert (out.params, out.level, out.domain) == (chain, level, ring.Domain.EVALUATION)
                for got, part in zip(ring.ntt_inverse(out).residues, x):
                    total = centred_sum(part[:k], key.moduli[:k])
                    want = [
                        (row.astype(object) - total) * pow(big_p, -1, q) % q
                        for row, q in zip(part[k:], chain.moduli)
                    ]
                    assert np.array_equal(got, np.array(want).astype(np.uint64))

    def test_conversion_rejects_bad_input(self, params):
        chain, key, k = params.ring, params.key_ring, params.special_count
        for rows in ([3, 1], [2, 2], [], [0, 13], [-1], slice(5, 5)):
            with pytest.raises(ValueError, match="increasing"):
                ring.Conversion(chain, rows, key, 4)
        conv = ring.Conversion(chain, slice(0, 2), key, k + 4)
        a = ring.sample_uniform(chain, 1, np.random.default_rng(47).bytes(32))
        with pytest.raises(ValueError, match="Coefficient"):
            ring.mod_up(a, a, conv, k + 4)
        # source rows above the element, an element of another chain, or a
        # target level above the constants'
        bad = ((ring.zero(chain, 0), k + 4), (ring.zero(key, 1), k + 4), (ring.zero(chain, 1), k + 5))
        for el, level in bad:
            with pytest.raises(ValueError, match="does not fit"):
                ring.mod_up(el, ring.ntt_forward(el), conv, level)
        # a division whose dropped rows past P are not the element's top
        # rows: below them, with a gap, or beyond them. Over the chain's
        # whole length the dropped primes are targets, so no D^-1 exists;
        # over the kept rows alone, the tail check sees rows beyond the top
        pair = ring.RingElement(
            key, k + 5, np.zeros((2, k + 6, 1024), np.uint64), ring.Domain.EVALUATION,
        )
        for tail in ([k + 3], [k + 3, k + 5], [k + 4, k + 6]):
            conv = ring.Conversion(key, [*range(k), *tail], chain, chain.max_level)
            assert conv.d_inv is None
            with pytest.raises(ValueError, match="ModUp"):
                ring.divide(pair, conv)
        with pytest.raises(ValueError, match="does not fit"):
            ring.divide(pair, ring.Conversion(key, [*range(k), k + 6], chain, 4))
        assert ring.divide(pair, ring.Conversion(key, [*range(k), k + 5], chain, 4)).level == 4

    def test_chain_tables_are_rows_of_the_key_ring_tables(self, rings):
        chain, key = rings
        whole, shared = ring._tables(key), ring._tables(chain)
        fresh = ring._NttTables(chain.ring_degree, chain.moduli)
        assert np.shares_memory(shared.psi_stage[0], whole.psi_stage[0])
        for name in fresh.__slots__:
            want, got = getattr(fresh, name), getattr(shared, name)
            if not isinstance(want, tuple):
                want, got = (want,), (got,)
            assert len(want) == len(got)
            assert all(np.array_equal(w, g) for w, g in zip(want, got))

    def test_stage_tables_are_contiguous(self, rings):
        # a butterfly reads a row's twiddles, so every stage table of the
        # key ring, and the chain's row views of them, is C-contiguous
        for rp in rings:
            tb = ring._tables(rp)
            for name in ("psi_stage", "psi_stage_q", "ipsi_stage", "ipsi_stage_q"):
                for w in getattr(tb, name):
                    assert w.flags.c_contiguous
                    assert w[4:9].flags.c_contiguous and w[7:8].flags.c_contiguous

    def test_ntt_does_not_depend_on_the_row_passes(self, rings, monkeypatch):
        # 17 key-ring rows at N = 1024 run as one pass; with 4 rows a pass
        # they run as 4 passes of 4 or 5 rows, with the same results
        _, key = rings
        el = ring.sample_uniform(key, key.max_level, np.random.default_rng(43).bytes(32))
        one = (ring.ntt_inverse(el), ring.ntt_forward(ring.ntt_inverse(el)))
        monkeypatch.setattr(ring, "_NTT_CHUNK", 4 * 1024)
        assert len(ring._passes(1, 17, 1024)) == 4
        many = (ring.ntt_inverse(el), ring.ntt_forward(ring.ntt_inverse(el)))
        for a, b in zip(one, many):
            assert np.array_equal(a.residues, b.residues)
        assert np.array_equal(many[1].residues, el.residues)

    def test_mul_sums_match_ring_mul_and_ring_add(self, rings):
        _, key = rings
        rng = np.random.default_rng(42)
        for level in (0, 9, key.max_level):
            xs = [ring.sample_uniform(key, level, rng.bytes(32)) for _ in range(4)]
            keys = [uniform_pair(key, key.max_level, rng) for _ in range(4)]
            got = ring.mul_sums(xs, keys)
            assert (got.level, got.parts_shape) == (level, (2,))
            for p in range(2):
                want = None
                for x, pair in zip(xs, keys):
                    term = ring.ring_mul(x, ring.drop_level(pair.part(p), level))
                    want = term if want is None else ring.ring_add(want, term)
                assert np.array_equal(got.residues[p], want.residues)

    def test_mul_sums_reject_bad_input(self, rings):
        chain, key = rings
        x = ring.zero(key, 5, ring.Domain.EVALUATION)
        top = pair_with_zero(ring.zero(key, key.max_level, ring.Domain.EVALUATION))
        bad = [
            ([], []),
            ([x], [top, top]),
            ([x], [pair_with_zero(ring.zero(key, 4, ring.Domain.EVALUATION))]),
            ([x], [pair_with_zero(ring.zero(chain, chain.max_level, ring.Domain.EVALUATION))]),
            ([ring.ntt_inverse(x)], [pair_with_zero(ring.ntt_inverse(top.part(0)))]),
            # keys of other parts, and a pair in place of a one-part x
            ([x, x], [top, top.part(0)]),
            ([pair_with_zero(x)], [top]),
        ]
        for xs, keys in bad:
            with pytest.raises(ValueError):
                ring.mul_sums(xs, keys)
        # a base of one part, or on rows the sums' last rows are not
        for base in (
            ring.zero(chain, 1, ring.Domain.EVALUATION),
            pair_with_zero(ring.zero(key, 2, ring.Domain.EVALUATION)),
        ):
            with pytest.raises(ValueError, match="base element"):
                ring.mul_sums([x], [top], base)


class TestPairs:
    """Each kernel on a pair, one (2, level+1, N) element, against the
    per-part path it replaces, at every level of a depth-12, 13-prime
    N=1024 chain."""

    @pytest.fixture(scope="class")
    def chain(self):
        params = scheme.param_gen(128, 512, 12, scale_bits=40, allow_insecure=True)
        assert params.ring.level_count == 13
        return params.ring

    @staticmethod
    def levels(chain, seed):
        # (level, x, y, one): two pairs with the extremes 0 and q - 1 in
        # every row, and a one-part element
        rng = np.random.default_rng(seed)
        for level in range(chain.level_count):
            x, y = (uniform_pair(chain, level, rng).residues.copy() for _ in range(2))
            x[..., :2] = y[..., 1:3] = chain._q_col[: level + 1] - np.uint64(1)
            x[..., 2] = y[..., 0] = 0
            x, y = (ring.RingElement(chain, level, r, ring.Domain.EVALUATION) for r in (x, y))
            yield level, x, y, ring.sample_uniform(chain, level, rng.bytes(32))

    @staticmethod
    def same(got, parts):
        assert got.parts_shape == (2,)
        for p, want in enumerate(parts):
            assert (got.level, got.domain) == (want.level, want.domain)
            assert np.array_equal(got.residues[p], want.residues)

    def test_products_match_per_part(self, chain):
        for _, x, y, one in self.levels(chain, 61):
            per_part = [ring.ring_mul(a, b) for a, b in zip(split(x), split(y))]
            self.same(ring.ring_mul(x, y), per_part)
            by_one = [ring.ring_mul(a, one) for a in split(x)]
            self.same(ring.ring_mul(x, one), by_one)
            self.same(ring.ring_mul(one, x), by_one)

    def test_sums_and_scalar_products_match_per_part(self, chain):
        rng = np.random.default_rng(62)
        for level, x, y, _ in self.levels(chain, 63):
            for op in (ring.ring_add, ring.ring_sub):
                self.same(op(x, y), [op(a, b) for a, b in zip(split(x), split(y))])
            q = chain._q_col[: level + 1]
            col, cols = (rng.integers(0, q, s + q.shape, dtype=np.uint64) for s in ((), (2,)))
            parts = split(x)
            self.same(ring.scalar_mul(x, col), [ring.scalar_mul(a, col) for a in parts])
            by_cols = [ring.scalar_add(a, c) for a, c in zip(parts, cols)]
            self.same(ring.scalar_add(x, cols), by_cols)
            low = level // 2
            self.same(ring.drop_level(x, low), [ring.drop_level(a, low) for a in parts])

    def test_weighted_and_key_sums_match_per_part(self, chain):
        rng = np.random.default_rng(64)
        for level, x, y, one in self.levels(chain, 65):
            weights = rng.integers(-ring.MAX_WEIGHT, ring.MAX_WEIGHT, (2, 3), endpoint=True)
            cols = ring.constant_column(weights, chain, level)
            sums = ring.scalar_mul_sums([x, y], weights)
            for c, got in enumerate(sums):
                self.same(got, [
                    ring.ring_add(*(ring.scalar_mul(el, w) for el, w in zip(ab, cols[:, c])))
                    for ab in zip(split(x), split(y))
                ])
            two = ring.sample_uniform(chain, level, rng.bytes(32))
            self.same(ring.mul_sums([one, two], [x, y]), [
                ring.ring_add(ring.ring_mul(one, a), ring.ring_mul(two, b))
                for a, b in zip(split(x), split(y))
            ])

    def test_a_pair_and_one_part_do_not_mix(self, chain):
        _, x, _, one = next(self.levels(chain, 66))
        for op in (ring.ring_add, ring.ring_sub):
            for a, b in ((x, one), (one, x)):
                with pytest.raises(ValueError, match="parts mismatch"):
                    op(a, b)
        with pytest.raises(ValueError, match=r"expected a \(2, 1, 1\)"):
            ring.scalar_add(x, chain._q_col[:1] - np.uint64(1))
        with pytest.raises(ValueError, match="single"):
            ring.pair(x, x)

    def test_ntts_match_per_part_in_one_kernel_call(self, chain, monkeypatch):
        # a pair through ntt_forward or ntt_inverse, every part in one
        # kernel call, is each part transformed alone
        for _, x, _, _ in self.levels(chain, 68):
            coeff = x._like(x.residues, ring.Domain.COEFFICIENT)
            for op, pair in ((ring.ntt_forward, coeff), (ring.ntt_inverse, x)):
                want = [op(p) for p in split(pair)]
                with monkeypatch.context() as m:
                    calls = []
                    for name in ("_ntt_forward_block", "_ntt_inverse_block"):
                        kernel = getattr(ring, name)
                        m.setattr(ring, name, lambda *a, k=kernel: calls.append(a) or k(*a))
                    self.same(op(pair), want)
                    assert len(calls) == 1 and calls[0][0].shape == pair.residues.shape

    def test_ciphertext_block_needs_two_parts(self, chain):
        params = scheme.param_gen(128, 16, 3, scale_bits=40, allow_insecure=True)
        rp, rng = params.ring, np.random.default_rng(67)
        one = ring.sample_uniform(rp, 2, rng.bytes(32))
        three = one._like(np.stack([one.residues] * 3))
        for block in (one, three):
            with pytest.raises(ValueError, match="needs 2 parts"):
                scheme.Ciphertext(params, block, 2, params.scale, 10.0, 1.0)
        scheme.Ciphertext(params, ring.pair(one, one), 2, params.scale, 10.0, 1.0)


class TestDivide:
    """ring.divide against the per-part slow paths it replaces, on a
    depth-12, 13-prime N=1024 chain and its 20-prime key ring, and the
    (parts, rows, N) NTT kernels against one-element NTTs."""

    @pytest.fixture(scope="class")
    def params(self):
        return scheme.param_gen(128, 512, 12, scale_bits=40, allow_insecure=True)

    @staticmethod
    def pair(rp, level, rng):
        # random residues, with the extremes 0 and q - 1 in every row
        x = uniform_pair(rp, level, rng).residues.copy()
        x[..., :2] = rp._q_col[: level + 1] - np.uint64(1)
        x[..., 2] = 0
        return ring.RingElement(rp, level, x, ring.Domain.EVALUATION)

    def test_rescale_matches_the_lift_every_level(self, params):
        rp = params.ring
        assert rp.level_count == 13
        rng = np.random.default_rng(51)
        for level in range(1, rp.level_count):
            pair = self.pair(rp, level, rng)
            got = ring.divide(pair, params.rescale_div[level])
            assert (got.params, got.level, got.parts_shape) == (rp, level - 1, (2,))
            for g, w in zip(split(got), rescale_lift(pair)):
                assert g.domain == w.domain
                assert np.array_equal(g.residues, w.residues)

    def test_mod_down_matches_per_part_every_level(self, params):
        rp, kr, k = params.ring, params.key_ring, params.special_count
        assert kr.level_count == 20
        rng = np.random.default_rng(52)
        for level in range(rp.level_count):
            pair = self.pair(kr, k + level, rng)
            got = ring.divide(pair, params.mod_down)
            assert (got.params, got.level, got.parts_shape) == (rp, level, (2,))
            for g, w in zip(split(got), mod_down_parts(pair, params, level)):
                assert g.domain == w.domain
                assert np.array_equal(g.residues, w.residues)

    def test_coefficient_pair_divides_as_its_evaluation_form(self, params, monkeypatch):
        # a fresh ciphertext's rescale: no inverse NTT, one forward kernel
        # call on the quotient, and the residues of the Evaluation path
        rp = params.ring
        rng = np.random.default_rng(56)
        calls = []
        for level in range(1, rp.level_count):
            ev = self.pair(rp, level, rng)
            coeff = ring.pair(*(ring.ntt_inverse(p) for p in split(ev)))
            want = ring.divide(ev, params.rescale_div[level])
            with monkeypatch.context() as m:
                for name in ("_ntt_forward_block", "_ntt_inverse_block"):
                    kernel = getattr(ring, name)
                    m.setattr(ring, name, lambda *a, k=kernel, n=name: calls.append(n) or k(*a))
                got = ring.divide(coeff, params.rescale_div[level])
            assert calls == ["_ntt_forward_block"]
            calls.clear()
            assert (got.domain, got.level) == (ring.Domain.EVALUATION, level - 1)
            assert np.array_equal(got.residues, want.residues)

    def test_divide_rejects_what_does_not_fit(self, params):
        rp, kr, k = params.ring, params.key_ring, params.special_count
        rng = np.random.default_rng(53)
        ev = self.pair(rp, 5, rng)
        # one part without a parts axis
        with pytest.raises(ValueError, match="one parts axis"):
            ring.divide(ev.part(0), params.rescale_div[5])
        # constants of another level, or of the key ring on a chain element
        for consts in (params.rescale_div[4], params.mod_down, params.mult_rescale_div[5]):
            with pytest.raises(ValueError, match="does not fit"):
                ring.divide(ev, consts)
        # a product's division at a level above or below the element's
        for level in (4, 6):
            with pytest.raises(ValueError, match="does not fit"):
                ring.divide(self.pair(kr, k + 5, rng), params.mult_rescale_div[level])

    @pytest.mark.parametrize("n, bit_sizes", [(1024, [42] + [41] * 12), (16384, [42, 41, 41])])
    def test_stacked_kernels_equal_single_element_ntts(self, n, bit_sizes):
        # at N = 16384 every pass takes one row of one part
        chain = make_params(n, bit_sizes)
        tb, lv = ring._tables(chain), chain.max_level
        rng = np.random.default_rng(54)
        x = np.stack([rng.integers(0, chain._q_col, (lv + 1, n), dtype=np.uint64) for _ in range(2)])
        x[1, :, :3] = chain._q_col - np.uint64(1)
        for kernel, one, domain in (
            (ring._ntt_forward_block, ring.ntt_forward, ring.Domain.COEFFICIENT),
            (ring._ntt_inverse_block, ring.ntt_inverse, ring.Domain.EVALUATION),
        ):
            want = [one(ring.RingElement(chain, lv, r, domain)).residues for r in x]
            assert np.array_equal(kernel(x, tb, 0), np.stack(want))
            # the top row alone, as a rescale transforms it
            assert np.array_equal(kernel(x[:, lv:], tb, lv), np.stack(want)[:, lv:])

    def test_one_kernel_call_each_way(self, params, monkeypatch):
        calls = {"forward": 0, "inverse": 0}

        def counted(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        monkeypatch.setattr(ring, "_ntt_forward_block", counted("forward", ring._ntt_forward_block))
        monkeypatch.setattr(ring, "_ntt_inverse_block", counted("inverse", ring._ntt_inverse_block))
        rp, kr, k = params.ring, params.key_ring, params.special_count
        rng = np.random.default_rng(55)
        for level in (1, 6, rp.max_level):
            pair = self.pair(rp, level, rng)
            ct = scheme.Ciphertext(params, pair, level, params.scale, 10.0, 1.0)
            calls.update(forward=0, inverse=0)
            scheme.rescale(ct)
            assert calls == {"forward": 1, "inverse": 1}
            for consts in (params.mod_down, params.mult_rescale_div[level]):
                calls.update(forward=0, inverse=0)
                ring.divide(self.pair(kr, k + level, rng), consts)
                assert calls == {"forward": 1, "inverse": 1}


class TestProductDivision:
    """ring.divide by P*q_l, mult_rescale's division, which drops P's
    rows and the top row in one call: against the exact quotient in
    Python integers at every level, on the N = 32 test ring (k = 2), the
    default head's N = 1024 ring (k = 6) and a k = 0 ring, where it is a
    rescale; and its gathered-row inverse kernel against the per-row one."""

    @pytest.fixture(scope="class", params=["n32", "n1024", "gadget"])
    def params(self, request):
        if request.param == "gadget":
            return gadget_params()
        slots, depth = (16, 3) if request.param == "n32" else (
            512, neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead()))
        )
        return scheme.param_gen(128, slots, depth, scale_bits=40, allow_insecure=True)

    def test_matches_the_rounded_quotient_every_level(self, params):
        rp, kr, k = params.ring, params.key_ring, params.special_count
        big_p = math.prod(kr.moduli[:k])
        rng = np.random.default_rng(57)
        for level in range(1, rp.level_count):
            consts = params.mult_rescale_div[level]
            assert consts.rows.tolist() == [*range(k), k + level]
            if k == 0:
                assert consts is params.rescale_div[level]
            pair = TestDivide.pair(kr, k + level, rng)
            got = ring.divide(pair, consts)
            assert (got.params, got.level, got.domain) == (rp, level - 1, ring.Domain.EVALUATION)
            want = divided_by_python_ints(pair, big_p * rp.moduli[level])
            q = rp.modulus_product(level - 1)
            for g, w in zip(split(got), want):
                diff = (ring.compose(ring.ntt_inverse(g))[0] - w) % q
                # the conversion's centring adds u*D for |u| <= (k+1)/2
                worst = max(min(int(v), q - int(v)) for v in diff)
                assert worst <= (k + 1) // 2

    @pytest.mark.parametrize("n", [1024, 4096, 16384])
    def test_gathered_rows_equal_per_row_kernels(self, n):
        # P's rows and a top row, as a product's division drops them: at
        # N = 1024 one gathered pass, at 4096 passes of 4 rows, one of
        # them gathered, at 16384 one row a pass
        chain = make_params(n, [42] * 4 + [41] * 5)
        tb, rows = ring._tables(chain), np.array([0, 1, 2, 3, 7])
        rng = np.random.default_rng(58)
        x = rng.integers(0, chain._q_col[rows], (2, 5, n), dtype=np.uint64)
        x[1, :, :3] = chain._q_col[rows] - np.uint64(1)
        for kernel in (ring._ntt_inverse_block, ring._ntt_forward_block):
            want = [kernel(x[:, i : i + 1], tb, int(r)) for i, r in enumerate(rows)]
            assert np.array_equal(kernel(x, tb, rows), np.concatenate(want, axis=1))


class TestFftProduct:
    """ring.fft_mul, the exact product of an RLWE pair with a ternary u
    through the float FFT, against the NTT product it replaces,
    INTT(pair * NTT(u)), on 13-prime chains."""

    EXTREMES = (0, 1, "q//2", "q//2+1", "q-1")
    # a zero term that broadcasts to any block: the bare product a*u
    NO_PLUS = np.zeros((1, 1, 1), np.int64)

    @classmethod
    def pair(cls, rp, rng):
        """A Coefficient pair of random residues whose first columns hold
        0, 1, floor(q/2), floor(q/2) + 1 and q - 1 in every row, the limb
        split's corners."""
        q = rp._q_col
        x = rng.integers(0, q, (2, rp.level_count, rp.ring_degree), dtype=np.uint64)
        col = {0: 0, 1: 1, "q//2": q // 2, "q//2+1": q // 2 + 1, "q-1": q - 1}
        for j, key in enumerate(cls.EXTREMES):
            x[..., j : j + 1] = col[key]
        return ring.RingElement(rp, rp.max_level, x, ring.Domain.COEFFICIENT)

    @pytest.mark.parametrize("n", [8, 64])
    def test_folded_fft_evaluates_at_the_roots(self, n):
        # output m is x(zeta^(1 - 4m)), zeta = e^(i*pi/N), by direct
        # evaluation; folded_ifft inverts it, with or without leading axes
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, (2, 3, n))
        roots = np.exp(1j * np.pi / n * (1 - 4 * np.arange(n // 2)))
        want = x @ roots[None, :] ** np.arange(n)[:, None]
        got = ring.folded_fft(x)
        assert got.shape == (2, 3, n // 2)
        assert np.max(np.abs(got - want)) < 1e-13
        # folded_ifft consumes its input, and got is used again below
        assert np.max(np.abs(ring.folded_ifft(got.copy()) - x)) < 1e-15
        assert np.max(np.abs(ring.folded_ifft(got[1, 2]) - x[1, 2])) < 1e-15

    @pytest.mark.parametrize("n", [1024, 32768])
    def test_matches_ntt_product(self, n):
        rp = make_params(n, [42] + [41] * 12)
        rng = np.random.default_rng(61)
        coeff = self.pair(rp, rng)
        ev = ring.ntt_forward(coeff)
        # the spectra of both domains agree, as a key's are built from Evaluation
        spectra = ring.fft_spectra(ev)
        assert np.array_equal(spectra, ring.fft_spectra(coeff))
        # weight N (all +-1), the largest limb products, and weight 2N/3
        for u in (
            rng.integers(0, 2, n) * 2 - 1,
            ring.ternary_coeffs(n, 2 * n // 3, rng),
        ):
            u_ev = ring.ntt_forward(from_coeffs(u, rp))
            want = ring.ring_mul(ev, u_ev)
            got = ring.fft_mul(ev, spectra, u, self.NO_PLUS)
            assert got.domain == ring.Domain.COEFFICIENT
            for g, w in zip(split(got), split(want)):
                assert np.array_equal(g.residues, ring.ntt_inverse(w).residues)

    def test_product_that_is_a_multiple_of_q(self):
        # q//2 + q//2 + 1 = q in coefficient 2 of a*(1 + X + X^2): the
        # biased quotient of a positive multiple of q lies just below an
        # integer, and the reduction must still give 0, not q
        rp = make_params(1024, [42] + [41] * 12)
        x = np.zeros((2, rp.level_count, 1024), np.uint64)
        x[..., :2] = rp._q_col // 2
        x[..., 2] = 1
        a = ring.RingElement(rp, rp.max_level, x, ring.Domain.COEFFICIENT)
        u = np.zeros(1024, np.int64)
        u[:3] = 1
        got = ring.fft_mul(a, ring.fft_spectra(a), u, self.NO_PLUS)
        want = ring.ring_mul(ring.ntt_forward(a), ring.ntt_forward(from_coeffs(u, rp)))
        assert not got.residues[..., 2].any()
        for g, w in zip(split(got), split(want)):
            assert np.array_equal(g.residues, ring.ntt_inverse(w).residues)

    def test_perturbed_fft_trips_the_tripwire(self, monkeypatch):
        rp = make_params(1024, [42] + [41] * 12)
        rng = np.random.default_rng(62)
        a = self.pair(rp, rng)
        spectra, u = ring.fft_spectra(a), ring.ternary_coeffs(1024, 682, rng)
        ring.fft_mul(a, spectra, u, self.NO_PLUS)
        ifft = np.fft.ifft

        def perturbed(x, **kwargs):
            z = ifft(x, **kwargs)
            # 0.3 off an integer once untwisted: coefficient 0 of a hi-limb
            # row, whose twist is 1
            z[1, 0, 5, 0] += 0.3
            return z

        monkeypatch.setattr(np.fft, "ifft", perturbed)
        with pytest.raises(FloatingPointError, match="integer"):
            ring.fft_mul(a, spectra, u, self.NO_PLUS)

    @pytest.mark.parametrize("n", [1024, 32768])
    def test_plus_matches_two_step(self, n):
        # fft_mul's one reduction of a*u + plus against the reduced
        # product plus the reduced message and errors, residue for residue,
        # with message residues at q_j - 1 and errors at the keygen tail
        rp = make_params(n, [42] + [41] * 12)
        rng = np.random.default_rng(64)
        a = self.pair(rp, rng)
        spectra = ring.fft_spectra(a)
        q = rp._q_col
        m = rng.integers(0, q, (rp.level_count, n), dtype=np.uint64)
        m[:, : n // 4] = q - 1
        tail = math.ceil(scheme.KEY_ERR_TAIL * scheme.ERR_STD)
        e0, e1 = (ring.gaussian_coeffs(n, scheme.ERR_STD, rng) for _ in range(2))
        e0[:8], e1[:8] = tail, -tail
        e0[8:16], e1[8:16] = -tail, tail
        msg = ring.RingElement(rp, rp.max_level, m, ring.Domain.COEFFICIENT)
        plus = np.stack((m.view(np.int64) + e0, np.broadcast_to(e1, m.shape)))
        for u in (
            rng.integers(0, 2, n) * 2 - 1,
            ring.ternary_coeffs(n, 2 * n // 3, rng),
        ):
            got = ring.fft_mul(a, spectra, u, plus)
            want = fft_mul_two_step(a, spectra, u, msg, e0, e1)
            assert got.domain == ring.Domain.COEFFICIENT
            assert np.array_equal(got.residues, want.residues)

    def test_plus_broadcasts(self):
        # a term of one row, or of one part, is added to every row or part
        rp = make_params(64, [42, 41, 41])
        rng = np.random.default_rng(65)
        a = self.pair(rp, rng)
        spectra, u = ring.fft_spectra(a), ring.ternary_coeffs(64, 40, rng)
        e = rng.integers(-30, 30, 64)
        zero = np.zeros(64, np.int64)
        for plus in (e, e[None, None, :], np.broadcast_to(e, (3, 64))):
            want = fft_mul_two_step(a, spectra, u, ring.zero(rp, rp.max_level), e, e)
            assert np.array_equal(ring.fft_mul(a, spectra, u, plus).residues, want.residues)
        want = fft_mul_two_step(a, spectra, u, ring.zero(rp, rp.max_level), zero, e)
        plus = np.stack((zero, e))[:, None, :]
        assert np.array_equal(ring.fft_mul(a, spectra, u, plus).residues, want.residues)

    def test_rejects_bad_plus(self):
        rp = make_params(64, [42, 41, 41])
        rng = np.random.default_rng(66)
        a = self.pair(rp, rng)
        spectra, u = ring.fft_spectra(a), ring.ternary_coeffs(64, 40, rng)
        good = np.zeros((2, 3, 64), np.int64)
        for bad in (
            good[..., :32],
            np.zeros((3, 3, 64), np.int64),
            np.zeros((2, 2, 64), np.int64),
            np.zeros((1, 2, 3, 64), np.int64),
            good.astype(np.uint64),
            good.astype(np.float64),
            good.tolist(),
            None,
        ):
            with pytest.raises(ValueError, match="plus|broadcast"):
                ring.fft_mul(a, spectra, u, bad)

    def test_rejects_bad_input(self):
        rp = make_params(64, [42, 41, 41])
        rng = np.random.default_rng(63)
        a = self.pair(rp, rng)
        spectra = ring.fft_spectra(a)
        u = ring.ternary_coeffs(64, 40, rng)
        for bad_u in (u[:32], np.where(u == 1, 2, u)):
            with pytest.raises(ValueError, match="coefficients"):
                ring.fft_mul(a, spectra, bad_u, self.NO_PLUS)
        for bad in (spectra[0], spectra[:, :1], spectra[..., :16]):
            with pytest.raises(ValueError, match="spectra"):
                ring.fft_mul(a, bad, u, self.NO_PLUS)


class TestSchoolbook:
    def test_one_plus_x_times_one_minus_x(self):
        # (1 + X)(1 - X) = 1 - X^2
        params = ring.RingParams(8, (17,))
        a = from_coeffs([1, 1, 0, 0, 0, 0, 0, 0], params)
        b = from_coeffs([1, -1, 0, 0, 0, 0, 0, 0], params)
        out = schoolbook_mul(a, b)
        expect = from_coeffs([1, 0, -1, 0, 0, 0, 0, 0], params)
        assert np.array_equal(out.residues, expect.residues)

    def test_constant_times_constant(self):
        params = ring.RingParams(8, (17,))
        a = from_coeffs([3] + [0] * 7, params)
        b = from_coeffs([5] + [0] * 7, params)
        out = schoolbook_mul(a, b)
        expect = from_coeffs([15] + [0] * 7, params)
        assert np.array_equal(out.residues, expect.residues)

    def test_against_independent_python_oracle(self):
        params = make_params(8, (42,))
        rng = np.random.default_rng(2)
        q = params.moduli[0]
        for _ in range(50):
            a = random_ring_element(params, 0, rng)
            b = random_ring_element(params, 0, rng)
            ours = schoolbook_mul(a, b).residues[0]
            oracle = schoolbook_int_negacyclic(a.residues[0], b.residues[0], q)
            assert list(ours) == oracle

    def test_mutual_consistency_200_pairs(self):
        rng = np.random.default_rng(3)
        for n in (8, 64):
            params = make_params(n)
            for _ in range(100):
                a = random_ring_element(params, params.max_level, rng)
                b = random_ring_element(params, params.max_level, rng)
                assert np.array_equal(
                    poly_mul(a, b).residues,
                    schoolbook_mul(a, b).residues,
                )

    def test_corner_coefficients_exhaustive_squares(self):
        # every N=8 polynomial over {0, 1, q-1}: square it both ways,
        # plus random corner-set pairs; wraparound sign handling has no
        # hiding place at these values
        params = ring.RingParams(8, (17,))
        q = 17
        corner = np.array([0, 1, q - 1], dtype=np.int64)
        all_polys = np.stack(
            np.meshgrid(*([corner] * 8), indexing="ij"), axis=-1
        ).reshape(-1, 8)
        for coeffs in all_polys:
            el = from_coeffs(coeffs, params)
            assert np.array_equal(
                poly_mul(el, el).residues,
                schoolbook_mul(el, el).residues,
            )
        rng = np.random.default_rng(21)
        for _ in range(500):
            a = from_coeffs(corner[rng.integers(0, 3, 8)], params)
            b = from_coeffs(corner[rng.integers(0, 3, 8)], params)
            assert np.array_equal(
                poly_mul(a, b).residues, schoolbook_mul(a, b).residues
            )


class TestSamplers:
    def test_ternary_weight_exact(self):
        rng = np.random.default_rng(4)
        coeffs = ring.ternary_coeffs(64, 32, rng)
        assert coeffs.dtype == np.int64 and coeffs.shape == (64,)
        assert np.sum(coeffs != 0) == 32
        assert set(np.unique(coeffs)) <= {-1, 0, 1}

    def test_ternary_weight_bounds(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            ring.ternary_coeffs(8, 9, rng)
        with pytest.raises(ValueError):
            ring.ternary_coeffs(8, 0, rng)

    def test_gaussian_empirical_mean(self):
        # mean of 1e5 signed draws within 5*sigma/sqrt(1e5) of zero
        rng = np.random.default_rng(6)
        sigma = 3.2
        draws = [ring.gaussian_coeffs(64, sigma, rng) for _ in range(100_000 // 64)]
        flat = np.concatenate(draws).astype(np.float64)
        assert abs(flat.mean()) < 5 * sigma / np.sqrt(len(flat))

    def test_fixed_seed_reproduces(self):
        params = make_params(64)
        for sampler in (
            lambda r: ring.sample_uniform(params, 1, r.bytes(32)).residues,
            lambda r: ring.ternary_coeffs(64, 16, r),
            lambda r: ring.gaussian_coeffs(64, 3.2, r),
        ):
            a = sampler(np.random.default_rng(99))
            b = sampler(np.random.default_rng(99))
            assert np.array_equal(a, b)

    def test_gaussian_keygen_draws_unchanged(self):
        # keygen's tail-bounded errors are gaussian_coeffs reduced, with
        # the draw sequence written out in helpers, and leave the
        # Generator where that sequence does; a small tail forces redraws
        params = make_params(64, [42, 41])
        for tail in (scheme.KEY_ERR_TAIL, 0.5):
            rng, ref = np.random.default_rng(8), np.random.default_rng(8)
            coeffs = ring.gaussian_coeffs(64, scheme.ERR_STD, rng, tail)
            el = ring.from_int_coeffs(coeffs, params, 1)
            want = gaussian_draws(64, scheme.ERR_STD, ref, tail)
            assert np.array_equal(el.residues, from_coeffs(want, params).residues)
            assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)
        assert np.abs(want).max() < 0.5 * scheme.ERR_STD

    # sha256 prefixes of sample_uniform's top-level residue block (u64
    # LE words) for the seeds 0^32 and 00 01 .. 1f: numpy keeps the PCG64
    # stream stable (NEP 19), so a change here changes every key blob
    UNIFORM_VECTORS = {
        "n32": ("7c38202139d50bc0", "3c56c04646fe81cf"),
        "n1024": ("79543fc2e852533f", "84e4588c227b1441"),
    }

    @pytest.fixture(scope="class", params=sorted(UNIFORM_VECTORS))
    def chain(self, request):
        if request.param == "n32":
            return request.getfixturevalue("small_params").ring
        return scheme.param_gen(128, 512, 12, scale_bits=40, allow_insecure=True).ring

    def test_uniform_fixed_vectors(self, chain):
        name = "n32" if chain.ring_degree == 32 else "n1024"
        assert chain.level_count == {"n32": 4, "n1024": 13}[name]
        for seed, want in zip((bytes(32), bytes(range(32))), self.UNIFORM_VECTORS[name]):
            el = ring.sample_uniform(chain, chain.max_level, seed)
            assert el.domain == ring.Domain.EVALUATION
            assert hashlib.sha256(el.residues.astype("<u8").tobytes()).hexdigest()[:16] == want
            assert np.all(el.residues < chain._q_col)
            # with no word rejected, the stream's words mod q_j, row by row
            words = np.random.PCG64(int.from_bytes(seed, "little")).random_raw(el.residues.size)
            words = words.reshape(el.residues.shape)
            assert np.all(words < [[(1 << 64) // q * q] for q in chain.moduli])
            assert np.array_equal(el.residues, words % chain._q_col)
            # a lower level is the same stream's first rows
            low = ring.sample_uniform(chain, 1, seed)
            assert np.array_equal(low.residues, el.residues[:2])

    def test_uniform_redraws_words_at_or_above_the_threshold(self, chain, monkeypatch):
        # a scripted stream: word 5 is the largest u64, word 7 exactly
        # floor(2^64/q_0)*q_0; both are dropped and the stream continues
        n, rows = chain.ring_degree, chain.level_count
        limit = (1 << 64) // chain.moduli[0] * chain.moduli[0]
        stream = np.random.PCG64(3).random_raw(rows * n + 2)
        stream[5], stream[7] = (1 << 64) - 1, limit

        class Scripted:
            def __init__(self, seed):
                assert seed == int.from_bytes(b"seed" * 8, "little")
                self.pos = 0

            def random_raw(self, size):
                self.pos += size
                return stream[self.pos - size : self.pos].copy()

        monkeypatch.setattr(np.random, "PCG64", Scripted)
        el = ring.sample_uniform(chain, chain.max_level, b"seed" * 8)
        kept = np.delete(stream, [5, 7]).reshape(rows, n)
        assert np.array_equal(el.residues, kept % chain._q_col)

    def test_uniform_needs_a_32_byte_seed(self, small_params):
        for seed in (bytes(31), bytes(33), np.random.default_rng(1), "x" * 32):
            with pytest.raises(ValueError, match="32 bytes"):
                ring.sample_uniform(small_params.ring, 0, seed)

    def test_uniform_fills_a_given_block(self, chain):
        # a key loader's pair: b in row 0, the seed's expansion in row 1
        seed = bytes(range(32))
        block = np.zeros((2, chain.level_count, chain.ring_degree), np.uint64)
        el = ring.sample_uniform(chain, chain.max_level, seed, block[1])
        assert np.shares_memory(el.residues, block) and not block[0].any()
        assert np.array_equal(block[1], ring.sample_uniform(chain, chain.max_level, seed).residues)


class TestDropLevel:
    def test_identity_and_idempotence(self):
        params = make_params(16, (42, 41, 41))
        rng = np.random.default_rng(7)
        el = random_ring_element(params, 2, rng)
        assert ring.drop_level(el, 2) is el
        once = ring.drop_level(el, 0)
        twice = ring.drop_level(ring.drop_level(el, 1), 0)
        assert np.array_equal(once.residues, twice.residues)

    def test_raising_level_rejected(self):
        params = make_params(16, (42, 41))
        el = ring.zero(params, 0)
        with pytest.raises(ValueError):
            ring.drop_level(el, 1)

    def test_arithmetic_matches_surviving_prime_oracle(self):
        params = make_params(16, (42, 41, 41))
        rng = np.random.default_rng(8)
        a = random_ring_element(params, 2, rng)
        b = random_ring_element(params, 2, rng)
        full_sum = ring.ring_add(a, b)
        full_prod = ring.ring_mul(ring.ntt_forward(a), ring.ntt_forward(b))
        a0, b0 = ring.drop_level(a, 0), ring.drop_level(b, 0)
        assert np.array_equal(
            ring.ring_add(a0, b0).residues, full_sum.residues[:1]
        )
        prod0 = ring.ring_mul(ring.ntt_forward(a0), ring.ntt_forward(b0))
        assert np.array_equal(prod0.residues, full_prod.residues[:1])


class TestAlgebraicProperties:
    PARAMS = None

    @classmethod
    def params(cls):
        if cls.PARAMS is None:
            cls.PARAMS = ring.RingParams(8, (17,))
        return cls.PARAMS

    coeff_lists = st.lists(
        st.integers(min_value=-100, max_value=100), min_size=8, max_size=8
    )

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, a, b):
        params = self.params()
        ea, eb = from_coeffs(a, params), from_coeffs(b, params)
        assert np.array_equal(
            schoolbook_mul(ea, eb).residues,
            schoolbook_mul(eb, ea).residues,
        )

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_add_distributive(self, a, b, c):
        params = self.params()
        ea, eb, ec = (from_coeffs(v, params) for v in (a, b, c))
        left = schoolbook_mul(schoolbook_mul(ea, eb), ec)
        right = schoolbook_mul(ea, schoolbook_mul(eb, ec))
        assert np.array_equal(left.residues, right.residues)
        dist_l = schoolbook_mul(ea, ring.ring_add(eb, ec))
        dist_r = ring.ring_add(
            schoolbook_mul(ea, eb), schoolbook_mul(ea, ec)
        )
        assert np.array_equal(dist_l.residues, dist_r.residues)

    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_multiplying_by_x_n_times_negates(self, a):
        params = self.params()
        el = from_coeffs(a, params)
        x = from_coeffs([0, 1] + [0] * 6, params)
        out = el
        for _ in range(8):
            out = schoolbook_mul(out, x)
        zero = ring.zero(params, el.level)
        assert np.array_equal(out.residues, ring.ring_sub(zero, el).residues)


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
    )]


def _assert_mapped_twice(size):
    """Two blocks of ``size`` bytes in turn are each a mapping of their own."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("needs glibc >= 2.33")
    libc.mallinfo2.argtypes, libc.mallinfo2.restype = (), _MallInfo2
    for _ in range(2):
        mapped = libc.mallinfo2().hblkhd
        block = np.ones(size, np.uint8)
        assert libc.mallinfo2().hblkhd - mapped >= size
        del block


def test_large_blocks_stay_mapped_after_one_is_freed():
    # importing hnn fixes glibc's mmap threshold: left dynamic, freeing
    # the first 16 MiB block would put the next one on the brk heap
    _assert_mapped_twice(16 << 20)


def test_a_feature_bundle_is_mapped():
    # a 512 x 64 batch's bundle on the default 8-prime N = 1024 chain:
    # 64 ciphertexts of 2 x 8 x 1024 words, their ledger records, the
    # header and the checksum
    _assert_mapped_twice(8_390_544)
