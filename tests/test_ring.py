import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnn import neural, ring, scheme
from hnn.errors import ParameterError

from helpers import (
    mulmod_split,
    naive_negacyclic_transform,
    ntt_forward_ct,
    ntt_inverse_gs,
    poly_mul,
    primitive_2n_root,
    random_ring_element,
    schoolbook_int_negacyclic,
    schoolbook_mul,
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

    def test_find_ntt_primes_properties(self):
        primes = ring.find_ntt_primes(64, [42, 41, 41, 41])
        assert len(set(primes)) == 4
        for q in primes:
            assert ring.is_prime(q)
            assert q % 128 == 1
        assert primes[0].bit_length() == 42
        for q in primes[1:]:
            assert q.bit_length() == 41


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
        # the doubling build against one Python pow per entry
        tb = ring._NttTables(chain.ring_degree, chain.moduli)
        perm = ring.bit_reverse_permutation(chain.ring_degree)
        for j, q in enumerate(chain.moduli):
            psi = ring._NttTables._primitive_root(chain.ring_degree, q)
            ipsi = pow(psi, -1, q)
            want = [pow(psi, int(i), q) for i in perm]
            want_inv = [pow(ipsi, int(i), q) for i in perm]
            assert tb.psi_rev[j].tolist() == want
            assert tb.ipsi_rev[j].tolist() == want_inv
        assert tb.psi_rev.dtype == tb.ipsi_rev.dtype == np.uint64

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

    def test_add_sub_neg_match_python_ints(self, chain):
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
                assert ring.ring_neg(left).residues[j].tolist() == [-u % q for u in x]

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
# the 13-prime chain of the default head at 512 slots (N = 1024)
_DEFAULT_CHAIN = scheme.param_gen(
    128, 512, neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead())),
    scale_bits=40, allow_insecure=True,
).ring.moduli
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
                assert np.array_equal(ring._ntt_inverse_rows(ev, top), ntt_inverse_gs(ev, top))

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

    def test_centered_coeffs_match_python_ints_every_level(self):
        # the centred lift of key switching (all rows) and rescale (top row)
        chain = make_params(64, [42] + [41] * 16)
        rng = np.random.default_rng(23)
        for level in range(chain.level_count):
            q = chain._q_col[: level + 1]
            res = rng.integers(0, q, (level + 1, 64), dtype=np.uint64)
            # the centring boundary q//2 -> itself, q//2 + 1 -> negative
            res[:, 0] = q[:, 0] // np.uint64(2)
            res[:, 1] = q[:, 0] // np.uint64(2) + np.uint64(1)
            res[:, 2] = q[:, 0] - np.uint64(1)
            res[:, 3] = 0
            el = ring.ntt_forward(ring.RingElement(chain, level, res, ring.Domain.COEFFICIENT))
            want = [
                [int(c) - qj if int(c) > qj // 2 else int(c) for c in row]
                for row, qj in zip(res, chain.moduli)
            ]
            got = ring.centered_coeffs(el, slice(0, level + 1))
            assert got.dtype == np.int64
            assert got.tolist() == want
            assert want[-1][:2] == [chain.moduli[level] // 2, -(chain.moduli[level] // 2)]
            top = ring.centered_coeffs(el, slice(level, level + 1))
            assert top.tolist() == want[-1:]
        with pytest.raises(ValueError):
            ring.centered_coeffs(ring.zero(chain, 0), slice(0, 1))


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
        # sum_k groups[k][p] * cols[k, c] against 21-bit split products
        # summed in Python ints, with columns 0 and q - 1 among random ones
        rng = np.random.default_rng(27)
        for level in (0, 5, chain.max_level):
            q = chain._q_col[: level + 1]
            for d, c in ((1, 1), (3, 2), (17, 3)):
                groups = [
                    tuple(
                        ring.RingElement(
                            chain, level,
                            rng.integers(0, q, (level + 1, 1024), dtype=np.uint64),
                            ring.Domain.EVALUATION,
                        )
                        for _ in range(2)
                    )
                    for _ in range(d)
                ]
                cols = rng.integers(0, q, (d, c, level + 1, 1), dtype=np.uint64)
                cols[0, 0], cols[-1, -1] = q - np.uint64(1), 0
                sums = ring.scalar_mul_sums(groups, cols)
                assert len(sums) == c
                for j in range(c):
                    for p in range(2):
                        want = sum(
                            mulmod_split(g[p].residues, np.broadcast_to(
                                cols[k, j], g[p].residues.shape), q).astype(object)
                            for k, g in enumerate(groups)
                        ) % q.astype(object)
                        got = sums[j][p]
                        assert got.level == level and got.domain == ring.Domain.EVALUATION
                        assert np.array_equal(got.residues, want.astype(np.uint64))

    def test_scalar_mul_sums_reject_bad_input(self, chain):
        el = ring.zero(chain, 2, ring.Domain.EVALUATION)
        q = chain._q_col[:3]
        cols = np.zeros((2, 1, 3, 1), np.uint64)
        bad = [
            ([], cols[:0]),
            ([(el, el), (el,)], cols),
            ([(el, el), (el, ring.zero(chain, 1, ring.Domain.EVALUATION))], cols),
            ([(el, el), (el, ring.ntt_inverse(el))], cols),
            ([(el, el)] * 2, cols[:1]),
            ([(el, el)] * 2, cols[:, :, :2]),
            ([(el, el)] * 2, cols.astype(np.int64)),
            ([(el, el)] * 2, cols + q[None, None]),
        ]
        for groups, c in bad:
            with pytest.raises(ValueError):
                ring.scalar_mul_sums(groups, c)
        n = ring.MAX_SUM_TERMS + 1
        with pytest.raises(ValueError, match="terms outside"):
            ring.scalar_mul_sums([(el,)] * n, np.broadcast_to(cols[:1], (n, 1, 3, 1)))

    def test_bad_columns_rejected(self, chain):
        el = ring.zero(chain, 2, ring.Domain.EVALUATION)
        q = chain._q_col[:3]
        for col in (q[:2], q[:, 0], (q - np.uint64(1)).astype(np.int64), q):
            for op in (ring.scalar_mul, ring.scalar_add):
                with pytest.raises(ValueError):
                    op(el, col)


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
        params = make_params(64)
        rng = np.random.default_rng(4)
        el = ring.sample_ternary(params, 0, 32, rng)
        signed = np.where(
            el.residues[0] > params.moduli[0] // 2,
            el.residues[0].astype(np.int64) - params.moduli[0],
            el.residues[0].astype(np.int64),
        )
        assert np.sum(signed != 0) == 32
        assert set(np.unique(signed)) <= {-1, 0, 1}

    def test_ternary_weight_bounds(self):
        params = make_params(8, (17,))
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            ring.sample_ternary(params, 0, 9, rng)
        with pytest.raises(ValueError):
            ring.sample_ternary(params, 0, 0, rng)

    def test_gaussian_empirical_mean(self):
        # mean of 1e5 signed draws within 5*sigma/sqrt(1e5) of zero
        params = make_params(64)
        rng = np.random.default_rng(6)
        sigma = 3.2
        draws = []
        for _ in range(100_000 // 64):
            el = ring.sample_gaussian(params, 0, sigma, rng)
            signed = np.where(
                el.residues[0] > params.moduli[0] // 2,
                el.residues[0].astype(np.int64) - params.moduli[0],
                el.residues[0].astype(np.int64),
            )
            draws.append(signed)
        flat = np.concatenate(draws).astype(np.float64)
        assert abs(flat.mean()) < 5 * sigma / np.sqrt(len(flat))

    def test_fixed_seed_reproduces(self):
        params = make_params(64)
        for sampler in (
            lambda r: ring.sample_uniform(params, 1, r),
            lambda r: ring.sample_ternary(params, 1, 16, r),
            lambda r: ring.sample_gaussian(params, 1, 3.2, r),
        ):
            a = sampler(np.random.default_rng(99))
            b = sampler(np.random.default_rng(99))
            assert np.array_equal(a.residues, b.residues)

    @pytest.mark.parametrize("bit_sizes", [[42] + [41] * 16, [20, 14, 17]])
    def test_uniform_matches_per_row_draws(self, bit_sizes):
        # one batched draw consumes the Generator exactly like row-by-row
        # draws, so fixed-seed keys stay the same
        params = make_params(64, bit_sizes)
        for level in (0, params.max_level // 2, params.max_level):
            el = ring.sample_uniform(params, level, np.random.default_rng(7))
            rows = np.random.default_rng(7)
            expect = np.stack(
                [rows.integers(0, q, 64, dtype=np.uint64) for q in el.moduli]
            )
            assert el.domain == ring.Domain.EVALUATION
            assert np.array_equal(el.residues, expect)


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
        assert np.array_equal(out.residues, ring.ring_neg(el).residues)
