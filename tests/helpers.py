"""Independent oracles used across the test suite.

Each oracle recomputes the quantity under test by a different route than
the implementation: naive O(N^2) transforms, arbitrary-precision
embeddings, central finite differences, and plain numpy reference math.
"""

import dataclasses
import math

import mpmath
import numpy as np

from hnn import encoding, ring, scheme
from hnn.errors import ParameterError


def naive_negacyclic_transform(coeffs, n, q, psi):
    """Direct negacyclic evaluation: out[k] = a(psi^(2k+1)), natural order."""
    return np.array(
        [
            sum(int(coeffs[j]) * pow(psi, (2 * k + 1) * j, q) for j in range(n)) % q
            for k in range(n)
        ],
        dtype=np.uint64,
    )


def primitive_2n_root(n, q):
    exp = (q - 1) // (2 * n)
    for g in range(2, 10000):
        psi = pow(g, exp, q)
        if pow(psi, n, q) == q - 1:
            return psi
    raise AssertionError("no primitive root found")


def schoolbook_int_negacyclic(a, b, q):
    """Pure-Python negacyclic convolution, independent of hnn.ring."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            term = int(a[i]) * int(b[j])
            if k < n:
                out[k] += term
            else:
                out[k - n] -= term
    return [v % q for v in out]


def schoolbook_mul(a, b):
    """O(N^2) negacyclic convolution oracle, exact via Python bigints, one
    prime at a time.

    c_k = sum_{i+j=k} a_i b_j - sum_{i+j=k+N} a_i b_j (mod q).
    """
    ring._require_compatible(a, b)
    if a.domain != ring.Domain.COEFFICIENT:
        raise ValueError("schoolbook_mul expects Coefficient domain")
    n = a.params.ring_degree
    out = np.empty_like(a.residues)
    for j, q in enumerate(a.moduli):
        conv = np.convolve(
            a.residues[j].astype(object), b.residues[j].astype(object)
        )
        folded = np.zeros(n, dtype=object)
        folded += conv[:n]
        folded[: len(conv) - n] -= conv[n:]
        out[j] = (folded % q).astype(np.uint64)
    return a._like(out)


_SPLIT = np.uint64(21)
_MASK21 = np.uint64((1 << 21) - 1)


def mulmod_split(a, b, q):
    """Exact (a * b) % q for a, b < q < 2^42 by the 21-bit split of a,
    which keeps every intermediate below 2^64: an integer-only product,
    independent of ring.mulmod's float quotient."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    q = np.asarray(q, dtype=np.uint64)
    hi = ((a >> _SPLIT) * b) % q
    lo = (a & _MASK21) * b
    return ((hi << _SPLIT) + lo) % q


def miller_rabin(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
    """Strong-probable-prime test of odd n > 37 to every base: with all
    twelve default bases, exact for n < 2^64."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_primes_quadratic(ring_degree, bit_sizes):
    """The chain search as first written: every b-bit prime walks up from
    2^(b-1) and re-tests each prime the chain already holds, so its cost
    is quadratic in the chain length. The reference for
    ring.find_ntt_primes' resumed walk."""
    ring._check_degree(ring_degree)
    step = 2 * ring_degree
    if not bit_sizes:
        raise ParameterError("empty modulus chain")
    for b in bit_sizes:
        if not 14 <= b <= ring.MAX_PRIME_BITS:
            raise ParameterError(
                f"prime size {b} outside supported range [14, {ring.MAX_PRIME_BITS}]"
            )
    chain = [ring.prime_below(1 << bit_sizes[0], step)]
    for b in bit_sizes[1:]:
        p = ring.prime_above(1 << (b - 1), step)
        while p in chain:
            p = ring.prime_above(p, step)
        chain.append(p)
    return tuple(chain)


def twisted_slot_positions(n):
    """Slot k's index (5^k mod 2N - 1)/2 among the N roots zeta^(2j+1)."""
    return np.array([(pow(5, k, 2 * n) - 1) // 2 for k in range(n // 2)])


def twisted_embed_to_coeffs(values, n):
    """The inverse embedding as one N-point FFT: the slots and their
    conjugates placed on all N roots zeta^(2j+1), zeta = e^(i*pi/N), an
    FFT and the 2N-th-root untwist: the slow path of
    encoding.embed_to_coeffs."""
    pos = twisted_slot_positions(n)
    evals = np.zeros(n, dtype=np.complex128)
    evals[pos] = values
    evals[n - 1 - pos] = np.conj(values)
    return np.real(np.fft.fft(evals) / n / np.exp(1j * np.pi * np.arange(n) / n))


def twisted_coeffs_to_slots(coeffs, n):
    """The embedding as one N-point inverse FFT of the twisted
    coefficients, read at the slots: the slow path of
    encoding.coeffs_to_slots."""
    evals = np.fft.ifft(coeffs * np.exp(1j * np.pi * np.arange(n) / n)) * n
    return evals[twisted_slot_positions(n)]


def hp_embed_to_coeffs(values, n, prec_bits=200):
    """Arbitrary-precision inverse canonical embedding (O(N^2))."""
    with mpmath.workprec(prec_bits):
        m = 2 * n
        # slot positions: exponents 5^k mod 2N, plus conjugates
        exps = []
        j = 1
        for _ in range(n // 2):
            exps.append(j)
            j = (j * 5) % m
        evals = {}
        for k, e in enumerate(exps):
            evals[e] = mpmath.mpc(values[k])
            evals[m - e] = mpmath.conj(mpmath.mpc(values[k]))
        # the 2N distinct powers e^(-i*pi*t/N), t = e*i mod 2N
        roots = [mpmath.expjpi(mpmath.mpf(-t) / n) for t in range(m)]
        coeffs = []
        for i in range(n):
            acc = mpmath.mpc(0)
            for e, z in evals.items():
                acc += z * roots[e * i % m]
            coeffs.append(acc / n)
        return np.array([float(mpmath.re(c)) for c in coeffs])


def hp_coeffs_to_slots(coeffs, n, prec_bits=200):
    """Arbitrary-precision canonical embedding at the slot roots."""
    with mpmath.workprec(prec_bits):
        m = 2 * n
        exps = []
        j = 1
        for _ in range(n // 2):
            exps.append(j)
            j = (j * 5) % m
        roots = [mpmath.expjpi(mpmath.mpf(t) / n) for t in range(m)]
        out = []
        for e in exps:
            acc = mpmath.mpc(0)
            for i in range(n):
                acc += mpmath.mpf(float(coeffs[i])) * roots[e * i % m]
            out.append(complex(acc))
        return np.array(out)


def central_difference(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.flat[i] = step
        grad.flat[i] = (fn(x + bump) - fn(x - bump)) / (2 * step)
    return grad


def reference_softmax(logits, temperature=1.0):
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_soft_argmax(logits, temperature=1.0):
    probs = reference_softmax(logits, temperature)
    idx = np.arange(1, probs.shape[-1] + 1, dtype=np.float64)
    return probs @ idx


def random_ring_element(params, level, rng, domain=ring.Domain.COEFFICIENT):
    res = np.stack(
        [
            rng.integers(0, params.moduli[j], params.ring_degree, dtype=np.uint64)
            for j in range(level + 1)
        ]
    )
    return ring.RingElement(params, level, res, domain)


def uniform_pair(params, level, rng):
    """The pair of two uniform Evaluation elements, drawn one after the
    other, as one (2, level+1, N) element."""
    return ring.pair(*(ring.sample_uniform(params, level, rng.bytes(32)) for _ in range(2)))


def pair_with_zero(a):
    """The pair (a, 0) as one (2, level+1, N) element."""
    return ring.pair(a, a._like(np.zeros_like(a.residues)))


def split(pair):
    """A pair's two parts, as one-part elements."""
    return pair.part(0), pair.part(1)


def poly_mul(a, b):
    """Negacyclic product of Coefficient elements through the NTT: forward
    transforms, ring.ring_mul's pointwise product, inverse transform."""
    return ring.ntt_inverse(ring.ring_mul(ring.ntt_forward(a), ring.ntt_forward(b)))


def tensor_no_relin(a, b):
    """(d0, d1, d2), the unrelinearized product of two ciphertexts: it
    decrypts under (1, s, s^2) at scale a.scale * b.scale."""
    a, b = scheme.to_evaluation(a), scheme.to_evaluation(b)
    (a0, a1), (b0, b1) = split(a.parts), split(b.parts)
    d0 = ring.ring_mul(a0, b0)
    d1 = ring.ring_add(ring.ring_mul(a0, b1), ring.ring_mul(a1, b0))
    d2 = ring.ring_mul(a1, b1)
    return d0, d1, d2


def centered_rows(el, rows):
    """Coefficients of the Evaluation element el's chain rows ``rows``,
    inverse-NTT'd whole and centred into (-q_j/2, q_j/2] as int64."""
    x = ring.ntt_inverse(el).residues[rows].astype(np.int64)
    q = el.params._q_col[rows].astype(np.int64)
    return np.where(x > q // 2, x - q, x)


def relinearize_crt(d2, evk, level):
    """The CRT-gadget key switch: c2 = sum_j d_j*e_j mod Q_level, where
    the digit d_j is c2's residue row j centred into (-q_j/2, q_j/2], and
    evk component j encrypts s^2*e_j. The slow path of
    scheme._relinearize with digit_size 1 and no special primes, part by
    part: returns (acc0, acc1)."""
    rp = evk.scheme.ring
    digits = centered_rows(d2, slice(0, level + 1))
    acc0 = acc1 = None
    for j in range(level + 1):
        dig_el = ring.ntt_forward(ring.from_int_coeffs(digits[j], rp, level))
        b_j, a_j = split(evk.components[j])
        term0 = ring.ring_mul(dig_el, ring.drop_level(b_j, level))
        term1 = ring.ring_mul(dig_el, ring.drop_level(a_j, level))
        acc0 = term0 if acc0 is None else ring.ring_add(acc0, term0)
        acc1 = term1 if acc1 is None else ring.ring_add(acc1, term1)
    return acc0, acc1


def decrypt_three_part(sk, parts, scale):
    """Slots of c0 + c1*s + c2*s^2 at ``scale``."""
    s = ring.drop_level(sk.s, parts[0].level)
    s2 = ring.ring_mul(s, s)
    acc = ring.ring_add(parts[0], ring.ring_mul(parts[1], s))
    acc = ring.ring_add(acc, ring.ring_mul(parts[2], s2))
    return encoding.decode(encoding.Plaintext(ring.ntt_inverse(acc), scale))


def rescale_rows(ct):
    """Row-by-row RNS rescale of every part: Coefficient-domain residues
    at level-1, each prime handled on its own with Python ints."""
    rp = ct.scheme.ring
    lv = ct.level
    q_top = rp.moduli[lv]
    out = []
    for part in split(ct.parts):
        coeff = ring.ntt_inverse(part).residues
        top = [int(x) - q_top if int(x) > q_top // 2 else int(x) for x in coeff[lv]]
        rows = []
        for j, q in enumerate(rp.moduli[:lv]):
            inv = pow(q_top, -1, q)
            rows.append([(int(c) - t) * inv % q for c, t in zip(coeff[j], top)])
        out.append(np.array(rows, dtype=np.uint64))
    return out


def rescale_lift(pair):
    """Rescale of each Evaluation part of a pair on its own: the top row
    centred, lifted by from_int_coeffs, subtracted and multiplied by
    q_top^-1: the slow path of ring.divide by the top prime."""
    rp = pair.params
    lv = pair.level
    q_top = rp.moduli[lv]
    inv = np.array([[pow(q_top, -1, q)] for q in rp.moduli[:lv]], dtype=np.uint64)
    out = []
    for part in split(pair):
        top = centered_rows(part, slice(lv, lv + 1))[0]
        lifted = ring.ntt_forward(ring.from_int_coeffs(top, rp, lv - 1))
        diff = ring.ring_sub(ring.drop_level(part, lv - 1), lifted)
        out.append(ring.scalar_mul(diff, inv))
    return out


def mod_down_parts(pair, params, level):
    """ModDown of each part of a pair over P ∪ Q_level on its own: an
    inverse NTT of its k special-prime rows, their centred fast base
    conversion to Q_level in Python integers (centred_sum), a forward
    NTT, the difference with its Q_level rows and the product by P^-1:
    the slow path of ring.divide by the special primes."""
    rp, kr, k = params.ring, params.key_ring, params.special_count
    big_p = math.prod(kr.moduli[:k])
    p_inv = np.array([[pow(big_p, -1, q)] for q in rp.moduli[: level + 1]], np.uint64)
    out = []
    for x in split(pair):
        x_p = ring.ntt_inverse(ring.RingElement(kr, k - 1, x.residues[:k], x.domain))
        lift = centred_sum(x_p.residues, kr.moduli[:k])
        lift = ring.ntt_forward(ring.from_int_coeffs(lift, rp, level))
        x_q = ring.RingElement(rp, level, x.residues[k:], x.domain)
        out.append(ring.scalar_mul(ring.ring_sub(x_q, lift), p_inv))
    return out


def centred_sum(rows, primes):
    """The centred fast base conversion of the (S, N) residues ``rows``
    mod ``primes`` (product D), in Python integers: sum_j y_j*(D/q_j) with
    y_j = x_j*(D/q_j)^-1 mod q_j centred into (-q_j/2, q_j/2], an object
    array of N integers, each x mod D plus u*D for some |u| <= S/2."""
    d = math.prod(primes)
    total = np.zeros(rows.shape[-1], dtype=object)
    for row, q in zip(rows.astype(object), primes):
        y = row * pow(d // q % q, -1, q) % q
        total += np.where(y > q // 2, y - q, y) * (d // q)
    return total


def gadget_params():
    """A 128-bit set with no room for a special prime, so that k = 0 and
    key switching is the CRT gadget: N = 4096 over 42 + 3*22 = 108 chain
    bits, where the table allows 109."""
    moduli = ring.find_ntt_primes(4096, [42, 22, 22, 22])
    params = scheme.SchemeParams(128, ring.RingParams(4096, moduli), 2.0 ** 21, 8)
    assert params.special_count == 0
    return params


def divided_by_python_ints(pair, d):
    """Each Evaluation part of ``pair``, read as centred integers x mod its
    modulus, divided by d and rounded: the exact quotient that
    ring.divide approximates, as a list of two object arrays."""
    out = []
    for part in split(ring.ntt_inverse(pair)):
        x, _ = ring.compose_signed(part)
        out.append((2 * x + d) // (2 * d))
    return out


def psi_rev_rows(n, moduli, inverse=False):
    """Row j holds psi_j^rev(i) (psi_j^-rev(i) if ``inverse``) for i < N,
    rev the log2(N)-bit reversal and psi_j = primitive_2n_root(n, q_j),
    from Python ints: the twiddles of the textbook NTTs below."""
    rows, perm = [], ring.bit_reverse_permutation(n).tolist()
    for q in moduli:
        psi = primitive_2n_root(n, q)
        if inverse:
            psi = pow(psi, -1, q)
        powers = [1] * n
        for i in range(1, n):
            powers[i] = powers[i - 1] * psi % q
        rows.append([powers[i] for i in perm])
    return np.array(rows, dtype=np.uint64)


def ntt_forward_ct(el):
    """In-place Cooley-Tukey forward NTT on strided (rows, m, 2, t) blocks,
    every step reduced with % and every product by mulmod_split: the slow
    path of ring.ntt_forward."""
    rows, n = el.residues.shape
    psi_rev = psi_rev_rows(n, el.moduli)
    q = el._q[:, :, None]
    out = el.residues.copy()
    t, m = n, 1
    while m < n:
        t >>= 1
        blocks = out.reshape(rows, m, 2, t)
        u = blocks[:, :, 0].copy()
        w = mulmod_split(blocks[:, :, 1], psi_rev[:, m : 2 * m, None], q)
        blocks[:, :, 0] = (u + w) % q
        blocks[:, :, 1] = (u + (q - w)) % q
        m <<= 1
    return out


def ntt_inverse_gs(el, rows):
    """In-place Gentleman-Sande inverse NTT of el's chain rows ``rows``,
    every step reduced with % and every product by mulmod_split: the slow
    path of ring._ntt_inverse_block."""
    moduli = el.params.moduli[rows]
    q_col = np.array(moduli, dtype=np.uint64)[:, None]
    ipsi = psi_rev_rows(el.params.ring_degree, moduli, inverse=True)
    q = q_col[:, :, None]
    out = el.residues[rows].copy()
    k, n = out.shape
    t, m = 1, n
    while m > 1:
        h = m >> 1
        blocks = out.reshape(k, h, 2, t)
        u = blocks[:, :, 0].copy()
        w = blocks[:, :, 1]
        blocks[:, :, 0] = (u + w) % q
        blocks[:, :, 1] = mulmod_split((u + (q - w)) % q, ipsi[:, h:m, None], q)
        t <<= 1
        m = h
    n_inv = np.array([[pow(n, -1, q)] for q in moduli], dtype=np.uint64)
    return mulmod_split(out, n_inv, q_col)


def encrypt_four_ntt(pk, pt, rng):
    """(c0, c1) residues of scheme.encrypt with e0 and the message each
    NTT'd on their own: four forward NTTs for a Coefficient message."""
    params = pk.scheme
    rp = params.ring
    lv = rp.max_level
    n = rp.ring_degree
    u, e0, e1 = (
        ring.ntt_forward(ring.from_int_coeffs(c, rp, lv)) for c in (
            ring.ternary_coeffs(n, params.secret_weight, rng),
            ring.gaussian_coeffs(n, scheme.ERR_STD, rng),
            ring.gaussian_coeffs(n, scheme.ERR_STD, rng),
        )
    )
    m = ring.ntt_forward(pt.poly)
    b, a = split(pk.pair)
    c0 = ring.ring_add(ring.ring_add(ring.ring_mul(b, u), e0), m)
    c1 = ring.ring_add(ring.ring_mul(a, u), e1)
    return c0.residues, c1.residues


def fft_mul_two_step(a, spectra, u, m, e0, e1):
    """(b*u + e0 + m, a*u + e1) as fresh encryption composed it before
    fft_mul took the sum: ring.fft_mul reduces the product, the errors
    go through from_int_coeffs and pair, and two ring_adds add them and
    the message m, a one-part Coefficient element."""
    rp, lv = a.params, a.level
    e0, e1 = (ring.from_int_coeffs(e, rp, lv) for e in (e0, e1))
    errors = ring.pair(ring.ring_add(e0, m), e1)
    product = ring.fft_mul(a, spectra, u, np.zeros((1, 1, 1), np.int64))
    return ring.ring_add(product, errors)


def encrypt_per_column(pk, features, rng):
    """The d ciphertexts of an (m, d) matrix as encrypt_features made them
    one column at a time: the column zero-padded to N/2, one folded IFFT,
    the rounding error from one folded FFT of the residual, an RNS
    Plaintext, and scheme.encrypt, with one rng for every column."""
    params = pk.scheme
    n, scale = params.ring.ring_degree, params.scale
    cts = []
    for column in np.asarray(features, dtype=np.float64).T:
        full = np.zeros(n // 2)
        full[: len(column)] = column
        coeffs = encoding.embed_to_coeffs(full, n) * scale
        ints = np.rint(coeffs).astype(np.int64)
        error = float(np.max(np.abs(encoding.coeffs_to_slots(coeffs - ints, n))))
        bound = float(np.max(np.abs(full))) + error / scale
        poly = ring.from_int_coeffs(ints, params.ring, params.max_level)
        cts.append(scheme.encrypt(pk, encoding.Plaintext(poly, scale, error, bound), rng))
    return cts


def gaussian_draws(n, std, rng, tail_bound):
    """gaussian_coeffs' draw sequence, written out: N normals, then
    every coefficient that rounds to tail_bound*std or beyond drawn again
    until none does."""
    g = rng.normal(0.0, std, n)
    cap = tail_bound * std
    while True:
        bad = np.abs(np.rint(g)) >= cap
        if not bad.any():
            return np.rint(g).astype(np.int64)
        g[bad] = rng.normal(0.0, std, int(bad.sum()))


def add_plain(ct, pt):
    """Slotwise sum of a ciphertext and a slot-vector plaintext at its
    scale, NTT'd and added to c0, with add_const's ledger rule: the slow
    path of scheme.add_const, fed constant_plaintext."""
    ct = scheme.to_evaluation(ct)
    poly = ring.ntt_forward(ring.drop_level(pt.poly, ct.level))
    return dataclasses.replace(
        ct,
        parts=ring.ring_add(ct.parts, pair_with_zero(poly)),
        noise_bits=scheme._log2_sum(ct.noise_bits, scheme._log2_pos(pt.round_error)),
        value_bound=ct.value_bound + pt.value_bound,
    )


def constant_plaintext(value, scale, params, level):
    """The constant polynomial round(value*scale) as a Coefficient-domain
    plaintext, whose NTT is the (level+1, N) block of c0 mod q_j: the
    N-wide route that scheme.mult_const and add_const replace, fed to
    mult_plain and add_plain."""
    scaled = value * scale
    c0 = int(np.rint(scaled))
    coeffs = np.zeros(params.ring_degree, dtype=object)
    coeffs[0] = c0
    poly = ring.from_int_coeffs(coeffs, params, level)
    err = abs(scaled - c0)
    return encoding.Plaintext(poly, float(scale), err, abs(value) + err / scale)


def count_key_switches(monkeypatch):
    """A live {"switch": n, "divide": n} count of scheme._relinearize and
    ring.divide calls, the key switches and the divisions (rescales,
    ModDowns and fused divisions by P*q_l) of what runs after it."""
    counts = {"switch": 0, "divide": 0}
    for mod, name, key in ((scheme, "_relinearize", "switch"), (ring, "divide", "divide")):

        def counted(*args, fn=getattr(mod, name), key=key, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return counts
