#!/usr/bin/env python3
"""Profile the noise ledger against measured noise over squaring chains
and sums of products.

For each depth the script squares a fresh ciphertext two ways: with
mult then rescale, two divisions a product, and with mult_rescale, one
division by P*q_l. It then evaluates two sums of products, each under
one key switch and one division a sum: x*x + y*y + z through
mult_rescale_sum, and the head's degree-7 exp fit through
eval_poly_encrypted; that fit at +x and -x from one power tree,
through eval_poly_pair; a degree-31 exp fit, whose tree forms y^3 for
its 4-coefficient nodes; and the default two-class soft-argmax head, one
degree-27 fit of its exp/Newton circuit whose ledger carries the fit's
sup error, against that circuit in plaintext (the fits and the head
when the chain is deep enough). It compares each ledger estimate with the
ground-truth probe (max |decoded - expected| * scale, in bits). The
margin columns are the headroom the static worst-case rules keep above
reality; the script exits 1 if any margin is negative.

Example:
    python scripts/noise_profile.py --ring-degree 2048 --depth 8
"""

import argparse
import sys

import numpy as np

from hnn import approx, encoding, scheme


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ring-degree", type=int, default=2048)
    ap.add_argument("--depth", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # one 42-bit base prime and a 41-bit prime per squaring
    params = scheme.param_gen(
        128, args.ring_degree // 2, args.depth, 40, allow_insecure=True
    )
    keys = scheme.keygen(params, np.random.default_rng(args.seed))
    rng = np.random.default_rng(args.seed + 1)

    def fresh(values):
        pt = encoding.encode(values, params.scale, params.ring)
        return scheme.encrypt(keys.pk, pt, rng)

    v = rng.uniform(-1.0, 1.0, params.slot_capacity)
    two = one = fresh(v)
    vals = v.copy()

    print(f"{'':<12} {'rescale(mult())':>30} {'mult_rescale':>30}")
    print(f"{'stage':<12}" + f" {'estimated':>10} {'measured':>10} {'margin':>8}" * 2)
    margins = []
    for depth in range(args.depth + 1):
        if depth:
            two = scheme.rescale(scheme.mult(two, two, keys.evk))
            one = scheme.mult_rescale(one, one, keys.evk)
            vals = vals * vals
        name = f"square^{depth}" if depth else "fresh"
        line = f"{name:<12}"
        for ct in (two, one):
            measured = scheme.noise_measure(keys.sk, ct, vals)
            margins.append(ct.noise_bits - measured)
            line += f" {ct.noise_bits:>10.1f} {measured:>10.1f} {margins[-1]:>8.1f}"
        print(line)

    w, z = (rng.uniform(-1.0, 1.0, params.slot_capacity) for _ in range(2))
    x, y = fresh(v), fresh(w)
    rows = []
    # |x*x + y*y + z| <= 3 at scale^2 would wrap level 1's 83-bit modulus
    if params.max_level >= 2:
        addend = scheme.mult_const(fresh(z), 1.0, params.scale)
        out = scheme.mult_rescale_sum([(x, x), (y, y)], keys.evk, addend)
        rows.append(("x*x + y*y + z", out, v * v + w * w + z))
    fit = approx.build_exp_approx(2.0, 7)
    if params.max_level > approx.poly_eval_depth(fit.degree):
        rows.append(("exp fit, deg 7", approx.eval_poly_encrypted(x, fit, keys.evk), fit(v)))
        plus, minus = approx.eval_poly_pair(x, fit, keys.evk)
        rows += [("exp pair +x, deg 7", plus, fit(v)), ("exp pair -x, deg 7", minus, fit(-v))]
    # deep enough for y^3's baby steps, with no fit error charged
    deep = approx.build_exp_approx(2.0, 31)
    if params.max_level > approx.poly_eval_depth(deep.degree):
        rows.append(("exp fit, deg 31", approx.eval_poly_encrypted(x, deep, keys.evk), deep(v)))
    cfg = approx.SoftmaxConfig()
    if params.max_level >= approx.soft_argmax_min_levels(cfg):
        # a centred logit in [-2, 2] and its negation through the fitted
        # head, against the circuit it fits: the exp fit's index sum
        # times the Newton iterate of its slot sum
        y = 2.0 * v
        ct = fresh(y)
        out = approx.encrypted_soft_argmax([ct, scheme.negate(ct)], cfg, keys.evk)
        e = cfg.exp_approx()(np.column_stack((y, -y)))
        inv = approx.newton_reciprocal_plain(
            e.sum(axis=1), cfg.sum_interval()[1], cfg.inv_iterations
        )
        rows.append(("soft-argmax, C = 2", out, (e @ [1.0, 2.0]) * inv))
    if rows:
        print(f"\n{'circuit':<18} {'estimated':>10} {'measured':>10} {'margin':>8}")
    for name, ct, want in rows:
        measured = scheme.noise_measure(keys.sk, ct, want)
        margins.append(ct.noise_bits - measured)
        print(f"{name:<18} {ct.noise_bits:>10.1f} {measured:>10.1f} {margins[-1]:>8.1f}")
    if min(margins) < 0:
        print("FAIL: measured noise above the ledger estimate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
