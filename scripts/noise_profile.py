#!/usr/bin/env python3
"""Profile the noise ledger against measured noise over squaring chains.

For each depth the script squares a fresh ciphertext two ways: with
mult then rescale, two divisions a product, and with mult_rescale, one
division by P*q_l. It compares each chain's ledger estimate with the
ground-truth probe (max |decoded - expected| * scale, in bits). The
margin columns are the headroom the static worst-case rules keep above
reality; the script exits 1 if any margin is negative.

Example:
    python scripts/noise_profile.py --ring-degree 2048 --depth 8
"""

import argparse
import sys

import numpy as np

from hnn import encoding, scheme


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

    v = rng.uniform(-1.0, 1.0, params.slot_capacity)
    two = one = scheme.encrypt(
        keys.pk, encoding.encode(v, params.scale, params.ring), rng
    )
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
    if min(margins) < 0:
        print("FAIL: measured noise above the ledger estimate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
