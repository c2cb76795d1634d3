#!/usr/bin/env python3
"""End-to-end toy experiment: train with scheme-matched noise injection,
calibrate the head temperature, then compare plaintext inference against
the encrypted forward pass on a held-out test set.

The final report shows plain vs encrypted accuracy and their ratio next
to the published transformer-scale figure (82.5%), which this desk-scale
setup deliberately does not try to reproduce. The script exits 1 when
plain/encrypted class agreement falls below 99%.

Example:
    python scripts/run_toy_pipeline.py --samples 1024 --features 64 --seed 7
"""

import argparse
import sys
import time

import numpy as np

from hnn import approx, neural, scheme

# the end-to-end-agreement acceptance threshold; below it the script fails
MIN_AGREEMENT = 0.99


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=1024)
    ap.add_argument("--features", type=int, default=64)
    ap.add_argument("--test-fraction", type=float, default=0.5)
    ap.add_argument("--epochs", type=int, default=80)
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--radius", type=float, default=2.0)
    ap.add_argument("--train-radius", type=float, default=1.6,
                    help="range-penalty radius; kept inside --radius")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--secure", action="store_true",
                    help="use a table-compliant ring (N=32768, much slower)")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    data = neural.two_blob_dataset(args.samples, args.features, rng)
    n_test = int(len(data) * args.test_fraction)
    train = neural.Dataset(data.features[:-n_test], data.labels[:-n_test])
    test = neural.Dataset(data.features[-n_test:], data.labels[-n_test:])
    print(f"dataset: {len(train)} train / {len(test)} test, d={args.features}")

    head = neural.SoftArgmaxHead(1.0, 2)
    cfg = neural.head_config(head, radius=args.radius)
    depth = neural.pipeline_depth(cfg)
    params = scheme.param_gen(
        128, n_test, depth, scale_bits=40, allow_insecure=not args.secure
    )
    print(
        f"ring: N={params.ring.ring_degree}, {params.ring.level_count} primes, "
        f"{params.ring.total_bits()} bits"
        + ("" if args.secure else " (allow_insecure test ring)")
    )
    keys = scheme.keygen(params, np.random.default_rng(args.seed + 1))

    # tie the injected training noise to the measured scheme noise
    noise_std = neural.measured_noise_std(keys, np.random.default_rng(args.seed + 2))
    print(f"measured encryption slot-error std: {noise_std:.3e}")

    t0 = time.monotonic()
    train_cfg = neural.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        noise_std=noise_std,
        logit_radius=args.train_radius,
        range_penalty_weight=10.0,
    )
    model, history = neural.train_noise_injection(
        neural.LinearModel.zeros(args.features, 2), head, train, train_cfg, rng
    )
    head = neural.calibrate_temperature(model, head, train)
    cfg = neural.head_config(head, radius=args.radius)
    print(
        f"trained {args.epochs} epochs (loss {history[0]:.4f} -> "
        f"{history[-1]:.4f}), calibrated T = {head.temperature:.4f} "
        f"[{time.monotonic() - t0:.1f}s]"
    )

    t0 = time.monotonic()
    feature_cts = neural.encrypt_features(keys.pk, test.features, rng)
    sa_ct = neural.forward_encrypted(model, head, feature_cts, keys.evk, cfg)
    scores = scheme.decrypt_to_slots(keys.sk, sa_ct)[: len(test)]
    enc_time = time.monotonic() - t0

    plain_pred = model.logits(test.features).argmax(axis=1)
    plain_acc = float(np.mean(plain_pred == test.labels))
    enc = neural.compute_metrics(scores, test.labels)
    agreement = float(
        np.mean(neural.scores_to_classes(scores, 2) == plain_pred)
    )

    print(f"\nencrypted inference: {len(test)} samples in {enc_time:.1f}s")
    print(f"plain accuracy:      {plain_acc:.4f}")
    print(
        "encrypted metrics:   "
        + "  ".join(f"{k}={v:.4f}" for k, v in enc.items())
    )
    print(f"plain/encrypted class agreement: {agreement * 100:.2f}%")
    ratio = enc["accuracy"] / plain_acc if plain_acc else float("nan")
    print(
        f"encrypted/plain accuracy ratio:  {ratio * 100:.1f}%  "
        "(published transformer-scale ratio: 82.5%; desk scale is not "
        "comparable and no equality is claimed)"
    )
    if agreement < MIN_AGREEMENT:
        print(f"FAIL: class agreement below {MIN_AGREEMENT:.0%}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
