"""Command-line surface: params/keygen/encrypt/infer/decrypt/train/
calibrate.

Exit codes: 0 success, 2 usage or bad parameters (also decrypted
scores that --classes rules out), 3 format/checksum
problems, 4 crypto-state (noise budget / level exhaustion, raised when
a ciphertext is built or loaded), 5 I/O.

Trust model: the data owner holds sk and pk and runs encrypt/decrypt;
the model host holds evk, the parameter file and the model file and runs
infer. sk.bin never needs to leave the data owner's machine.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from . import approx, encoding, neural, scheme, serialize
from .errors import (
    CryptoStateError,
    FormatError,
    ParameterError,
    TrainingDiverged,
)

SK_BANNER = (
    "SECURITY: sk.bin is the decryption key. Anyone holding it can read "
    "every ciphertext made under the matching pk. Keep it with the data "
    "owner; the model host needs only evk.bin, the parameter file and the model."
)


def _load_csv(path, has_labels):
    data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    labels = None
    if has_labels:
        if data.shape[1] < 2:
            raise FormatError("dataset CSV needs feature columns plus a label")
        data, labels = data[:, :-1], data[:, -1]
        if not np.all(np.isfinite(labels) & (labels >= 0) & (labels == np.rint(labels))):
            raise FormatError("dataset labels must be finite non-negative integers")
        labels = labels.astype(np.int64)
    if not np.all(np.isfinite(data)):
        raise FormatError("dataset features must be finite")
    return data, labels


def _read_blob(path):
    with open(path, "rb") as fh:
        return fh.read()


def _model_meta(args_model):
    with open(args_model) as fh:
        model, head, meta, prov = serialize.model_from_text(fh.read())
    return model, head, neural.head_config(head, **meta), prov


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    params = scheme.param_gen(
        args.security,
        args.slots,
        args.depth,
        scale_bits=args.scale_bits,
        allow_insecure=args.allow_insecure,
    )
    serialize.save_params(params, args.out)
    print(
        f"wrote {args.out}: N={params.ring.ring_degree}, "
        f"{params.ring.level_count} primes, "
        f"{params.ring.total_bits()} modulus bits, scale=2^"
        f"{int(math.log2(params.scale))}"
    )
    return 0


def cmd_keygen(args) -> int:
    params = serialize.load_params(args.params)
    rng = np.random.default_rng(args.seed)
    keys = scheme.keygen(params, rng)
    os.makedirs(args.out_dir, exist_ok=True)
    pk_path = os.path.join(args.out_dir, "pk.bin")
    sk_path = os.path.join(args.out_dir, "sk.bin")
    evk_path = os.path.join(args.out_dir, "evk.bin")
    with open(pk_path, "wb") as fh:
        fh.write(serialize.public_key_to_bytes(keys.pk))
    with open(evk_path, "wb") as fh:
        fh.write(serialize.relin_key_to_bytes(keys.evk))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fd = os.open(sk_path, flags, 0o600)
    try:
        os.write(fd, serialize.secret_key_to_bytes(keys.sk))
    finally:
        os.close(fd)
    os.chmod(sk_path, 0o600)
    print(f"wrote {pk_path}, {evk_path}, {sk_path} (mode 0600)")
    print(SK_BANNER, file=sys.stderr)
    return 0


def cmd_encrypt(args) -> int:
    params = serialize.load_params(args.params)
    pk = serialize.public_key_from_bytes(_read_blob(args.pk), params)
    features, _ = _load_csv(args.input, args.has_labels)
    limit = encoding.MAX_COEFF / params.scale
    largest = float(np.max(np.abs(features), initial=0.0))
    if largest >= limit:
        raise FormatError(
            f"dataset feature magnitude {largest:.6g} is out of range: this "
            f"parameter set encodes magnitudes below {limit:.6g} (2^62 / scale)"
        )
    rng = np.random.default_rng(args.seed)
    cts = neural.encrypt_features(pk, features, rng)
    bundle = serialize.Bundle(serialize.BUNDLE_FEATURES, len(features), cts)
    with open(args.out, "wb") as fh:
        fh.write(serialize.bundle_to_bytes(bundle, params))
    print(
        f"encrypted {len(features)} samples x {features.shape[1]} features "
        f"into {len(cts)} ciphertexts -> {args.out}"
    )
    return 0


def cmd_decrypt(args) -> int:
    params = serialize.load_params(args.params)
    sk = serialize.secret_key_from_bytes(_read_blob(args.sk), params)
    with open(args.input, "rb") as fh:
        bundle = serialize.bundle_from_bytes(fh.read(), params)
    if bundle.kind == serialize.BUNDLE_SCORES:
        scores = scheme.decrypt_to_slots(sk, bundle.ciphertexts[0])
        scores = scores[: bundle.n_samples]
        top = args.classes + 0.5  # a soft-argmax over 1..C lies in [1, C]
        if not np.all((scores >= 0.5) & (scores <= top)):
            raise ValueError(
                f"scores in [{scores.min():.6g}, {scores.max():.6g}] lie outside "
                f"[0.5, {top:g}]: a wrong --classes, or an sk that does not match"
            )
        classes = neural.scores_to_classes(scores, args.classes)
        rows = np.column_stack([scores, classes.astype(np.float64)])
        np.savetxt(args.out, rows, delimiter=",", fmt="%.10g")
        print(f"wrote {bundle.n_samples} score,class rows -> {args.out}")
    else:
        cols = [
            scheme.decrypt_to_slots(sk, ct)[: bundle.n_samples]
            for ct in bundle.ciphertexts
        ]
        np.savetxt(args.out, np.column_stack(cols), delimiter=",", fmt="%.10g")
        print(
            f"wrote {bundle.n_samples} x {len(cols)} feature matrix -> {args.out}"
        )
    return 0


def cmd_infer(args) -> int:
    params = serialize.load_params(args.params)
    evk = serialize.relin_key_from_bytes(_read_blob(args.evk), params)
    model, head, cfg, _ = _model_meta(args.model)
    with open(args.input, "rb") as fh:
        bundle = serialize.bundle_from_bytes(fh.read(), params)
    if bundle.kind != serialize.BUNDLE_FEATURES:
        raise FormatError("infer expects a feature bundle")
    out_ct = neural.forward_encrypted(model, head, bundle.ciphertexts, evk, cfg)
    out = serialize.Bundle(serialize.BUNDLE_SCORES, bundle.n_samples, [out_ct])
    with open(args.out, "wb") as fh:
        fh.write(serialize.bundle_to_bytes(out, params))
    print(
        f"soft-argmax ciphertext for {bundle.n_samples} samples -> {args.out}"
    )
    return 0


def _train_config(args) -> neural.TrainConfig:
    return neural.TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        noise_std=args.noise_std,
        range_penalty_weight=args.range_penalty,
        logit_radius=args.radius,
        weight_decay=args.weight_decay,
        optimizer=args.optimizer,
    )


def cmd_train(args) -> int:
    features, labels = _load_csv(args.data, True)
    data = neural.Dataset(features, labels)
    cfg = _train_config(args)
    n_classes = int(labels.max()) + 1
    head = neural.SoftArgmaxHead(1.0, max(n_classes, 2))
    rng = np.random.default_rng(args.seed)
    model = neural.LinearModel.zeros(features.shape[1], head.class_count)
    model, history = neural.train_noise_injection(model, head, data, cfg, rng)
    prov = {
        "seed": args.seed,
        "config_hash": hashlib.sha256(repr(cfg).encode()).hexdigest()[:16],
    }
    text = serialize.model_to_text(
        model, head, args.radius, args.exp_degree, args.inv_iterations, prov
    )
    with open(args.out, "w") as fh:
        fh.write(text)
    print(
        f"trained {len(history)} epochs, final loss {history[-1]:.5f} "
        f"-> {args.out}"
    )
    return 0


def cmd_calibrate(args) -> int:
    features, labels = _load_csv(args.data, True)
    data = neural.Dataset(features, labels)
    model, head, cfg, prov = _model_meta(args.model)
    new_head = neural.calibrate_temperature(model, head, data)
    text = serialize.model_to_text(
        model, new_head, cfg.radius, cfg.exp_degree, cfg.inv_iterations, prov
    )
    with open(args.out, "w") as fh:
        fh.write(text)
    print(
        f"calibrated temperature {head.temperature:.5f} -> "
        f"{new_head.temperature:.5f}, wrote {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnn",
        description=(
            "Approximate homomorphic encryption with an encrypted "
            "soft-argmax classifier head."
        ),
        epilog=SK_BANNER,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="generate a parameter file")
    p.add_argument("--security", type=int, default=128, choices=(128, 192, 256))
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--scale-bits", type=int, default=None)
    p.add_argument("--allow-insecure", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser(
        "keygen",
        help="generate pk/sk/evk blobs",
        epilog=SK_BANNER,
    )
    p.add_argument("--params", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="column-pack and encrypt a CSV")
    p.add_argument("--pk", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--has-labels", action="store_true",
                   help="drop a trailing label column before encryption")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a bundle to CSV")
    p.add_argument("--sk", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=2)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("infer", help="encrypted forward pass")
    p.add_argument("--model", required=True)
    p.add_argument("--evk", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    head = approx.SoftmaxConfig()  # the head knobs' defaults
    p = sub.add_parser("train", help="train the probe with noise injection")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--range-penalty", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=head.radius)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--optimizer", choices=("sgd", "adamw"), default="sgd")
    p.add_argument("--exp-degree", type=int, default=head.exp_degree)
    p.add_argument("--inv-iterations", type=int, default=head.inv_iterations)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit the head temperature, probe frozen")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        # FormatError subclasses ValueError; it must win over the usage bucket
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, TrainingDiverged, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CryptoStateError as exc:
        print(f"crypto-state error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
