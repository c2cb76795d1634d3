#!/usr/bin/env python3
"""Encrypted-inference benchmark for hnn.

Drives the call sequence of ``hnn encrypt | hnn infer | hnn decrypt`` in
one process, with bundles passed as bytes in memory, on a closed loop (one
client, one batch at a time), and checks every batch against the
plaintext model. See bench/README.md for the metrics and workloads.

    python3 bench/run.py --workload default-1024 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics, measured without tracing; with --trace 1 they are
the per-layer metrics of a run that alternates untraced and traced
batches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

# one thread per process: the benchmark measures serial work
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from tracer import Tracer  # bench/ is the script's directory

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SCORE_ERR_BOUND = 1e-3  # acceptance bound on |encrypted - plaintext| score
END_TO_END = {
    "batch_s": "s",
    "samples_per_s": "samples/s",
    "encrypt_s": "s",
    "infer_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wire_bytes_per_sample": "bytes",
    "key_bytes": "bytes",
    "score_err_max": "slot-units",
    "class_agreement": "share",
}
SETUP_STAGES = ("param_gen", "ntt_tables", "keygen", "key_serde", "model_load")
# cold set-ups run between the batches until their time is this share of
# the batch time, so that they sample the same stretch of the host's
# fast and slow periods as the batches do
SETUP_SHARE = 0.25
# functions whose inclusive time is reported from the set-up spans
SETUP_INCL = ("scheme.keygen", "serialize.relin_key_from_bytes")
BATCH_SELF = (
    "ring.ntt_forward", "ring.ntt_inverse", "ring.ring_mul", "ring.ring_add",
    "ring.compose", "ring.from_int_coeffs", "encoding.encode",
    "encoding.encode_constant", "encoding.decode",
)
BATCH_INCL = (
    "scheme.decrypt_to_slots", "scheme.encrypt", "scheme.mult",
    "scheme.mult_plain", "scheme.rescale", "approx.eval_poly_encrypted",
    "approx.encrypted_reciprocal", "approx.encrypted_soft_argmax",
    "neural.encrypt_features", "neural.encrypted_logits",
    "neural.forward_encrypted", "serialize.bundle_to_bytes",
    "serialize.bundle_from_bytes",
)
BATCH_CALLS = (
    "encoding.encode", "encoding.encode_constant", "scheme.encrypt",
    "scheme.mult", "scheme.mult_plain", "scheme.rescale", "scheme.add",
)
SAMPLERS = ("ring.sample_uniform", "ring.sample_ternary", "ring.sample_gaussian")
NTT = ("ring.ntt_forward", "ring.ntt_inverse")
LAYERS = ("ring", "encoding", "scheme", "approx", "neural", "serialize")
# called ~1e5 times per batch; a wrapper would cost more than the call
UNTRACED = ("ring.mulmod",)

PER_LAYER = dict(
    [(f"{n}.self_s", "s") for n in BATCH_SELF]
    + [(f"{n}.incl_s", "s") for n in BATCH_INCL + SETUP_INCL]
    + [(f"{n}.calls", "count") for n in BATCH_CALLS]
    + [
        ("ring.sample.self_s", "s"),
        ("ring.ntt.calls", "count"),
        ("ring.ntt.butterflies", "count"),
        ("ring.ntt.ns_per_butterfly", "ns"),
        ("scheme.levels_used", "count"),
        ("scheme.noise_bits", "bits"),
        ("scheme.noise_measure_bits", "bits"),
        ("scheme.ledger_margin_bits", "bits"),
        ("trace.overhead_s", "s"),
        ("trace.batch_s", "s"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"setup.{stage}_s", "s") for stage in SETUP_STAGES]
)


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    samples: int
    features: int
    secure: bool  # 128-bit table-compliant ring instead of the N=1024 test ring
    min_batches: int  # timed batches per run even past --seconds


WORKLOADS = {
    "default-1024": Workload(
        "ROADMAP/acceptance shape: N=1024, 17 primes, 512 x 64; encrypt, "
        "linear layer and head all weigh in",
        512, 64, False, 3,
    ),
    "wide-1024": Workload(
        "same ring, 512 x 256: encrypt and the 512 constant mult_plains of "
        "the linear layer dominate; key switching matters little",
        512, 256, False, 3,
    ),
    "secure-128": Workload(
        "128-bit table ring N=32768: a full 16384-slot batch x 8; the head "
        "and key switching dominate (too slow for the default run budget)",
        16384, 8, True, 1,
    ),
}


class BenchError(RuntimeError):
    """The checkout holds no hnn sources to measure."""


def import_hnn():
    """Import hnn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hnn" / "__init__.py").is_file():
        raise BenchError(f"no hnn sources under {src}")
    sys.path.insert(0, str(src))
    import hnn

    if pathlib.Path(hnn.__file__).resolve().parent != (src / "hnn").resolve():
        raise BenchError(f"imported hnn from {hnn.__file__}, not {src}")
    return hnn


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(samples):
    """(percentile, value) for the highest whole percentile with at least
    ten samples beyond it, or None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


def describe(name, samples, unit):
    med = statistics.median(samples)
    line = f"{name:<28} median {med:.6g} {unit}, n={len(samples)}"
    t = tail(samples)
    if t is None:
        return line + " (no percentile has 10 samples beyond it)"
    return line + f", p{t[0]} {t[1]:.6g} {unit}"


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, hnn, name, seed):
        self.hnn = hnn
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.failures = []  # (batch label, reason)
        self.notes = []

    def rng(self, *stream):
        return np.random.default_rng([self.seed, *stream])

    # -- inputs ------------------------------------------------------------

    def make_params(self):
        neural, scheme = self.hnn.neural, self.hnn.scheme
        depth = neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead()))
        params = scheme.param_gen(
            128, self.wl.samples, depth, scale_bits=40,
            allow_insecure=not self.wl.secure,
        )
        if self.wl.secure:
            bound = scheme.SECURITY_TABLE[128].get(params.ring.ring_degree)
            if params.allow_insecure or bound is None or params.ring.total_bits() > bound:
                raise RuntimeError(
                    f"{self.name} must run on a 128-bit table ring, got "
                    f"N={params.ring.ring_degree}, {params.ring.total_bits()} bits, "
                    f"allow_insecure={params.allow_insecure}"
                )
        return params

    def caches(self):
        """(name, cache) for every lazily filled table in hnn: module dicts
        named *CACHE and functools caches."""
        for layer in LAYERS:
            for attr, val in vars(getattr(self.hnn, layer)).items():
                if (attr.upper().endswith("CACHE") and isinstance(val, dict)) or callable(
                    getattr(val, "cache_clear", None)
                ):
                    yield f"{layer}.{attr}", val

    def cache_sizes(self):
        return {
            name: len(c) if isinstance(c, dict) else c.cache_info().currsize
            for name, c in self.caches()
        }

    def clear_caches(self):
        """Drop every lazily built table, as in a fresh process."""
        for _, cache in self.caches():
            (cache.clear if isinstance(cache, dict) else cache.cache_clear)()

    def warm_caches(self, state, cfg):
        """Fill the lazily built tables of the batch path before timing:
        slot and twist tables (encode, decode), the CRT constants of every
        level (relinearization, decode) and the exp fit. The run checks
        after each timed batch that no cache grew."""
        h = self.hnn
        params = state["params"]
        pt = h.encoding.encode(
            np.linspace(-1.0, 1.0, params.slot_capacity), params.scale, params.ring
        )
        h.encoding.decode(pt)
        for level in range(params.ring.level_count):
            h.ring.compose(h.ring.zero(params.ring, level))
        cfg.exp_approx()

    def setup_keys(self):
        """One cold set-up of the key side: (stage seconds, state)."""
        h = self.hnn
        self.clear_caches()
        clock = time.perf_counter
        t0 = clock()
        params = h.serialize.params_from_text(
            h.serialize.params_to_text(self.make_params())
        )
        t1 = clock()
        h.ring.ntt_forward(h.ring.zero(params.ring, params.max_level))
        t2 = clock()
        keys = h.scheme.keygen(params, self.rng(1))
        t3 = clock()
        pk_blob = h.serialize.public_key_to_bytes(keys.pk)
        evk_blob = h.serialize.relin_key_to_bytes(keys.evk)
        pk = h.serialize.public_key_from_bytes(pk_blob, params)
        evk = h.serialize.relin_key_from_bytes(evk_blob, params)
        t4 = clock()
        stages = {
            "param_gen": t1 - t0, "ntt_tables": t2 - t1,
            "keygen": t3 - t2, "key_serde": t4 - t3,
        }
        state = {
            "params": params, "sk": keys.sk, "pk": pk, "evk": evk,
            "key_bytes": len(pk_blob) + len(evk_blob),
        }
        return stages, state

    def load_model(self, text):
        h = self.hnn
        t0 = time.perf_counter()
        model, head, meta, _ = h.serialize.model_from_text(text)
        cfg = h.approx.SoftmaxConfig(
            temperature=head.temperature,
            class_count=head.class_count,
            radius=meta["radius"],
            exp_degree=meta["exp_degree"],
            inv_iterations=meta["inv_iterations"],
        )
        return time.perf_counter() - t0, (model, head, cfg)

    def train_model(self, state):
        """The scripts/run_toy_pipeline.py recipe, untimed: noise injection
        matched to measured scheme noise, range penalty, then temperature
        calibration with the probe frozen. Returns the model file text."""
        h = self.hnn
        neural = h.neural
        rng = self.rng(0)
        data = neural.two_blob_dataset(self.wl.samples, self.wl.features, rng)
        keys = h.scheme.KeyMaterial(state["sk"], state["pk"], state["evk"])
        noise_std = neural.measured_noise_std(keys, self.rng(4), trials=10)
        cfg = neural.TrainConfig(
            learning_rate=0.1, epochs=80, noise_std=noise_std,
            logit_radius=1.6, range_penalty_weight=10.0,
        )
        head = neural.SoftArgmaxHead(1.0, 2)
        model, _ = neural.train_noise_injection(
            neural.LinearModel.zeros(self.wl.features, 2), head, data, cfg, rng
        )
        head = neural.calibrate_temperature(model, head, data)
        hc = neural.head_config(head)
        return h.serialize.model_to_text(
            model, head, hc.radius, hc.exp_degree, hc.inv_iterations
        )

    def batch_features(self, rng):
        data = self.hnn.neural.two_blob_dataset(
            self.wl.samples, self.wl.features, rng
        )
        return data.features

    # -- one batch ---------------------------------------------------------

    def run_batch(self, state, model_state, features, enc_rng):
        """Plaintext features -> decrypted classes, as the CLI does it.

        Returns timings and the outputs needed by the checks."""
        h = self.hnn
        ser, neural = h.serialize, h.neural
        model, head, cfg = model_state
        params, m = state["params"], len(features)
        clock = time.perf_counter
        t0 = clock()
        # data owner: hnn encrypt
        cts = neural.encrypt_features(state["pk"], features, enc_rng)
        feat_blob = ser.bundle_to_bytes(
            ser.Bundle(ser.BUNDLE_FEATURES, m, cts), params
        )
        t1 = clock()
        # model host: hnn infer
        bundle = ser.bundle_from_bytes(feat_blob, params)
        out_ct = neural.forward_encrypted(
            model, head, bundle.ciphertexts, state["evk"], cfg
        )
        score_blob = ser.bundle_to_bytes(
            ser.Bundle(ser.BUNDLE_SCORES, m, [out_ct]), params
        )
        t2 = clock()
        # data owner: hnn decrypt
        scores_bundle = ser.bundle_from_bytes(score_blob, params)
        scores = h.scheme.decrypt_to_slots(
            state["sk"], scores_bundle.ciphertexts[0]
        )[: scores_bundle.n_samples]
        classes = neural.scores_to_classes(scores, head.class_count)
        t3 = clock()
        return {
            "batch_s": t3 - t0, "encrypt_s": t1 - t0, "infer_s": t2 - t1,
            "decrypt_s": t3 - t2,
            "wire_bytes": len(feat_blob) + len(score_blob),
            "out_ct": out_ct, "scores": scores, "classes": classes,
        }

    def mirror(self, model_state, features):
        """Plaintext evaluation of the encrypted circuit itself: the exp
        fit, the slot sum and the Newton reciprocal from 1/hi, using the
        library's own plaintext pieces. The output ciphertext differs
        from this only by scheme noise, which the ledger must bound."""
        approx = self.hnn.approx
        model, head, cfg = model_state
        z = model.logits(features)
        y = (z - z.mean(axis=1, keepdims=True)) / cfg.temperature
        e = cfg.exp_approx()(y)
        lo, hi = cfg.sum_interval()
        inv = approx.newton_reciprocal_plain(e.sum(axis=1), hi, cfg.inv_iterations)
        return (e * inv[:, None]) @ np.arange(1.0, cfg.class_count + 1.0)

    def check(self, state, model_state, features, res):
        """Gate one batch; returns (failure reasons, untimed figures)."""
        h = self.hnn
        neural, scheme = h.neural, h.scheme
        model, head, cfg = model_state
        logits = model.logits(features)
        plain = neural.soft_argmax_value(logits, head.temperature)
        plain_classes = logits.argmax(axis=1)
        err = float(np.max(np.abs(res["scores"] - plain)))
        agree = res["classes"] == plain_classes
        # a sample whose plaintext score sits within the acceptance bound
        # of a rounding boundary may round either way inside that bound
        near_tie = np.abs(plain - np.floor(plain) - 0.5) <= SCORE_ERR_BOUND
        out_ct = res["out_ct"]
        measured = scheme.noise_measure(
            state["sk"], out_ct, self.mirror(model_state, features)
        )
        figures = {
            "score_err_max": err,
            "class_agreement": float(np.mean(agree)),
            "noise_bits": out_ct.noise_bits,
            "noise_measure_bits": measured,
            "ledger_margin_bits": out_ct.noise_bits - measured,
            "levels_used": state["params"].max_level - out_ct.level,
        }
        reasons = []
        if not err <= SCORE_ERR_BOUND:
            reasons.append(f"score error {err:.3e} > {SCORE_ERR_BOUND:g}")
        if np.any(~agree & ~near_tie):
            reasons.append(f"{int(np.sum(~agree & ~near_tie))} classes disagree")
        if not figures["ledger_margin_bits"] >= 0:
            reasons.append(
                f"ledger unsound: {out_ct.noise_bits:.2f} bits < measured "
                f"{measured:.2f}"
            )
        return reasons, figures


def ntt_butterflies(el, *args, **kwargs):
    """rows * N/2 * log2 N for one negacyclic NTT call."""
    shape = getattr(el, "residues", el).shape
    rows, n = (1, shape[0]) if len(shape) == 1 else (shape[0], shape[-1])
    return rows * (n // 2) * (n.bit_length() - 1)


def run(name, seed, seconds, trace):
    """One benchmark run; returns the result object."""
    hnn = import_hnn()
    b = Bench(hnn, name, seed)
    wl = b.wl

    # the probe training is untimed; its keys are not used again
    model_text = b.train_model(b.setup_keys()[1])
    setup_split = {stage: [] for stage in SETUP_STAGES}

    tracer = None
    if trace:
        tracer = Tracer(
            [getattr(hnn, layer) for layer in LAYERS],
            skip=UNTRACED,
            work={n: ntt_butterflies for n in NTT},
        )
        with tracer.active("setup"):
            b.setup_keys()
            b.load_model(model_text)

    results, traced_tags, counts, setup_totals = [], [], None, []
    attempted, batch_time = 0, 0.0
    start = time.perf_counter()
    while True:
        # the batches run on the keys and model of the latest cold set-up,
        # so that one key set is alive at a time
        while not setup_totals or sum(setup_totals) < SETUP_SHARE * batch_time:
            state = model_state = None
            stages, state = b.setup_keys()
            stages["model_load"], model_state = b.load_model(model_text)
            for stage, secs in stages.items():
                setup_split[stage].append(secs)
            setup_totals.append(sum(stages.values()))
        # set-up clears the lazy caches; refill them for the batches
        b.warm_caches(state, model_state[2])
        cache_sizes = b.cache_sizes()
        n_traced = len(traced_tags)
        n_plain = len(results) - n_traced
        time_up = time.perf_counter() - start >= seconds
        if trace:
            if time_up and n_traced >= 2 and n_plain >= 1:
                break
            traced = n_traced < n_plain or (time_up and n_traced < 2)
        else:
            if time_up and len(results) >= wl.min_batches:
                break
            traced = False
        index = attempted
        attempted += 1
        features = b.batch_features(b.rng(2, index))
        tag = f"batch-{index}"
        try:
            if traced:
                with tracer.active(tag):
                    res = b.run_batch(state, model_state, features, b.rng(3, index))
            else:
                res = b.run_batch(state, model_state, features, b.rng(3, index))
        except Exception as exc:  # a raising batch is a failed batch
            traceback.print_exc(file=sys.stderr)
            b.failures.append((tag, f"raised {type(exc).__name__}: {exc}"))
            if attempted - len(results) >= 3:
                break
            continue
        batch_time += res["batch_s"]
        grown = b.cache_sizes()
        if grown != cache_sizes:
            b.notes.append(f"{tag}: lazy caches filled while timed: {grown}")
        reasons, figures = b.check(state, model_state, features, res)
        if traced:
            batch_counts = tracer.call_counts(tag)
            if counts is None:
                counts = batch_counts
            elif batch_counts != counts:
                reasons.append("op counts differ from the first traced batch")
            traced_tags.append(tag)
        for reason in reasons:
            b.failures.append((tag, reason))
        res.update(figures, traced=traced, ok=not reasons)
        results.append(res)

    if not results:
        raise RuntimeError("no batch completed")
    failed = sum(1 for r in results if not r["ok"]) + (attempted - len(results))

    plain_runs = [r for r in results if not r["traced"]]

    def med(key, rows=plain_runs):
        return statistics.median(r[key] for r in rows)

    m = wl.samples
    report = [
        f"workload {name}: {wl.why}",
        f"ring N={state['params'].ring.ring_degree}, "
        f"{state['params'].ring.level_count} primes, "
        f"{state['params'].ring.total_bits()} bits, "
        f"allow_insecure={state['params'].allow_insecure}; "
        f"batch {m} samples x {wl.features} features, seed {seed}",
    ]
    for key in ("batch_s", "encrypt_s", "infer_s", "decrypt_s"):
        report.append(describe(key, [r[key] for r in plain_runs], "s"))
    report.append(describe("setup_s", setup_totals, "s"))
    for stage in SETUP_STAGES:
        report.append(describe(f"  setup.{stage}", setup_split[stage], "s"))
    report.append(
        f"error_rate {failed}/{attempted} batches; ledger margin "
        f"{med('ledger_margin_bits', results):.2f} bits "
        f"(ledger {med('noise_bits', results):.2f}, measured "
        f"{med('noise_measure_bits', results):.2f})"
    )
    for tag, reason in b.failures:
        report.append(f"FAILED {tag}: {reason}")
    report += [f"note {note}" for note in b.notes]

    if not trace:
        metrics = {
            "batch_s": med("batch_s"),
            "samples_per_s": m / med("batch_s"),
            "encrypt_s": med("encrypt_s"),
            "infer_s": med("infer_s"),
            "setup_s": statistics.median(setup_totals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wire_bytes_per_sample": med("wire_bytes") / m,
            "key_bytes": state["key_bytes"],
            "score_err_max": med("score_err_max", results),
            "class_agreement": med("class_agreement", results),
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, traced_tags, results, setup_split)
        units = PER_LAYER
        report += layer_report(tracer, traced_tags, metrics, counts)

    for line in report:
        print(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def layer_metrics(tracer, tags, results, setup_split):
    """Per-layer figures: per-batch medians over the traced batches."""
    per_batch = [tracer.summary([tag]) for tag in tags]
    setup = tracer.summary(["setup"])

    def field(rows, name, key):
        return rows.get(name, {}).get(key, 0)

    def med(fn):
        return statistics.median(fn(rows) for rows in per_batch)

    out = {}
    for name in BATCH_SELF:
        out[f"{name}.self_s"] = med(lambda r: field(r, name, "self_ns")) / 1e9
    for name in BATCH_INCL:
        out[f"{name}.incl_s"] = med(lambda r: field(r, name, "incl_ns")) / 1e9
    for name in SETUP_INCL:
        out[f"{name}.incl_s"] = field(setup, name, "incl_ns") / 1e9
    for name in BATCH_CALLS:
        out[f"{name}.calls"] = med(lambda r: field(r, name, "calls"))
    out["ring.sample.self_s"] = med(
        lambda r: sum(field(r, n, "self_ns") for n in SAMPLERS)
    ) / 1e9
    out["ring.ntt.calls"] = med(lambda r: sum(field(r, n, "calls") for n in NTT))
    out["ring.ntt.butterflies"] = med(lambda r: sum(field(r, n, "work") for n in NTT))
    ntt_ns = med(lambda r: sum(field(r, n, "self_ns") for n in NTT))
    out["ring.ntt.ns_per_butterfly"] = ntt_ns / max(out["ring.ntt.butterflies"], 1)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(
            lambda r: sum(
                row["self_ns"] for n, row in r.items()
                if n.startswith(layer + ".")
            )
        ) / 1e9
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    out["trace.batch_s"] = statistics.median(r["batch_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.batch_s"] - statistics.median(
        r["batch_s"] for r in plain
    )
    for key in ("levels_used", "noise_bits", "noise_measure_bits", "ledger_margin_bits"):
        out[f"scheme.{key}"] = statistics.median(r[key] for r in results)
    for stage in SETUP_STAGES:
        out[f"setup.{stage}_s"] = statistics.median(setup_split[stage])
    return out


def layer_report(tracer, tags, metrics, counts):
    lines = [f"traced batches: {len(tags)}; spans kept: {len(tracer.spans)}"]
    rows = tracer.summary(tags[:1])
    total = sum(r["self_ns"] for r in rows.values()) or 1
    lines.append("self time by function, first traced batch (share of traced time):")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"])[:15]:
        lines.append(
            f"  {name:<34} {row['self_ns'] / 1e9:9.4f} s  "
            f"{100.0 * row['self_ns'] / total:5.1f}%  calls {row['calls']}"
        )
    lines.append("per-layer metrics (per batch):")
    for key in PER_LAYER:
        lines.append(f"  {key:<40} {metrics[key]:.6g} {PER_LAYER[key]}")
    lines.append("op counts per batch: " + json.dumps(counts, sort_keys=True))
    return lines


def run_all(seed, seconds, trace):
    """Every default workload in turn, each in its own process so that
    peak memory and cold set-up are its own."""
    combined, status = {}, 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        print()
        if proc.returncode != 0 or not lines:
            status = 1
            combined[name] = None
            continue
        combined[name] = json.loads(lines[-1])
        for key, val in combined[name]["metrics"].items():
            print(f"{name:<14} {key:<34} {val['value']:.6g} {val['unit']}")
        print()
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # the program under test failed outside a batch
        # (including the secure-128 security assertion)
        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
