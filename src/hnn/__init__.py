"""Approximate homomorphic encryption with an encrypted soft-argmax head.

Layers, bottom up:

* :mod:`hnn.ring` — exact RNS arithmetic in Z_q[X]/(X^N + 1) with
  negacyclic NTT multiplication and RLWE samplers.
* :mod:`hnn.encoding` — canonical-embedding encoder between real slot
  vectors and scaled plaintext polynomials.
* :mod:`hnn.scheme` — keys, encryption, leveled add/mult/rescale, and
  the per-ciphertext noise ledger with hard budget enforcement.
* :mod:`hnn.approx` — encrypted exp/reciprocal/softmax/soft-argmax.
* :mod:`hnn.neural` — plaintext probe training with noise injection,
  temperature calibration, metrics, and the encrypted forward pass.
* :mod:`hnn.serialize` / :mod:`hnn.cli` — stable file formats and the
  command-line surface. ``hnn.cli`` is not imported here, so that
  ``python -m hnn.cli`` runs it once; ``from hnn import cli`` loads it.

Importing hnn fixes glibc's mmap and trim thresholds, process-wide, at
7 and 24 MiB. Left dynamic, they rise to the largest block freed and
twice that, so a batch's ciphertexts and their bundle fill the brk heap
right up to the trim threshold, and one result kept from the batch
decides whether the heap shrinks. Fixed, a 512 x 64 batch's 8 MiB
bundle on the 8-prime chain is a mapping of its own, and the
(2, 12, N) blocks of a key switch at N = 32768 (6 MiB) still reuse
heap pages.
"""

import contextlib
import ctypes

from . import approx, encoding, errors, neural, ring, scheme, serialize

with contextlib.suppress(OSError, AttributeError, TypeError):  # no glibc
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 7 << 20)  # -3: M_MMAP_THRESHOLD
    _mallopt(-1, 24 << 20)  # -1: M_TRIM_THRESHOLD

__all__ = [
    "approx",
    "encoding",
    "errors",
    "neural",
    "ring",
    "scheme",
    "serialize",
]

__version__ = "0.1.0"
