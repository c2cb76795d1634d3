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
"""

from . import approx, encoding, errors, neural, ring, scheme, serialize

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
