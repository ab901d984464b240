"""Deterministic named random streams.

Every source of randomness in a run (parameter init, epoch shuffling,
negative sampling, dropout, evaluation candidates) pulls from its own
stream derived from the single run seed plus a label path, so changing
one consumer never perturbs the draws seen by another.
"""
from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, *labels) -> np.random.Generator:
    """Generator keyed by (seed, *labels); identical inputs give identical draws.

    Labels may be strings or integers (user ids, epoch numbers). The key is
    hashed with sha256 so streams are platform- and process-independent.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return np.random.default_rng(np.random.SeedSequence(entropy_words(h.digest())))


def entropy_words(digest: bytes) -> np.ndarray:
    """The 32-bit words numpy's SeedSequence makes of ``int.from_bytes(digest, "big")``.

    Least significant word first, with the most significant zero words
    dropped but at least one word kept, so the seeded state is the same as
    for that int. Handing SeedSequence the words skips its int coercion,
    which took two thirds of the call's time.
    """
    words = np.frombuffer(digest, dtype=">u4")[::-1].astype(np.uint32)
    n = len(words)
    while n > 1 and not words[n - 1]:
        n -= 1
    return words[:n]
