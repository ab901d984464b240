"""Named random streams: the seeding rule they are pinned to."""
from __future__ import annotations

import hashlib

import numpy as np

from qrseq import rng as rng_streams


def int_seeded_stream(seed, *labels):
    """The stream as seeded from the whole sha256 digest read as one int."""
    h = hashlib.sha256(str(int(seed)).encode())
    for label in labels:
        h.update(b"/" + str(label).encode())
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(h.digest(), "big")))


def test_streams_equal_the_ones_seeded_from_the_digest_as_an_int():
    for seed in (0, 3, 2**40):
        for split in ("validation", "test"):
            for user in range(1, 300):
                got = rng_streams.stream(seed, "eval-candidates", split, user)
                want = int_seeded_stream(seed, "eval-candidates", split, user)
                assert got.bit_generator.state == want.bit_generator.state


def test_entropy_words_seed_as_numpy_seeds_the_int_even_with_leading_zero_words():
    tail = hashlib.sha256(b"x").digest()
    digests = [bytes(32), bytes(31) + b"\x01", bytes(4) + tail[4:], bytes(28) + tail[28:],
               tail[:28] + bytes(4), tail[:4] + bytes(24) + tail[28:], tail]
    for digest in digests:
        words = rng_streams.entropy_words(digest)
        assert words.dtype == np.uint32 and len(words) >= 1
        want = np.random.SeedSequence(int.from_bytes(digest, "big")).generate_state(8)
        assert np.random.SeedSequence(words).generate_state(8).tolist() == want.tolist()
    assert rng_streams.entropy_words(bytes(32)).tolist() == [0]
    assert len(rng_streams.entropy_words(bytes(28) + tail[28:])) == 1
