"""Stable, salt-free seeding helpers.

Python's built-in ``hash`` is randomized per process, so all deterministic
per-pair randomness in the crowd simulator is derived through BLAKE2 instead.
A given ``(seed, *parts)`` tuple always produces the same stream, across
processes and platforms — this is what makes the simulated "answer file"
replayable exactly like the paper's recorded AMT answers.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Tuple, Union

Part = Union[int, str]


def _digest(parts: Tuple[Part, ...]):
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    return digest


def stable_seed(*parts: Part) -> int:
    """Derive a 64-bit seed from arbitrary ints/strings, deterministically."""
    return int.from_bytes(_digest(parts).digest(), "big")


@functools.lru_cache(maxsize=256)
def _prefix_digest(prefix: Tuple[Part, ...]):
    """The BLAKE2 state after feeding ``prefix``; callers ``copy()`` it."""
    return _digest(prefix)


def pair_seed(prefix: Tuple[Part, ...], record_a: int, record_b: int) -> int:
    """``stable_seed(*prefix, record_a, record_b)``, from a cached digest
    of the constant ``prefix``: the simulated crowd derives one or two
    seeds per pair, and re-hashing the prefix was half their cost."""
    digest = _prefix_digest(prefix).copy()
    digest.update(f"{record_a}\x1f{record_b}\x1f".encode("utf-8"))
    return int.from_bytes(digest.digest(), "big")


def stable_rng(*parts: Part) -> random.Random:
    """A ``random.Random`` seeded stably from the given parts."""
    return random.Random(stable_seed(*parts))
