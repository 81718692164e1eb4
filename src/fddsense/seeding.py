"""Deterministic seed derivation.

All randomness in the library flows from numpy Generators seeded through
derive_seed, so any component's output depends only on its master seed and
its position in the pipeline, never on execution order.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts: int | str) -> int:
    """Hash a master seed plus context labels into a fresh 64-bit seed.

    Stable across processes, platforms, and Python versions (blake2b of
    the decimal/text rendering of each part).
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")
