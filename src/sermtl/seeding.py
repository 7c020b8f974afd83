"""Deterministic fan-out of one master seed to every random stage of a run."""
from __future__ import annotations

# hashlib's blake2b is this builtin; importing hashlib would also map OpenSSL's libcrypto
from _blake2 import blake2b


def derive_seed(master_seed: int, *labels) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and a label path.

    Uses blake2b over the canonical string forms, so the result is
    reproducible across processes and platforms (unlike Python's salted
    ``hash``). Labels pick the stage, e.g. ``derive_seed(s, "fold", 3)``.
    """
    h = blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode("utf-8"))
    for label in labels:
        h.update(b"\x1f")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
