from __future__ import annotations

import pytest

from sermtl.seeding import derive_seed


@pytest.mark.parametrize("args, seed", [
    ((0,), 8493733112532773764),
    ((7, "fold", 3), 17982470759967347572),
    ((2**40, "utt", "c01", "s2", 5), 12361090269550899262),
    ((9, "init"), 2370330337065070239),
    ((-3, "elm"), 12867272662812897339),
    ((123456789, "validation", 0), 16410790389430358750),
])
def test_derive_seed_is_pinned(args, seed):
    """Sub-seeds are fixed values: every seeded artifact depends on them."""
    assert derive_seed(*args) == seed
