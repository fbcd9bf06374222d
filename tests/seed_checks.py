"""Seed checks that only the tests use."""
from __future__ import annotations

from confseed.seed_core import Seed, weight_balance


def is_balanced(seed: Seed, name: str) -> bool:
    return all(all(c == 0 for c in slot) for slot in weight_balance(seed, name))


def assert_face_equations(seed: Seed) -> None:
    """Every unfrozen row must pair to zero against the weights."""
    for name in seed.unfrozen_names():
        if not is_balanced(seed, name):
            raise ValueError(f"face equation fails at {name}: {weight_balance(seed, name)}")
