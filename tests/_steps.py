"""Adapters between per-prefix step functions and the search's StepFn protocol."""

import numpy as np


def batched(step):
    """Adapt a per-prefix step to step_fn(rows, tokens): call it once per row and stack.

    Row order keeps the draw order of step functions that sample a row the
    first time they see a prefix, so the same seed gives the same rows as a
    per-prefix search would.
    """
    return lambda rows, tokens: np.stack([step(p) for p in tokens.tolist()])


def by_prefix(step_fn):
    """Adapt step_fn(rows, tokens) to take a list of equal-length prefixes.

    Each prefix's parent row is found among the previous call's prefixes,
    so every prefix must extend one of them by one token; the first call's
    prefixes are empty.
    """
    previous: dict[tuple, int] = {}

    def step(prefixes):
        nonlocal previous
        rows = [previous[tuple(p[:-1])] for p in prefixes] if previous else [0] * len(prefixes)
        previous = {tuple(p): i for i, p in enumerate(prefixes)}
        return step_fn(rows, np.array(prefixes, dtype=np.int64))

    return step
