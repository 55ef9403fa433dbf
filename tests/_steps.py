"""Adapter from per-prefix synthetic step functions to the batched StepFn."""

import numpy as np


def batched(step):
    """Call step once per prefix, in list order, and stack the rows.

    List order keeps the draw order of step functions that sample a row
    the first time they see a prefix, so the same seed gives the same rows
    as a per-prefix search would.
    """
    return lambda prefixes: np.stack([step(p) for p in prefixes])
