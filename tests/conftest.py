"""Shared test references."""

import math

import numpy as np
import pytest

from lpalg.lpnorm import as_exponent


def _largest_group_norm(groups, values, r: float) -> float:
    """Largest l^r norm among the groups of entries that share a label, r in [1, inf]."""
    mags = np.abs(values)
    top = float(mags.max(initial=0.0))
    if top == 0.0 or math.isinf(r):
        return top
    # scaled by the largest modulus so that the r-th powers cannot overflow
    return top * float(np.bincount(groups, weights=(mags / top) ** r).max()) ** (1.0 / r)


def _monomial_norms(r, s, p) -> float:
    """||R|| ||S|| of listed factors, each a (rows, cols, values) triple, R
    with one entry per column and S one per row.

    The columns of R are disjoint, so by Hoelder ||R||_p is the largest l^q
    norm of a row of R; dually ||S||_p is the largest l^p norm of a column
    of S.  The value is rounded as computed, not outward: a reference for
    cross-checks, not a certificate.
    """
    pe = as_exponent(p)
    return _largest_group_norm(r[0], r[2], pe.q) * _largest_group_norm(s[1], s[2], pe.p)


@pytest.fixture
def monomial_norms():
    """The reference ||R|| ||S|| of listed monomial factors, (r, s, p) -> float."""
    return _monomial_norms
