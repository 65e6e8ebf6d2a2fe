"""Rational vectors for the tests: the coefficients S and T, which no basis
vector or random state has, their mix S v + T w, and a check that every
coefficient of a vector is a nonzero Fraction."""

from fractions import Fraction as Q

from torvoa.linalg import vec_add, vec_scale

S, T = Q(1, 3), Q(-2, 5)


def mix(v, w):
    """S v + T w."""
    return vec_add(vec_scale(v, S), w, T)


def nonzero(vec):
    """``vec``, after checking that every coefficient is a nonzero Fraction."""
    for cf in vec.values():
        assert type(cf) is Q and cf, vec
    return vec
