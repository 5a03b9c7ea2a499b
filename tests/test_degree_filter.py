"""Property tests of the degree filter and the truncated series inverse.

Truncation at a working degree is a ring quotient, so products may be
filtered after every step; the Chow model's Todd classes of negative classes
rely on the series inverse being exact below the working degree.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adamsrr import chow as C
from adamsrr.splitting import SplitClass

VARIABLES = ("a", "b", "c")

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
monomials = st.tuples(*(st.integers(0, 3) for _ in VARIABLES)).map(
    lambda exps: tuple((v, e) for v, e in zip(VARIABLES, exps) if e))
classes = st.dictionaries(monomials, coefficients, max_size=6).map(SplitClass)


@settings(deadline=None)
@given(classes, classes, st.integers(0, 6))
def test_degree_filter_is_a_ring_quotient(a, b, cutoff):
    def trunc(x):
        return x.degrees(high=cutoff)

    assert trunc(a * b) == trunc(trunc(a) * trunc(b))
    assert trunc(a + b) == trunc(a) + trunc(b)
    assert trunc(trunc(a)) == trunc(a)


@settings(deadline=None)
@given(classes, st.integers(0, 6), st.integers(0, 6))
def test_degree_filter_splits_a_class(a, low, high):
    parts = a.degrees(high=low) + a.degrees(low, high) + a.degrees(low=max(low, high))
    assert parts == a


@settings(deadline=None)
@given(classes, coefficients.filter(bool), st.integers(0, 5))
def test_series_inverse_below_the_working_degree(x, unit, top):
    series = x.degrees(low=1) + unit  # nonzero constant term: a unit series
    inverse = C._inverse(series, top)
    assert inverse.degrees(high=top + 1) == inverse
    assert (series * inverse).degrees(high=top + 1) == 1


def test_series_inverse_of_one_plus_w():
    w = SplitClass.variable("w")
    inverse = C._inverse(1 + w, 3)
    assert inverse == 1 - w + w * w - w * w * w
    assert C._inverse(SplitClass.constant(Fraction(2, 3)), 2) == Fraction(3, 2)
