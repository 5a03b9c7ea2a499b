"""Property tests of the degree filter and the truncated Todd series.

Truncation at a working degree is a ring quotient, so products may be
filtered after every step; the Chow model's Todd classes of negative classes
rely on its inverse Todd series being the inverse of the Todd series below
the working degree.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adamsrr import chow as C
from adamsrr import expr as E
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
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.integers(0, 5))
def test_series_inverse_below_the_working_degree(exponents, top):
    # a line monomial over up to three lines, and its negation as a tangent class
    table = E.SymbolTable(space="X")
    for v in VARIABLES:
        table.declare_line(v.upper())
    assign = {v.upper(): v for v in VARIABLES}
    line = E.Tensor(tuple(E.Power(E.Line(v.upper()), e) for v, e in zip(VARIABLES, exponents)))
    td = C.todd(line, table, assign, top)
    inverse = C.todd(E.Neg(line), table, assign, top)
    assert td.degrees(high=top + 1) == td
    assert inverse.degrees(high=top + 1) == inverse
    assert (td * inverse).degrees(high=top + 1) == 1


def test_series_inverse_of_one_plus_w():
    # x/(1 - e^(-x)) = sum B_k^+ x^k/k!, and (1 - e^(-x))/x = sum (-1)^k x^k/(k+1)!
    # each series is int numerators over one denominator, the lcm of its coefficients
    nums, den = C._todd_coefficients(8)
    assert den == 1209600 and all(isinstance(c, int) for c in nums)
    assert [Fraction(c, den) for c in nums] == [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720),
                                                0, Fraction(1, 30240), 0, Fraction(-1, 1209600)]
    nums, den = C._inverse_todd_coefficients(3)
    assert [Fraction(c, den) for c in nums] == [1, Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 24)]
    table = E.SymbolTable(space="X")
    table.declare_line("W")
    w = SplitClass({(("w", 1),): 1})
    inverse = C.todd(E.Neg(E.Line("W")), table, {"W": "w"}, 3)
    assert inverse == 1 - w * Fraction(1, 2) + w * w * Fraction(1, 6) - w * w * w * Fraction(1, 24)
    assert C.todd(E.Sum((E.Line("W"), E.Neg(E.Line("W")))), table, {"W": "w"}, 2) == 1


@settings(deadline=None)
@given(classes, classes, st.sampled_from([*range(-3, 4), Fraction(1, 2)]))
def test_sums_and_scalings_hold_no_zero_coefficient(a, b, k):
    # built without the constructor's filtering pass, so each must be zero-free already
    assert (a + (-a)).is_zero()
    for x in (a + b, a + (-a), (a + b) + (-b), a - b, a * k, k * a, -a):
        assert all(x.terms.values())
        assert x == SplitClass(dict(x.terms))


@settings(deadline=None)
@given(classes, st.integers(0, 6))
def test_a_power_is_the_repeated_product(a, k):
    product = SplitClass.constant(1)
    for _ in range(k):
        product = product * a
    power = a ** k
    assert power == product
    assert all(power.terms.values())
    assert k == 0 or len(power.terms) <= min(a.power_bounds(k))


def test_a_power_squares_where_its_box_forces_products_to_collide(monkeypatch):
    def cls(*monos):
        return SplitClass({tuple((v, e) for v, e in zip("ab", m) if e): 1 for m in monos})

    lines = SplitClass({(("a", 1),): 1, (("b", 1),): 1, (("c", 1),): 1})
    with_dual = cls((1, 0), (-1, 0), (0, 0))           # box of side 2k + 1
    quartic = cls(*((4 - i, i) for i in range(5)))      # one total degree: the box drops a side
    assert lines.power_bounds(400) == (80601, 401 ** 2)
    assert with_dual.power_bounds(40) == (861, 81)
    assert quartic.power_bounds(100) == (5151, 401)     # vectors counted only past the box
    assert cls((7, 0)).power_bounds(10 ** 40) == (1, 1)
    assert cls((100, 0), (-100, 0), (0, 0)).power_bounds(500) == (125751, 1001)  # steps of 100
    assert SplitClass().power_bounds(3) == (0, 1)

    cases = ((with_dual, 40), (quartic, 30), (lines, 12))
    products = []
    for x, k in cases:
        products.append(SplitClass.constant(1))
        for _ in range(k):
            products[-1] = products[-1] * x
    mul, calls = SplitClass.__mul__, []
    monkeypatch.setattr(SplitClass, "__mul__", lambda s, o: calls.append(1) or mul(s, o))
    for (x, k), product, squares in zip(cases, products, (True, True, False)):
        calls.clear()
        assert x ** k == product
        assert bool(calls) is squares
