"""Truncated intersection ring: ch/td series, pushforward, curve identities."""

import random
from fractions import Fraction

import pytest

from adamsrr import chow as C
from adamsrr import expr as E
from adamsrr.chow import (
    CurveModel, chern_character, deligne_residual, mumford_exponent, pushforward, todd,
)
from adamsrr.splitting import SplitClass


@pytest.fixture
def model():
    return CurveModel.standard()


def two_line_table():
    t = E.SymbolTable(space="X")
    t.declare_line("L")
    t.declare_line("M")
    return t, {"L": "l", "M": "m"}


def sym(name):
    return SplitClass.variable(name)


def coefficient(cls, m):
    return cls.terms.get(m, 0)


def test_ch_of_structure_sheaf(model):
    assert chern_character(E.UNIT, model.table, model.assign, 2) == 1


def test_ch_of_line_degree_two(model):
    l = sym("l")
    want = 1 + l + l * l * Fraction(1, 2)
    assert chern_character(E.Line("L"), model.table, model.assign, 2) == want


def test_ch_multiplicative_on_tensor():
    table, assign = two_line_table()
    got = chern_character(E.Tensor((E.Line("L"), E.Line("M"))), table, assign, 2)
    # oracle: product of the two exponential series, truncated at degree 2
    chl = chern_character(E.Line("L"), table, assign, 2)
    chm = chern_character(E.Line("M"), table, assign, 2)
    assert got == (chl * chm).degrees(high=3)
    l, m = sym("l"), sym("m")
    s = l + m
    assert got == 1 + s + s * s * Fraction(1, 2)


def test_todd_of_trivial_line(model):
    assert todd(E.UNIT, model.table, model.assign, 3) == 1


def test_todd_of_relative_tangent(model):
    w = sym("w")
    want = 1 - w * Fraction(1, 2) + w * w * Fraction(1, 12)
    assert todd(model.tangent, model.table, model.assign, 2) == want


def test_todd_multiplicative_on_sum_of_lines():
    table, assign = two_line_table()
    got = todd(E.Sum((E.Line("L"), E.Line("M"))), table, assign, 3)
    want = todd(E.Line("L"), table, assign, 3) * todd(E.Line("M"), table, assign, 3)
    assert got == want.degrees(high=4)


def test_todd_of_negated_class_inverts_series():
    table, assign = two_line_table()
    got = todd(E.Neg(E.Line("L")), table, assign, 4)
    assert got == C._inverse(todd(E.Line("L"), table, assign, 4), 4)
    assert (got * todd(E.Line("L"), table, assign, 4)).degrees(high=5) == 1


def test_pushforward_degree_rule():
    x = sym("w") ** 2 * Fraction(1, 12)
    pushed = pushforward(x, 1)
    assert coefficient(pushed, (("w", 2),)) == Fraction(1, 12)
    assert coefficient(pushed.degrees(2, 3), (("w", 2),)) == Fraction(1, 12)


def test_pushforward_annihilates_low_degree():
    assert pushforward(SplitClass.constant(1), 1).is_zero()


def test_pushforward_linearity_random():
    rng = random.Random(14)
    for _ in range(100):
        terms_a = {(("l", rng.randint(0, 2)), ("w", rng.randint(0, 2))): Fraction(rng.randint(-5, 5))}
        terms_b = {(("l", rng.randint(0, 2)),): Fraction(rng.randint(-5, 5))}
        a = SplitClass({tuple(kv for kv in m if kv[1]): c for m, c in terms_a.items()})
        b = SplitClass({tuple(kv for kv in m if kv[1]): c for m, c in terms_b.items()})
        assert pushforward(a + b, 1) == pushforward(a, 1) + pushforward(b, 1)


def test_c1_det_rf_of_structure_sheaf(model):
    got = model.c1_det_rf(E.UNIT)
    assert coefficient(got, (("w", 2),)) == Fraction(1, 12)
    assert len(got.terms) == 1


def test_c1_det_rf_of_line(model):
    got = model.c1_det_rf(E.Line("L"))
    assert coefficient(got, (("l", 2),)) == Fraction(1, 2)
    assert coefficient(got, (("l", 1), ("w", 1))) == Fraction(-1, 2)
    assert coefficient(got, (("w", 2),)) == Fraction(1, 12)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_c1_det_rf_of_canonical_powers(model, k):
    got = model.c1_det_rf(E.Power(E.Line("omega"), k))
    want = Fraction(k * k, 2) - Fraction(k, 2) + Fraction(1, 12)
    assert coefficient(got, (("w", 2),)) == want
    assert len(got.terms) <= 1


def test_deligne_identity_residual_zero():
    v = deligne_residual()
    assert v.ok
    assert v.residual.is_zero()
    assert coefficient(v.lhs, (("l", 2),)) == 9
    assert coefficient(v.lhs, (("l", 1), ("w", 1))) == -9
    assert coefficient(v.lhs, (("w", 2),)) == Fraction(3, 2)
    assert v.lhs == v.rhs


def test_deligne_identity_perturbations_break():
    for i in range(4):
        exps = [18, 18, 6, -6]
        exps[i] += 1
        assert not deligne_residual(tuple(exps)).ok
    assert not deligne_residual((17, 18, 6, -6)).ok


def test_mumford_exponent_values():
    want = [1, 1, 13, 37, 73, 121, 181, 253, 337, 433, 541]
    for k, expected in enumerate(want):
        got = mumford_exponent(k)
        assert got == expected
        assert got.denominator == 1
        assert got == 6 * k * k - 6 * k + 1


def test_ch_is_ring_homomorphism_on_random_line_expressions():
    table, assign = two_line_table()
    rng = random.Random(3333)
    pool = [E.Line("L"), E.Line("M"), E.Dual(E.Line("L")), E.UNIT,
            E.Tensor((E.Line("L"), E.Line("M")))]
    for _ in range(100):
        a, b = rng.choice(pool), rng.choice(pool)
        cha = chern_character(a, table, assign, 3)
        chb = chern_character(b, table, assign, 3)
        assert chern_character(E.Sum((a, b)), table, assign, 3) == cha + chb
        assert chern_character(E.Tensor((a, b)), table, assign, 3) == (cha * chb).degrees(high=4)


def test_chow_truncation_drops_high_degree():
    l = sym("l")
    assert C._mul(C._mul(l, l, 2), l, 2).is_zero()
    assert C._power(l, 2, 2) == l * l


def test_chow_inverse_of_unit_series():
    w = sym("w")
    series = 1 + w + w * w * Fraction(1, 2)
    assert C._mul(series, C._inverse(series, 3), 3) == 1
    with pytest.raises(C.ChowError):
        C._inverse(w, 3)
