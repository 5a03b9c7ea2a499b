"""Truncated intersection ring: ch/td series, c1 of det Rf_*, curve identities."""

import math
import random
from fractions import Fraction

import pytest

from adamsrr import chow as C
from adamsrr import expr as E
from adamsrr import splitting as S
from adamsrr.chow import (
    CurveModel, c1_det_rf, chern_character, deligne_residual, mumford_exponent, todd,
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
    return SplitClass({((name, 1),): 1})


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
    # (1 - e^(-l))/l, the inverse of l/(1 - e^(-l))
    l = sym("l")
    assert got == sum((l ** k * Fraction((-1) ** k, math.factorial(k + 1)) for k in range(5)),
                      SplitClass.constant(0))
    assert (got * todd(E.Line("L"), table, assign, 4)).degrees(high=5) == 1


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
    pk = C._ring({"L": "l"}, 2)
    x = {pk._e("l", 1): 1}
    assert S._packed_mul(S._packed_mul(x, x, pk.limit), x, pk.limit) == {}
    assert pk.unpack(S._packed_mul(x, x, pk.limit), None) == l * l
    # Horner's rule keeps the terms up to the working degree and no others
    assert pk.unpack(C._series([1, 1, 1, 1], (("L", 1),), {"L": "l"}, pk), None) == 1 + l + l * l


def test_chow_inverse_of_unit_series():
    table, assign = two_line_table()
    for top in range(5):
        # exp(w) * exp(-w) and td(L) * td(-L) are 1 in the truncated ring
        ch = chern_character(E.Line("L"), table, assign, top)
        ch_dual = chern_character(E.Dual(E.Line("L")), table, assign, top)
        assert (ch * ch_dual).degrees(high=top + 1) == 1
        td = todd(E.Line("L"), table, assign, top)
        td_inverse = todd(E.Neg(E.Line("L")), table, assign, top)
        assert (td * td_inverse).degrees(high=top + 1) == 1
    with pytest.raises(C.ChowError):
        chern_character(E.Line("M"), table, {"L": "l"}, 3)


# ---------------------------------------------------------------------------
# Differential oracle: the packed kernel against full products filtered by degree

def slow_mul(a, b, top):
    return (a * b).degrees(high=top + 1)


def slow_inverse(x, top):
    """Newton's iteration inv <- inv * (2 - x * inv); the precision doubles."""
    inv = SplitClass.constant(Fraction(1) / x.terms[()])
    for _ in range(top.bit_length() + 1):
        inv = slow_mul(inv, 2 - slow_mul(x, inv, top), top)
    return inv


def slow_series(coefficient, x, top):
    total, power = SplitClass.constant(0), SplitClass.constant(1)
    for k in range(top + 1):
        total = total + power * coefficient(k)
        power = slow_mul(power, x, top)
    return total


def slow_c1(m, assign):
    return sum((sym(assign[v]) * e for v, e in m), SplitClass.constant(0))


def slow_chern_character(e, table, assign, top):
    cls = S.eval_expr(e, S.SplitContext(table))
    return sum((slow_series(lambda k: Fraction(1, math.factorial(k)), slow_c1(m, assign), top) * c
                for m, c in cls.terms.items()), SplitClass.constant(0))


def slow_todd(tangent, table, assign, top):
    """The product of each line's series inverse of (1 - e^(-x))/x, to its multiplicity."""
    total = SplitClass.constant(1)
    for m, c in S.eval_expr(tangent, S.SplitContext(table)).terms.items():
        denominator = slow_series(lambda k: Fraction((-1) ** k, math.factorial(k + 1)),
                                  slow_c1(m, assign), top)
        piece = slow_inverse(denominator, top) if c > 0 else denominator
        for _ in range(abs(c)):
            total = slow_mul(total, piece, top)
    return total


def slow_c1_det_rf(e, table, assign, tangent, rel_dim):
    top = rel_dim + 1
    total = slow_mul(slow_chern_character(e, table, assign, top),
                     slow_todd(tangent, table, assign, top), top)
    return total.degrees(rel_dim + 1, rel_dim + 2)


def random_line_expr(rng, lines, depth=3):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([E.Line(rng.choice(lines)), E.Dual(E.Line(rng.choice(lines))), E.UNIT])
    sub = [random_line_expr(rng, lines, depth - 1) for _ in range(2)]
    return rng.choice([E.Sum(tuple(sub)), E.Tensor(tuple(sub)), E.Neg(sub[0]),
                       E.Power(sub[0], rng.randint(-2, 3)) if isinstance(sub[0], E.Line)
                       else E.Sum((sub[0], sub[0]))])


def random_tangent(rng, lines):
    """A sum of lines and duals, each with a multiplicity of -3..-1 or 1..3, or its negation."""
    pieces = []
    for name in rng.sample(lines, rng.randint(1, len(lines))):
        piece, k = rng.choice([E.Line(name), E.Dual(E.Line(name))]), rng.choice([-3, -2, -1, 1, 2, 3])
        pieces += [E.Neg(piece) if k < 0 else piece] * abs(k)
    tangent = E.Sum(tuple(pieces)) if len(pieces) > 1 else pieces[0]
    return E.Neg(tangent) if rng.random() < 0.3 else tangent


@pytest.mark.parametrize("seed", range(24))
def test_packed_chow_agrees_with_full_products(seed):
    rng = random.Random(seed)
    top = 1 + seed % 6  # every top 1..6
    lines = [f"L{i}" for i in range(rng.randint(2, 5))]
    table = E.SymbolTable(space="X")
    for name in lines:
        table.declare_line(name)
    assign = {name: f"l{i}" for i, name in enumerate(lines)}
    for _ in range(3):
        e, tangent = random_line_expr(rng, lines), random_tangent(rng, lines)
        assert chern_character(e, table, assign, top) == slow_chern_character(e, table, assign, top)
        assert todd(tangent, table, assign, top) == slow_todd(tangent, table, assign, top)
        if top >= 2:
            assert c1_det_rf(e, table, assign, tangent, top - 1) == \
                slow_c1_det_rf(e, table, assign, tangent, top - 1)


def test_a_negative_multiplicity_reaches_the_oracle():
    table, assign = two_line_table()
    tangent = E.Neg(E.Sum((E.Line("L"), E.Line("L"), E.Dual(E.Line("M")))))
    assert S.eval_expr(tangent, S.SplitContext(table)).terms == {(("L", 1),): -2, (("M", -1),): -1}
    assert todd(tangent, table, assign, 4) == slow_todd(tangent, table, assign, 4)


def test_the_curve_model_builds_its_todd_class_once(monkeypatch):
    calls = []
    build = C._todd

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(C, "_todd", counted)
    assert deligne_residual().ok
    assert calls == [E.Dual(E.Line("omega"))]
    calls.clear()
    assert mumford_exponent(10) == 541
    assert len(calls) == 1
