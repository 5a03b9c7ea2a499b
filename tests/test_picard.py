"""Graded lines: tensor/swap laws, det atoms, Deligne pairing, triviality."""

import random

import pytest

from adamsrr import expr as E
from adamsrr import picard as P
from adamsrr import suite as SU
from adamsrr.picard import (
    GradedLine, PairingExpr, PicardError, RankMismatch, det_rf_atom, make_morphism, normalize,
    pairing_to_det,
)
from adamsrr.splitting import SplitClass


@pytest.fixture
def curve():
    t = SU.law_table()
    for name in ("L0", "L1", "L"):
        t.declare_line(name)
    t.declare_bundle("H0", 2)
    t.declare_bundle("H1", 2)
    t.declare_bundle("H", 3)
    return make_morphism("f", 1, t)


def lines(*names):
    return tuple(E.Line(n) for n in names)


# -- tensor and grades ---------------------------------------------------------

def test_tensor_of_trivials_is_trivial():
    assert (GradedLine.trivial() * GradedLine.trivial()).is_trivial()


def test_inverse_cancellation(curve):
    a = det_rf_atom(curve, E.Line("A"))
    assert (a * a.inverse()).is_trivial()
    assert (a * a.inverse()).grade.is_zero()


def test_grades_add_under_tensor(curve):
    a = det_rf_atom(curve, E.Line("A")) ** 2
    b = det_rf_atom(curve, E.Bundle("H")) ** -3
    assert (a * b).grade == a.grade + b.grade
    # a negative coefficient prints like any class's: " - 3*...", not " + -3*..."
    # H has rank 3: its degree-1 part is e_1 of its roots, named gamma^1(H)
    assert str((a * b).grade) == "-7*chi[f](1) + 2*chi[f](A) - 3*chi[f](gamma^1(H))"


def test_group_laws_on_random_lines(curve):
    rng = random.Random(311)
    for _ in range(60):
        xs = [det_rf_atom(curve, SU.random_expr(rng, 2)) ** rng.randint(-2, 2)
              for _ in range(3)]
        a, b, c = xs
        assert ((a * b) * c) == (a * (b * c))
        assert (a * b) == (b * a)
        assert (a * a.inverse()).is_trivial()


# -- det atoms -----------------------------------------------------------------

def test_det_atom_of_unit_has_chi_grade(curve):
    g = det_rf_atom(curve, E.UNIT)
    assert not g.is_trivial()
    assert g.grade == SplitClass.variable("chi[f](1)")
    assert str(g.grade) == "chi[f](1)"


def test_det_additivity_under_normalize(curve):
    a, b = E.Line("A"), E.Line("B")
    joint = normalize(det_rf_atom(curve, E.Sum((a, b))))
    split = normalize(det_rf_atom(curve, a) * det_rf_atom(curve, b))
    assert joint == split


def test_det_atom_with_rank_zero_power_factor_is_trivial(curve):
    arg = E.Tensor((E.Power(E.Sum((E.Bundle("H0"), E.Neg(E.Bundle("H1")))), 3),
                    E.Bundle("H")))
    assert normalize(det_rf_atom(curve, arg)).is_trivial()


def test_det_atom_of_zero_class_is_trivial(curve):
    assert normalize(det_rf_atom(curve, E.ZERO)).is_trivial()


# -- pairing ---------------------------------------------------------------------

def test_pairing_reduces_to_det_of_difference_product(curve):
    L0, L1 = lines("L0", "L1")
    got = pairing_to_det(PairingExpr(curve, (L0, L1)))
    want = normalize(det_rf_atom(
        curve, E.Tensor((E.Sum((L0, E.Neg(E.UNIT))), E.Sum((L1, E.Neg(E.UNIT)))))))
    assert got == want


def test_pairing_with_structure_sheaf_is_trivial(curve):
    got = pairing_to_det(PairingExpr(curve, (E.UNIT, E.Line("L1"))))
    assert got.is_trivial()


def test_pairing_with_dual_entry_is_inverse(curve):
    A, L = lines("A", "L")
    ga = pairing_to_det(PairingExpr(curve, (E.Dual(A), L)))
    gb = pairing_to_det(PairingExpr(curve, (A, L))).inverse()
    assert ga == gb


def test_pairing_entry_count_enforced(curve):
    with pytest.raises(PicardError):
        PairingExpr(curve, lines("L0", "L1", "A"))


def test_pairing_entries_must_be_line_classes(curve):
    with pytest.raises(RankMismatch):
        pairing_to_det(PairingExpr(curve, (E.Bundle("H0"), E.Line("L"))))


def test_pairing_symmetry_random(curve):
    rng = random.Random(5150)
    for _ in range(120):
        a, b = SU.random_line_entry(rng), SU.random_line_entry(rng)
        assert pairing_to_det(PairingExpr(curve, (a, b))) == \
            pairing_to_det(PairingExpr(curve, (b, a)))


def test_pairing_multilinearity(curve):
    rng = random.Random(88)
    for _ in range(120):
        a, b, l = (SU.random_line_entry(rng) for _ in range(3))
        joint = pairing_to_det(PairingExpr(curve, (E.Tensor((a, b)), l)))
        split = (pairing_to_det(PairingExpr(curve, (a, l)))
                 * pairing_to_det(PairingExpr(curve, (b, l))))
        assert joint == split


# -- triviality reduction (inside normalize) -----------------------------------------

def test_repeated_difference_across_factors_trivializes(curve):
    # (H0 - H1) appearing n+2 = 3 times in total across the tensor argument
    d = E.Sum((E.Bundle("H0"), E.Neg(E.Bundle("H1"))))
    arg = E.Tensor((d, d, d, E.Bundle("H")))
    assert normalize(det_rf_atom(curve, arg)).is_trivial()


def trs_argument(l):
    return E.Tensor((E.Power(E.Sum((E.Bundle("H0"), E.Neg(E.Bundle("H1")))), l),
                     E.Bundle("H")))


def test_reduce_triviality_fires_at_n_plus_2(curve):
    for l in (3, 4, 5):
        assert normalize(det_rf_atom(curve, trs_argument(l))).is_trivial()
        assert P.argument_is_trivial(curve, trs_argument(l))


def test_reduce_triviality_spares_below_boundary(curve):
    g = det_rf_atom(curve, trs_argument(2))
    assert not P.argument_is_trivial(curve, trs_argument(2))
    assert not normalize(g).is_trivial()
    assert normalize(g) == g


def test_reduce_triviality_requires_equal_ranks():
    t = E.SymbolTable(space="X")
    t.declare_bundle("H0", 2)
    t.declare_bundle("H1", 3)
    t.declare_bundle("H", 2)
    f = make_morphism("f", 1, t)
    assert not normalize(det_rf_atom(f, trs_argument(5))).is_trivial()


def test_reduce_triviality_idempotent(curve):
    rng = random.Random(2)
    for _ in range(50):
        g = det_rf_atom(curve, SU.random_expr(rng, 2)) ** rng.randint(-2, 2)
        once = normalize(g)
        assert once == g  # the invariants and the grade are kept
        assert normalize(once).render() == once.render()


# -- normalize ----------------------------------------------------------------------

def test_normalize_idempotent_random(curve):
    rng = random.Random(41)
    for _ in range(100):
        g = GradedLine.trivial()
        for _ in range(rng.randint(1, 3)):
            g = g * (det_rf_atom(curve, SU.random_expr(rng, 2)) ** rng.randint(-2, 2))
        once = normalize(g)
        twice = normalize(once)
        assert once == twice
        assert once.render() == twice.render()


def test_normalize_splits_sums(curve):
    g = normalize(det_rf_atom(curve, E.Sum((E.Line("A"), E.Line("B")))))
    text = g.render()
    assert "det_rf[f](A)" in text and "det_rf[f](B)" in text
