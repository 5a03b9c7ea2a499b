"""Graded lines: tensor/swap laws, det atoms, Deligne pairing, triviality."""

import gc
import random
import weakref

import pytest

from adamsrr import expr as E
from adamsrr import picard as P
from adamsrr import suite as SU
from adamsrr.picard import (
    GradedLine, PairingExpr, PicardError, RankMismatch, det_rf_atom, make_morphism, normalize,
    pairing_to_det,
)
from adamsrr import splitting as S
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
    assert (GradedLine() * GradedLine()).is_trivial()


def test_inverse_cancellation(curve):
    a = det_rf_atom(curve, E.Line("A"))
    assert (a * a ** -1).is_trivial()
    assert (a * a ** -1).grade.is_zero()


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
        assert (a * a ** -1).is_trivial()


# -- det atoms -----------------------------------------------------------------

def test_det_atom_of_unit_has_chi_grade(curve):
    g = det_rf_atom(curve, E.UNIT)
    assert not g.is_trivial()
    assert g.grade == SplitClass({(("chi[f](1)", 1),): 1})
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
    gb = pairing_to_det(PairingExpr(curve, (A, L))) ** -1
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
        g = GradedLine()
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


# -- memoized expansion and grades ---------------------------------------------------

def _expand_top_reference(e):
    """The multilinear expansion recomputed at every call, as it was before its memo."""
    e = E.canonicalize(e)
    if isinstance(e, E.Sum):
        return [cm for t in e.terms for cm in _expand_top_reference(t)]
    if isinstance(e, E.Neg):
        return [(-c, m) for c, m in _expand_top_reference(e.arg)]
    if isinstance(e, E.IntConst):
        return [(e.value, E.UNIT)] if e.value else []
    if isinstance(e, E.Unit):
        return [(1, E.UNIT)]
    if isinstance(e, E.Tensor):
        acc = [(1, [])]
        for f in e.factors:
            acc = [(c0 * c1, facs + (list(m.factors) if isinstance(m, E.Tensor) else
                                     [] if isinstance(m, E.Unit) else [m]))
                   for c0, facs in acc for c1, m in _expand_top_reference(f)]
        out = []
        for c, facs in acc:
            if c == 0:
                continue
            facs = sorted((x for x in facs if not isinstance(x, E.Unit)), key=E.print_expr)
            if not facs:
                out.append((c, E.UNIT))
            elif len(facs) == 1:
                out.append((c, facs[0]))
            else:
                out.append((c, E.Tensor(tuple(facs))))
        return out
    return [(1, e)]


def _chi_grade_reference(f, lam):
    """The chi grade built afresh at every call, symbols included."""
    pk, top = lam.space, (f.rel_dim + 1) << lam.space.shift
    return SplitClass({((f"chi[{f.name}]({pk.text(m)})", 1),): c
                       for m, c in lam.terms.items() if m < top})


def _det_and_pairing_texts(n, exprs, entries):
    """The normal forms, each with its grade, as `normalize` prints them."""
    t = SU.law_table()
    f = make_morphism("f", n, t)
    lines = []
    for e in exprs:
        try:
            lines.append(normalize(det_rf_atom(f, e)))
        except E.ExprError as ex:
            lines.append(f"{type(ex).__name__}: {ex}")
    lines += [pairing_to_det(PairingExpr(f, es)) for es in entries]
    return [line if isinstance(line, str) else f"{line.render()} | grade= {line.grade}"
            for line in lines]


@pytest.mark.parametrize("n", [1, 2])
def test_memoized_normal_forms_equal_memo_free_ones(monkeypatch, n):
    rng = random.Random(2024 + n)
    exprs = [SU.random_expr(rng) for _ in range(150)]
    exprs += [E.Tensor((a, b)) for a, b in zip(exprs[::2], exprs[1::2])]
    entries = [tuple(SU.random_line_entry(rng) for _ in range(n + 1)) for _ in range(80)]
    with monkeypatch.context() as patched:
        patched.setattr(E, "expand_top", _expand_top_reference)
        patched.setattr(P, "chi_grade", _chi_grade_reference)
        want = _det_and_pairing_texts(n, exprs, entries)
    assert sum(not text.startswith(("EvalError", "NonEffective")) for text in want) > 200
    cold = _det_and_pairing_texts(n, exprs, entries)
    assert cold == want
    # again, over the nodes' memos filled above and a fresh context
    assert _det_and_pairing_texts(n, exprs, entries) == want
    for e in exprs:
        assert list(E.expand_top(e)) == _expand_top_reference(e)


@pytest.mark.parametrize("build", [lambda q, r: q, lambda q, r: E.Tensor((q, r))],
                         ids=["atom", "canonical-tensor"])
def test_a_dropped_normalized_argument_dies_without_the_collector(build):
    # each is its own one monomial, so it marks its expansion instead of holding itself,
    # and one sweep frees it by reference counting alone
    gc.disable()
    try:
        table = E.SymbolTable(space="X")
        table.declare_line("Q")
        table.declare_line("R")
        f = make_morphism("f", 1, table)
        e = build(E.Line("Q"), E.Line("R"))
        line = normalize(normalize(det_rf_atom(f, e)))
        assert line.dets[((), f)][1] == ((e, 1),)
        assert E.expand_top(e) == ((1, e),) and e._expansion is E._ATOMIC
        ref = weakref.ref(e)
        del e, line, f
        E._sweep()
        assert ref() is None
    finally:
        gc.enable()


def test_a_grade_is_read_off_the_slot_classes_and_wrappers_keep_it(curve):
    # psi^k, g^* and F_S^* keep ranks: a wrapped line has its argument's grade
    a = det_rf_atom(curve, E.canonicalize(E.Sum((E.Line("A"), E.Bundle("H")))))
    b = det_rf_atom(curve, E.Bundle("H0")) ** -2
    assert str(a.grade) == "4*chi[f](1) + chi[f](A) + chi[f](gamma^1(H))"
    assert P.psi_line(3, a).grade == a.grade
    assert P.pull_line("g", a).grade == a.grade
    assert det_rf_atom(curve, E.Line("A"), (("detpull", "F_S"),)).grade == \
        det_rf_atom(curve, E.Line("A")).grade
    for k in (-2, 0, 3):
        assert (a ** k).grade == a.grade * k
    assert (a * b).grade == a.grade + b.grade
    assert (P.psi_line(2, a) * b).grade == a.grade + b.grade
    # the grade is a function of the slot classes, so equal lines have equal grades
    assert a == det_rf_atom(curve, E.Sum((E.Bundle("H"), E.Line("A"))))
    assert a != P.psi_line(3, a)  # another slot


# -- powers --------------------------------------------------------------------

def _power_reference(gl, k):
    """gl^k built as the inverse's slots scaled by |k| for k < 0, and rebuilt for k = 1."""
    if k == 0:
        return GradedLine()
    base = gl if k > 0 else gl ** -1
    dets = {slot: (lam * abs(k), tuple((e, x * abs(k)) for e, x in disp))
            for slot, (lam, disp) in base.dets.items()}
    return GradedLine(dets)


def test_a_line_to_the_power_one_is_itself(curve):
    atom = det_rf_atom(curve, E.canonicalize(E.Sum((E.Line("A"), E.Bundle("H")))))
    for gl in (atom, P.psi_line(3, atom), P.pull_line("g", atom), atom * P.psi_line(2, atom)):
        assert gl ** 1 is gl
        for k in (-3, -1, 0, 2, 3):
            got, want = gl ** k, _power_reference(gl, k)
            assert got.dets == want.dets and got.grade == want.grade == gl.grade * k, k
            assert got.render() == want.render()
            assert all(morphism is curve for _, morphism in got.dets), k  # held in the slot
            assert all(all(lam.terms.values()) for lam, _ in got.dets.values())
