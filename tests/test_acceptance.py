"""Acceptance gate: every stated criterion, at its stated time budget.

Each test prints one PASS line on success (pytest -s shows them); a failure
raises with the offending parameters.  Expected values are recomputed here
with independent oracles (direct convolution, enumeration, series products)
rather than trusted from the implementation under test.
"""

import random
import time
from fractions import Fraction
from math import comb

from adamsrr import chow as C
from adamsrr import expr as E
from adamsrr import picard as P
from adamsrr import rewrite as R
from adamsrr import splitting as S
from adamsrr import suite as SU


def _report(name, t0, budget, detail=""):
    elapsed = time.monotonic() - t0
    print(f"PASS {name} ({elapsed:.2f}s < {budget}s) {detail}")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _conv(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def test_criterion_1_binomial_kernel():
    t0 = time.monotonic()
    for n in range(6):
        for p in (2, 3, 5, 7):
            w = S.binomial_identity_check(n, p)
            assert w.ok, (n, p)
            assert w.quotient == S.SplitClass.constant((-1) ** (n + 1)), (n, p)
            assert w.remainder == S.SplitClass(), (n, p)
            # independent oracle: convolve (y - p^n) with itself n+2 times
            divisor = {0: 1}
            for _ in range(n + 2):
                divisor = _conv(divisor, {1: 1, 0: -(p**n)})
            sign = (-1) ** (n + 1)
            lhs = {dict(m).get("y", 0): c for m, c in w.lhs.terms.items()}
            assert lhs == {d: sign * c for d, c in divisor.items()}, (n, p)
    _report("criterion 1 (binomial kernel, 24 pairs)", t0, 1.0)


def test_criterion_2_theorem_replay():
    t0 = time.monotonic()
    count = 0
    for n in (1, 2, 3):
        for p in (2, 3):
            for e, symbols in ((E.Line("L"), {"L": 1}), (E.Bundle("E"), {"E": 2})):
                tr = R.verify_arr_identity(n, p, e, symbols)
                assert tr.verified, (n, p, symbols, tr.failure)
                assert len(tr.steps) == 9, (n, p)
                assert [s.label for s in tr.steps] == [f"({i})" for i in range(1, 10)]
                for s in tr.steps:
                    assert s.conditions and all(h for _, h in s.conditions), (n, p, s.label)
                count += 1
    assert count == 12
    _report("criterion 2 (nine-step replay, 12 traces)", t0, 5.0)


def test_criterion_3_tau_equals_theta():
    t0 = time.monotonic()
    for rank in (1, 2, 3, 4):
        t = E.SymbolTable(space="Z")
        t.declare_line("V") if rank == 1 else t.declare_bundle("V", rank)
        ctx = S.SplitContext(t)
        V = t.symbol("V")
        for p in (2, 3, 5):
            tau = S.eval_expr(E.Tau(p, V), ctx)
            assert tau == S.eval_expr(E.Theta(p, V), ctx), (rank, p)
            assert tau.augmentation() == p**rank, (rank, p)
    _report("criterion 3 (tau = theta^p, rank <= 4, p in {2,3,5})", t0, 2.0)


def test_criterion_4_mumford_exponent():
    t0 = time.monotonic()
    frozen = [1, 1, 13, 37, 73, 121, 181, 253, 337, 433, 541]
    for k, want in enumerate(frozen):
        got = C.mumford_exponent(k)
        assert got == want == 6 * k * k - 6 * k + 1, k
        assert got.denominator == 1, k
    _report("criterion 4 (pluricanonical exponents k = 0..10)", t0, 1.0)


def test_criterion_5_deligne_identity():
    t0 = time.monotonic()
    v = C.deligne_residual()
    assert v.ok and v.residual.is_zero()
    # both sides: 9 f_!(l^2) - 9 f_!(l w) + 3/2 f_!(w^2)
    assert v.lhs.terms[(("l", 2),)] == 9
    assert v.lhs.terms[(("l", 1), ("w", 1))] == -9
    assert v.lhs.terms[(("w", 2),)] == Fraction(3, 2)
    for i in range(4):
        exps = [18, 18, 6, -6]
        exps[i] += 1
        assert not C.deligne_residual(tuple(exps)).ok, f"perturbation {i}"
    _report("criterion 5 (18/6/-6 identity + 4 perturbations)", t0, 1.0)


def test_criterion_6_knudsen_mumford():
    t0 = time.monotonic()
    for n, p in ((1, 2), (2, 2), (1, 3)):
        km = R.knudsen_mumford_expansion(n, p)
        assert km.verified, (n, p)
        assert km.exponents == [comb(n + 2, i) * (p**n) ** i for i in range(n + 2)], (n, p)
        assert km.left_exponent == p ** (n * (n + 2) + 1), (n, p)
    _report("criterion 6 (lambda expansion, 3 cases)", t0, 2.0)


def test_criterion_7_triviality_boundary():
    t0 = time.monotonic()
    rng = random.Random(90125)

    def fired(n, r0, r1, l):
        t = E.SymbolTable(space="X")
        t.declare_bundle("H0", r0)
        t.declare_bundle("H1", r1)
        t.declare_bundle("H", rng.randint(1, 2))
        f = P.make_morphism("f", n, t)
        arg = E.Tensor((E.Power(E.Sum((E.Bundle("H0"), E.Neg(E.Bundle("H1")))), l),
                        E.Bundle("H")))
        return P.normalize(P.det_rf_atom(f, arg)).is_trivial()

    for _ in range(200):  # equal ranks: fires exactly at l >= n+2
        n, r0 = rng.randint(0, 3), rng.randint(1, 3)
        l = rng.randint(1, n + 4)
        assert fired(n, r0, r0, l) == (l >= n + 2), (n, r0, l)
    for _ in range(100):  # mismatched ranks: never fires
        n, r0 = rng.randint(0, 3), rng.randint(1, 3)
        l = rng.randint(1, n + 4)
        assert not fired(n, r0, r0 + rng.randint(1, 2), l), (n, r0, l)
    _report("criterion 7 (triviality boundary, 200+100 patterns)", t0, 2.0)


def test_criterion_8_base_change_square():
    t0 = time.monotonic()
    for n in (1, 2):
        for p in (2, 3):
            tr = R.verify_base_change(n, p)
            assert tr.verified, (n, p, tr.failure)
    ablated = R.rule_set(1, 2)
    del ablated["R7"]
    control = R.verify_base_change(1, 2, rules=ablated)
    assert control.status == "failed"
    assert "R7" in control.failure
    _report("criterion 8 (base-change square + R7 ablation)", t0, 2.0)


def test_criterion_9_algebra_laws():
    t0 = time.monotonic()
    rng = random.Random(777)
    t = SU.law_table()
    ctx = S.SplitContext(t)
    f = P.Morphism("f", 1, ctx)

    for _ in range(100):  # psi composition
        e = SU.random_expr(rng)
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        assert S.classes_equal(S.eval_expr(E.Psi(k, E.Psi(m, e)), ctx),
                               S.eval_expr(E.Psi(k * m, e), ctx))

    for _ in range(100):  # theta multiplicativity
        a, b = SU.random_effective(rng), SU.random_effective(rng)
        k = rng.randint(1, 3)
        assert S.classes_equal(
            S.eval_expr(E.Theta(k, E.Sum((a, b))), ctx),
            S.eval_expr(E.Theta(k, a), ctx) * S.eval_expr(E.Theta(k, b), ctx))

    for _ in range(100):  # rank/augmentation agreement
        e = SU.random_expr(rng)
        assert S.eval_expr(e, ctx).augmentation() == E.rank(e, t)

    for _ in range(100):  # det additivity
        a, b = SU.random_effective(rng), SU.random_effective(rng)
        assert S.classes_equal(
            S.eval_expr(E.DetClass(E.Sum((a, b))), ctx),
            S.eval_expr(E.DetClass(a), ctx) * S.eval_expr(E.DetClass(b), ctx))

    for _ in range(100):  # pairing symmetry
        a, b = SU.random_line_entry(rng), SU.random_line_entry(rng)
        assert P.pairing_to_det(P.PairingExpr(f, (a, b))) == \
            P.pairing_to_det(P.PairingExpr(f, (b, a)))

    for _ in range(100):  # pairing multilinearity
        a, b, l = (SU.random_line_entry(rng) for _ in range(3))
        assert P.pairing_to_det(P.PairingExpr(f, (E.Tensor((a, b)), l))) == \
            P.pairing_to_det(P.PairingExpr(f, (a, l))) * \
            P.pairing_to_det(P.PairingExpr(f, (b, l)))

    for _ in range(100):  # normalization idempotence
        g = P.GradedLine()
        for _ in range(rng.randint(1, 3)):
            g = g * (P.det_rf_atom(f, SU.random_expr(rng, 2)) ** rng.randint(-2, 2))
        once = P.normalize(g)
        assert P.normalize(once) == once

    _report("criterion 9 (algebra-law corpus, 100+ instances per law)", t0, 10.0)
