"""Split-principle evaluator: operation semantics, tau/theta, binomial kernel."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from adamsrr import expr as E
from adamsrr import picard as P
from adamsrr import splitting as S
from adamsrr import suite as SU
from adamsrr.rewrite import FSO, PUSHED_STRUCTURE, Geometry, verify_base_change
from adamsrr.splitting import (
    ContextMismatch, EvalError, NonEffectiveError, SplitClass, SplitContext,
    binomial_identity_check, classes_equal, eval_expr,
    _Packing, _expansion, packed_eval, pull_back, tilde_inverse_expr,
    truncated_eval, truncated_filtration,
)


@pytest.fixture
def ctx():
    t = E.SymbolTable(space="X")
    t.declare_line("L")
    t.declare_line("M")
    t.declare_bundle("E", 2)
    t.declare_bundle("F", 2)
    return SplitContext(t)


def var(name):
    return SplitClass({((name, 1),): 1})


def tau(p, ctx):
    """tau_p of the context's symbol V, by basis enumeration."""
    return eval_expr(E.Tau(p, ctx.table.symbol("V")), ctx)


def test_adams_on_line_is_power(ctx):
    got = eval_expr(E.Psi(2, E.Line("L")), ctx)
    assert got == var("L") * var("L")


def test_theta_on_line_is_truncated_geometric(ctx):
    assert eval_expr(E.Theta(2, E.Line("L")), ctx) == 1 + var("L")


def test_theta_on_rank2_matches_product_oracle(ctx):
    # oracle: multiply (1+a)(1+b) over the two roots directly
    a, b = var("E.1"), var("E.2")
    oracle = (SplitClass.constant(1) + a) * (SplitClass.constant(1) + b)
    assert eval_expr(E.Theta(2, E.Bundle("E")), ctx) == oracle
    assert str(oracle) == "1 + E.1 + E.2 + E.1*E.2"


def test_det_of_virtual_difference(ctx):
    got = eval_expr(E.DetClass(E.Sum((E.Bundle("E"), E.Neg(E.Line("L")), E.UNIT))), ctx)
    assert got == SplitClass({(("E.1", 1), ("E.2", 1), ("L", -1)): 1})


def test_eval_rejects_non_effective_theta(ctx):
    with pytest.raises(NonEffectiveError):
        eval_expr(E.Theta(2, E.Sum((E.Bundle("E"), E.Neg(E.Line("L"))))), ctx)


def test_eval_rejects_negative_power_of_non_line(ctx):
    with pytest.raises(EvalError):
        eval_expr(E.Power(E.Bundle("E"), -1), ctx)


def test_dual_inverts_monomials(ctx):
    got = eval_expr(E.Dual(E.Sum((E.Line("L"), E.Line("M")))), ctx)
    assert got == SplitClass({(("L", -1),): 1, (("M", -1),): 1})


def test_tau_rank_one():
    t = E.SymbolTable(space="Z")
    t.declare_line("V")
    ctx = SplitContext(t)
    assert tau(2, ctx) == 1 + var("V")


def test_tau_rank_two_enumerates_four_monomials():
    t = E.SymbolTable(space="Z")
    t.declare_bundle("V", 2)
    ctx = SplitContext(t)
    a, b = var("V.1"), var("V.2")
    assert tau(2, ctx) == 1 + a + b + a * b


def test_tau_augmentation_is_p_to_rank():
    for rank in (1, 2, 3, 4):
        t = E.SymbolTable(space="Z")
        t.declare_line("V") if rank == 1 else t.declare_bundle("V", rank)
        ctx = SplitContext(t)
        for p in (2, 3, 5):
            assert tau(p, ctx).augmentation() == p**rank


@pytest.mark.parametrize("rank,p", [(1, 3), (3, 2), (2, 5)])
def test_tau_equals_theta(rank, p):
    t = E.SymbolTable(space="Z")
    t.declare_line("V") if rank == 1 else t.declare_bundle("V", rank)
    ctx = SplitContext(t)
    assert tau(p, ctx) == eval_expr(E.Theta(p, t.symbol("V")), ctx)


def test_the_tau_cell_enumerates_each_tau_once(monkeypatch):
    # the check and its augmentation read one class per (rank, p) of the grid
    enumerate_tau, calls = S.tau_of_class, []
    monkeypatch.setattr(S, "tau_of_class", lambda cls, p: calls.append(p) or enumerate_tau(cls, p))
    assert SU.cell_tau_theta()[0]
    assert len(calls) == len(SU.TAU_RANKS) * len(SU.TAU_PRIMES) == 12


def test_tau_theta_verdict_reports_difference():
    # comparing tau at p=2 against theta at p=3 must produce a witness
    t = E.SymbolTable(space="Z")
    t.declare_line("V")
    ctx = SplitContext(t)
    diff = tau(2, ctx) - eval_expr(E.Theta(3, E.Line("V")), ctx)
    assert not diff.is_zero()


@pytest.mark.parametrize("seed", [1, 9, 12, 23])
def test_the_algebra_laws_check_every_theta_pair(seed):
    # each of these seeds draws a theta pair of more lines than the Laurent route expands
    assert SU.cell_algebra_laws(seed) == (True, "psi composition, theta/det laws, rank agreement, "
                                          "pairing laws, idempotence")


def test_the_theta_law_runs_the_packed_kernel(monkeypatch):
    # theta(a + b) + 1 is not (theta(a) + 1)(theta(b) + 1): the cell fails at the theta law
    multiplicative = S._multiplicative

    def off_by_one(g, sums, pk):
        out = dict(multiplicative(g, sums, pk))
        out[0] = out.get(0, 0) + 1
        return out

    monkeypatch.setattr(S, "_multiplicative", off_by_one)
    ok, detail = SU.cell_algebra_laws(seed=0)
    assert ok is False
    assert detail.startswith("theta multiplicativity broken on ")


def test_adams_composition(ctx):
    e = E.Sum((E.Bundle("E"), E.Dual(E.Line("L"))))
    lhs = eval_expr(E.Psi(2, E.Psi(3, e)), ctx)
    rhs = eval_expr(E.Psi(6, e), ctx)
    assert classes_equal(lhs, rhs)
    # independent oracle: scale every exponent of the base class by 6
    base = eval_expr(e, ctx)
    scaled = SplitClass({tuple((v, 6 * x) for v, x in m): c for m, c in base.terms.items()},
                        base.space)
    assert classes_equal(rhs, scaled)


def test_adams_is_a_ring_endomorphism():
    rng = random.Random(424242)
    t = SU.law_table()
    ctx = SplitContext(t)
    for _ in range(100):
        a, b = SU.random_expr(rng, 2), SU.random_expr(rng, 2)
        k = rng.randint(1, 4)
        pa, pb = eval_expr(E.Psi(k, a), ctx), eval_expr(E.Psi(k, b), ctx)
        assert classes_equal(eval_expr(E.Psi(k, E.Sum((a, b))), ctx), pa + pb)
        assert classes_equal(eval_expr(E.Psi(k, E.Tensor((a, b))), ctx), pa * pb)


def test_theta_multiplicative_on_sum(ctx):
    lhs = eval_expr(E.Theta(2, E.Sum((E.Bundle("E"), E.Bundle("F")))), ctx)
    rhs = eval_expr(E.Theta(2, E.Bundle("E")), ctx) * eval_expr(E.Theta(2, E.Bundle("F")), ctx)
    assert classes_equal(lhs, rhs)


def test_line_differs_from_its_dual(ctx):
    assert not classes_equal(eval_expr(E.Line("L"), ctx),
                             eval_expr(E.Dual(E.Line("L")), ctx))


def test_classes_equal_rejects_context_mismatch():
    a = SplitClass({(): 1}, space="X")
    b = SplitClass({(): 1}, space="Y")
    with pytest.raises(ContextMismatch):
        classes_equal(a, b)


def test_augmentation_matches_rank_on_random_corpus():
    rng = random.Random(1001)
    t = SU.law_table()
    ctx = SplitContext(t)
    for _ in range(120):
        e = SU.random_expr(rng)
        assert eval_expr(e, ctx).augmentation() == E.rank(e, t)


def test_canonicalization_preserves_semantics():
    rng = random.Random(60601)
    t = SU.law_table()
    ctx = SplitContext(t)
    for _ in range(200):
        e = SU.random_expr(rng)
        assert classes_equal(eval_expr(e, ctx), eval_expr(E.canonicalize(e), ctx))
        assert E.rank(e, t) == E.rank(E.canonicalize(e), t)


# -- tilde inverse and the binomial kernel ----------------------------------

def _tilde_oracle(n, p):
    """Independent expansion of (-1)^(n+1) sum C(n+2,i) y^(n+1-i) (-p^n)^i."""
    coeffs = {}
    a = p**n
    for i in range(n + 2):
        d = n + 1 - i
        coeffs[d] = coeffs.get(d, 0) + comb(n + 2, i) * (-a) ** i
    sign = (-1) ** (n + 1)
    return {d: sign * c for d, c in coeffs.items() if c}


Y = var("y")


def _coeffs(poly):
    """Degree -> coefficient of a polynomial class in the one variable y."""
    assert all(v == "y" for m in poly.terms for v, _ in m)
    return {dict(m).get("y", 0): c for m, c in poly.terms.items()}


def _tilde_at_y(n, p):
    """The chain's tilde expression at base y, evaluated as a class in the line y."""
    t = E.SymbolTable(space="Y")
    t.declare_line("y")
    return eval_expr(tilde_inverse_expr(n, p, E.Line("y")), SplitContext(t))


def test_tilde_n1_p2():
    got = _tilde_at_y(1, 2)
    assert _coeffs(got) == {2: 1, 1: -6, 0: 12}
    assert _coeffs(got) == _tilde_oracle(1, 2)


def test_tilde_n0_p2():
    got = _tilde_at_y(0, 2)
    assert _coeffs(got) == {1: -1, 0: 2}
    assert _coeffs(got) == _tilde_oracle(0, 2)


def test_tilde_leading_coefficient_is_sign():
    for n in range(6):
        for p in (2, 3, 5):
            got = _tilde_at_y(n, p)
            assert _coeffs(got)[n + 1] == (-1) ** (n + 1)
            assert _coeffs(got) == _tilde_oracle(n, p)


def test_tilde_on_split_classes(ctx):
    x = eval_expr(E.Theta(2, E.Bundle("E")), ctx)
    got = eval_expr(tilde_inverse_expr(1, 2, E.Theta(2, E.Bundle("E"))), ctx)
    assert classes_equal(got, x * x - 6 * x + 12)


def _poly_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def _binom_oracle(n, p):
    """(y - p^n)^(n+2) via repeated convolution, no SplitClass involved."""
    out = {0: 1}
    for _ in range(n + 2):
        out = _poly_mul(out, {1: 1, 0: -(p**n)})
    return out


def test_binomial_identity_n1_p2_explicit():
    w = binomial_identity_check(1, 2)
    assert w.ok
    assert _coeffs(w.lhs) == {3: 1, 2: -6, 1: 12, 0: -8}
    assert _coeffs(w.lhs) == _binom_oracle(1, 2)  # (y-2)^3, quotient +1
    assert w.quotient == SplitClass.constant(1)


def test_binomial_identity_n0_p3():
    w = binomial_identity_check(0, 3)
    assert w.ok
    assert w.quotient == SplitClass.constant(-1)
    # y(2 - y) - 1 = -(y - 1)^2
    assert _coeffs(w.lhs) == {d: -c for d, c in _binom_oracle(0, 3).items()}


def test_binomial_identity_n2_p2_quotient():
    w = binomial_identity_check(2, 2)
    assert w.ok
    assert w.quotient == SplitClass.constant(-1)
    assert _coeffs(w.divisor) == _binom_oracle(2, 2)


def test_binomial_identity_matches_oracle_on_grid():
    for n in range(6):
        for p in (2, 3, 5, 7):
            w = binomial_identity_check(n, p)
            assert w.ok, (n, p)
            sign = (-1) ** (n + 1)
            assert _coeffs(w.lhs) == {d: sign * c for d, c in _binom_oracle(n, p).items()}


def _tilde_reference(n, p, x):
    """The tilde built by class arithmetic, each power x^j by square-and-multiply."""
    a = p**n
    total = None
    for i in range(n + 2):
        term = x ** (n + 1 - i) * (comb(n + 2, i) * (-a) ** i)
        total = term if total is None else total + term
    return total * ((-1) ** (n + 1))


def _binomial_reference(n, p, tilde=_tilde_reference):
    """The witness by class arithmetic: (ok, quotient, remainder, lhs, divisor)."""
    y = var("y")
    lhs = y * tilde(n, p, y) - p ** (n * (n + 2))
    divisor = (y - p**n) ** (n + 2)
    quot = SplitClass.constant(lhs.terms.get((("y", n + 2),), 0))
    rem = lhs - quot * divisor
    return rem.is_zero() and quot == (-1) ** (n + 1), quot, rem, lhs, divisor


def _witness_texts(w):
    return [str(c) for c in (w.quotient, w.remainder, w.lhs, w.divisor)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_binomial_witness_matches_the_class_arithmetic_reference(p):
    for n in range(11):
        assert _tilde_at_y(n, p) == _tilde_reference(n, p, Y)
        ok, *fields = _binomial_reference(n, p)
        w = binomial_identity_check(n, p)
        assert w.ok is ok is True, (n, p)
        assert _witness_texts(w) == [str(c) for c in fields], (n, p)


@pytest.mark.parametrize("n,p", [(0, 2), (1, 3), (2, 2)])
def test_binomial_identity_rejects_a_wrong_tilde(monkeypatch, n, p):
    from adamsrr import splitting as S
    right = S.tilde_inverse_expr
    # c * y^d: terms above the divisor's degree, which stay in the remainder,
    # and a wrong constant term
    for d, c in ((n + 2, 1), (n + 3, 1), (n + 6, 5), (0, 1)):
        def wrong(n_, p_, base, d=d, c=c):
            return E.canonicalize(E.Sum((right(n_, p_, base),
                                         E.Tensor((E.IntConst(c), E.Power(base, d))))))

        def wrong_reference(n_, p_, y, d=d, c=c):
            return _tilde_reference(n_, p_, y) + c * y ** d

        monkeypatch.setattr(S, "tilde_inverse_expr", wrong)
        w = binomial_identity_check(n, p)
        assert not w.ok
        assert not w.remainder.is_zero()
        ok, *fields = _binomial_reference(n, p, wrong_reference)
        assert _witness_texts(w) == [str(c) for c in fields]


def test_str_of_a_class_is_its_render_kept(ctx):
    e = E.canonicalize(E.Sum((E.Line("L"), E.Bundle("E"))))
    w, lam = binomial_identity_check(2, 3), packed_eval(e, ctx, 3)
    classes = [SplitClass({(("x", 1),): 2, (): 0}), SplitClass._of({(("x", 2),): -1}, None),
               lam, P.chi_grade(P.Morphism("f", 1, ctx), lam),
               w.quotient, w.remainder, w.lhs, w.divisor, Y ** 1, Y ** 0]
    for c in classes:
        text = str(c)
        assert text == c.render() and str(c) is text


def test_render_wraps_each_monomial():
    x, y = var("x"), var("y")
    cls = x * y * Fraction(-3, 2) + x * x + 2
    # ascending degree, then by monomial: x*y = (("x", 1), ("y", 1)) < (("x", 2),)
    assert str(cls) == "2 - 3/2*x*y + x^2"
    assert cls.render("f_!") == "2*f_!(1) - 3/2*f_!(x*y) + f_!(x^2)"
    assert cls.term_texts() == [("1", 2), ("x*y", Fraction(-3, 2)), ("x^2", 1)]
    assert SplitClass().render("f_!") == "0"


# -- truncated filtration ------------------------------------------------------

def test_truncated_filtration_detects_ideal_powers(ctx):
    lm1 = eval_expr(E.Sum((E.Line("L"), E.Neg(E.UNIT))), ctx)
    sq = lm1 * lm1
    assert truncated_filtration(sq, ctx.var_aug, 2).is_zero()
    assert not truncated_filtration(sq, ctx.var_aug, 3).is_zero()
    assert not truncated_filtration(lm1, ctx.var_aug, 2).is_zero()


def test_truncated_filtration_with_opaque_rank():
    t = E.SymbolTable(space="X'")
    t.declare_bundle("B", 4)
    ctx = SplitContext(t, opaque=frozenset({"B"}))
    diff = eval_expr(E.Sum((E.Bundle("B"), E.Neg(E.IntConst(4)))), ctx)
    cube = diff * diff * diff
    assert truncated_filtration(cube, ctx.var_aug, 3).is_zero()
    assert not truncated_filtration(cube, ctx.var_aug, 4).is_zero()


def _random_pull_expr(rng, geom, space, depth, pulls=True):
    """Small expression on X or X' of `geom`, with pullbacks into that space.

    On X: symbols L, E, Omega_f, F^* of X' expressions and F_X^* of X ones.
    On X': F_*O_X and the J_ symbols, and J^* of X expressions.  Operators
    (dual, psi, theta) never see the unsplit F_*O_X on X' itself; under F^*
    it becomes theta^p(Omega_f).  theta only takes sums of two split symbols,
    so every class stays a few hundred monomials at most.
    """
    def leaf(opaque_ok):
        if space == "X":
            names = ["L", "E", E.SymbolTable.OMEGA]
        else:
            names = ["J_L", "J_E"] + ([PUSHED_STRUCTURE] if opaque_ok else [])
        return (geom.table_x if space == "X" else geom.table_xp).symbol(rng.choice(names))

    def go(d, opaque_ok, pulls):
        r = rng.random()
        if d == 0 or r < 0.2:
            return leaf(opaque_ok) if rng.random() < 0.8 else E.IntConst(rng.randint(-2, 3))
        if pulls and r < 0.45:
            if space == "X'":
                return E.Pull(geom.name_J, _random_pull_expr(rng, geom, "X", d - 1, False))
            if rng.random() < 0.5:
                return E.Pull(geom.name_F, _under_frobenius(rng, geom, d - 1))
            return E.Pull(geom.name_FX, _random_pull_expr(rng, geom, "X", d - 1, False))
        kind = rng.choice(("sum", "neg", "tensor", "power", "dual", "psi", "theta"))
        if kind == "sum":
            return E.Sum((go(d - 1, opaque_ok, pulls), go(d - 1, opaque_ok, pulls)))
        if kind == "neg":
            return E.Neg(go(d - 1, opaque_ok, pulls))
        if kind == "tensor":
            return E.Tensor((go(d - 1, opaque_ok, pulls), go(d - 1, opaque_ok, pulls)))
        if kind == "power":
            return E.Power(go(d - 1, opaque_ok, pulls), rng.randint(0, 3))
        if kind == "dual":
            return E.Dual(go(d - 1, False, pulls))
        if kind == "psi":
            return E.Psi(rng.choice((2, 3)), go(d - 1, False, pulls))
        return E.Theta(rng.choice((2, 3)), E.Sum((leaf(False), leaf(False))))

    return go(depth, True, pulls)


def _under_frobenius(rng, geom, depth):
    """An X' expression in which F_*O_X may sit under operators (no pullbacks)."""
    names = ["J_L", "J_E", PUSHED_STRUCTURE]
    e = geom.table_xp.symbol(rng.choice(names))
    for _ in range(depth):
        other = geom.table_xp.symbol(rng.choice(names))
        e = rng.choice((E.Sum((e, other)), E.Tensor((e, other)), E.Neg(e),
                        E.Power(e, rng.randint(0, 3)), E.Dual(e), E.Psi(2, e)))
    return e


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_truncated_eval_through_pullbacks_matches_full_expansion(n, p):
    # the fast route (truncate through the registered reducer) against the slow
    # one (expand the whole class, then truncate), each in its own contexts
    symbols = {"L": 1, "E": 2}
    fast, slow = Geometry(n, p, symbols), Geometry(n, p, symbols)
    rng = random.Random(1000 * n + p)
    seen = {"F": 0, "F_X": 0, "J": 0}
    for i in range(100):
        space = "X" if i % 2 else "X'"
        e = _random_pull_expr(rng, fast, space, 3)
        for name in seen:
            seen[name] += E.print_expr(e).count(f"pull({name}, ")
        ctx_fast = fast.ctx_x if space == "X" else fast.ctx_xp
        ctx_slow = slow.ctx_x if space == "X" else slow.ctx_xp
        for cutoff in (1, 2, n + 2):
            want = truncated_filtration(eval_expr(e, ctx_slow), ctx_slow.var_aug, cutoff)
            assert truncated_eval(e, ctx_fast, cutoff) == want, (E.print_expr(e), cutoff)
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_the_pullback_tables_satisfy_r5_and_r6_on_every_symbol(n, p):
    # F^*(J^* s) = F_X^* s = psi^p(s) for every X symbol s (R6, with R1), and
    # F^*(F_*O_X) = theta^p(Omega_f) of rank p^n (R5, R8), packed and by the Laurent route
    geom = Geometry(n, p, {"L": 1, "E": 2, "V": 3})
    ctx = geom.ctx_x
    for name in geom.table_x.names():
        s = geom.table_x.symbol(name)
        j_s = pull_back(geom.name_J, s, geom.ctx_xp)
        assert j_s == geom.table_xp.symbol(geom.twist[name])
        classes = [E.Pull(geom.name_F, j_s), E.Pull(geom.name_FX, s), E.Psi(p, s)]
        for route in (lambda e: packed_eval(e, ctx, n + 2), lambda e: eval_expr(e, ctx)):
            got = [route(e) for e in classes]
            assert got[0] == got[1] == got[2], name
    bott = E.Theta(p, E.Bundle(E.SymbolTable.OMEGA))
    assert pull_back(geom.name_F, FSO, ctx) == bott
    assert packed_eval(E.Pull(geom.name_F, FSO), ctx, n + 2) == packed_eval(bott, ctx, n + 2)
    laurent = eval_expr(E.Pull(geom.name_F, FSO), ctx)
    assert laurent == eval_expr(bott, ctx) and ctx.augmentation(laurent) == p**n
    assert E.rank(pull_back(geom.name_F, FSO, ctx), geom.table_x) == p**n


def test_pull_back_refuses_a_symbol_with_no_image_and_a_nested_pullback():
    geom = Geometry(1, 2, {"L": 1})
    omega = E.Bundle(E.SymbolTable.OMEGA)
    with pytest.raises(EvalError, match=r"^F\^\* has no registered action on symbol 'Omega_f'$"):
        pull_back(geom.name_F, E.Tensor((FSO, omega)), geom.ctx_x)  # Omega_f on X'
    with pytest.raises(EvalError, match=r"^J\^\* has no registered action on symbol 'FsO'$"):
        pull_back(geom.name_J, FSO, geom.ctx_xp)
    with pytest.raises(EvalError, match=r"^gp\^\* has no registered action on symbol 'M'$"):
        verify_base_change(1, 2, E.Line("M"), {"L": 1})
    with pytest.raises(EvalError, match="cannot substitute under an unresolved pullback"):
        pull_back(geom.name_F, E.Pull(geom.name_J, E.Line("L")), geom.ctx_x)
    with pytest.raises(EvalError, match="no pullback registered for morphism 'g'"):
        pull_back("g", E.Line("L"), geom.ctx_x)


def _line_leaves_naming_bundles():
    """(context, pullback of a `Line` leaf that names a bundle) under each registered table."""
    geom = Geometry(1, 2, {"L": 1, "E": 2})
    geom_t = Geometry(1, 2, {"g_L": 1, "g_E": 2}, suffix="T")
    geom_t.ctx_x.pullbacks["gp"] = {name: geom_t.table_x.symbol(name if name == E.SymbolTable.OMEGA
                                                                else "g_" + name)
                                    for name in geom.table_x.entries}
    return [(geom.ctx_x, E.Pull(geom.name_FX, E.Line("E"))),
            (geom.ctx_xp, E.Pull(geom.name_J, E.Line("E"))),
            (geom.ctx_x, E.Pull(geom.name_F, E.Line("J_E"))),
            (geom.ctx_x, E.Pull(geom.name_F, E.Line(PUSHED_STRUCTURE))),
            (geom_t.ctx_x, E.Pull("gp", E.Line("E")))]


@pytest.mark.parametrize("case", range(5))
def test_pull_back_refuses_a_line_leaf_that_names_a_bundle(case):
    ctx, pull = _line_leaves_naming_bundles()[case]
    assert eval_expr(E.Pull(pull.morphism, E.Bundle(pull.arg.name)), ctx)  # the bundle itself
    with pytest.raises(EvalError, match=r"has rank \d+, not one line$"):
        pull_back(pull.morphism, pull.arg, ctx)
    for e in (pull, E.Psi(2, pull), E.Dual(pull), E.Tensor((pull, E.Line("L")))):
        with pytest.raises(EvalError):
            eval_expr(e, ctx)
        for cutoff in (1, 2, 3):
            with pytest.raises(EvalError):
                packed_eval(e, ctx, cutoff)


def test_the_square_refuses_a_line_naming_a_bundle_through_its_own_gp_table():
    with pytest.raises(EvalError, match=r"^gp\^\*\(E\) has rank 2, not one line$"):
        verify_base_change(1, 2, E.Line("E"), {"E": 2})


def test_truncated_eval_refuses_an_unregistered_pullback():
    geom = Geometry(1, 2, {"L": 1})
    with pytest.raises(EvalError):
        truncated_eval(E.Pull("g", E.Line("L")), geom.ctx_x, 3)
    with pytest.raises(EvalError):  # J^* is registered into X' only
        truncated_eval(E.Pull(geom.name_J, E.Line("L")), geom.ctx_x, 3)


def test_a_line_of_a_rank_two_bundle_is_refused(ctx):
    with pytest.raises(EvalError):  # not its first root, E.1
        eval_expr(E.Line("E"), ctx)
    with pytest.raises(EvalError):
        truncated_eval(E.Line("E"), ctx, 3)
    assert eval_expr(E.Line("L"), ctx) == SplitClass({(("L", 1),): 1}, "X")


def test_a_line_of_the_rank_zero_omega_is_refused_at_n0():
    geom = Geometry(0, 2, {"L": 1})
    assert geom.ctx_x.roots[E.SymbolTable.OMEGA] == []
    with pytest.raises(EvalError):  # not a bare IndexError
        eval_expr(E.Line(E.SymbolTable.OMEGA), geom.ctx_x)
    with pytest.raises(EvalError):
        packed_eval(E.Line(E.SymbolTable.OMEGA), geom.ctx_x, 2)


# -- reference kernel: the tuple-of-pairs truncation the packed kernel replaced --

def _ref_mono_mul(a, b):
    d = dict(a)
    for v, e in b:
        ne = d.get(v, 0) + e
        if ne:
            d[v] = ne
        else:
            d.pop(v, None)
    return tuple(sorted(d.items()))


def _ref_trunc_mul(a, b, cutoff):
    bdeg = [(m, c, sum(e for _, e in m)) for m, c in b]
    out = {}
    for m1, c1 in a.items():
        d1 = sum(e for _, e in m1)
        for m2, c2, d2 in bdeg:
            if d1 + d2 >= cutoff:
                continue
            m = _ref_mono_mul(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def _ref_binomial_series(v, aug, e, cutoff):
    if aug == 0:
        if e < 0:
            raise EvalError("cannot invert a rank-0 class in the filtration expansion")
        if e >= cutoff:
            return []
        return [(((v, e),) if e else (), 1)]
    out = []
    if e >= 0:
        coeff = aug**e
    elif aug == 1:
        coeff = 1
    else:
        coeff = Fraction(1, aug ** (-e))
    j = 0
    while j < cutoff:
        if coeff:
            out.append(((((v, j),) if j else ()), coeff))
        num = coeff * (e - j)
        den = (j + 1) * aug
        if isinstance(num, int) and num % den == 0:
            coeff = num // den
        else:
            coeff = Fraction(num) / den
        if e >= 0 and j >= e:
            break
        j += 1
    return out


def _ref_truncated_filtration(cls, var_aug, cutoff):
    series_cache = {}
    mono_cache = {(): {(): 1}}

    def expand(m):
        hit = mono_cache.get(m)
        if hit is not None:
            return hit
        head, last = m[:-1], m[-1]
        series = series_cache.get(last)
        if series is None:
            series = _ref_binomial_series(last[0], var_aug.get(last[0], 1), last[1], cutoff)
            series_cache[last] = series
        out = _ref_trunc_mul(expand(head), series, cutoff)
        mono_cache[m] = out
        return out

    total = {}
    for m, c in cls.terms.items():
        for mono, coeff in expand(m).items():
            nc = total.get(mono, 0) + coeff * c
            if nc:
                total[mono] = nc
            else:
                total.pop(mono, None)
    return SplitClass(total, cls.space)


def _assert_matches_reference(e, ctx, cutoffs):
    cls = eval_expr(e, ctx)
    for cutoff in cutoffs:
        want = _ref_truncated_filtration(cls, ctx.var_aug, cutoff)
        got = truncated_filtration(cls, ctx.var_aug, cutoff)
        assert got == want and got.space == want.space, (E.print_expr(e), cutoff)
        assert truncated_eval(e, ctx, cutoff) == want, (E.print_expr(e), cutoff)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_packed_kernel_matches_tuple_reference_on_pull_corpus(n, p):
    geom = Geometry(n, p, {"L": 1, "E": 2})
    rng = random.Random(7000 + 10 * n + p)
    for i in range(60):
        space = "X" if i % 2 else "X'"
        e = _random_pull_expr(rng, geom, space, 3)
        _assert_matches_reference(e, geom.ctx_x if space == "X" else geom.ctx_xp,
                                  range(1, n + 3))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_packed_kernel_matches_tuple_reference_on_duals_and_opaque(n):
    # negative exponents (duals, inverse powers) and the opaque F_*O_X, whose
    # augmentation p^n makes the inverse series' coefficients Fractions
    geom = Geometry(n, 3, {"L": 1, "E": 2})
    L, B, fso = E.Line("L"), E.Bundle("E"), FSO
    j_l, j_b = E.Line("J_L"), E.Bundle("J_E")
    on_x = [E.Dual(L), E.Dual(B), E.Power(L, -3), E.Tensor((E.Dual(B), E.Power(L, 2))),
            E.Sum((E.Dual(E.Psi(2, B)), E.Neg(B), E.IntConst(2)))]
    on_xp = [fso, E.Power(fso, -1), E.Power(fso, -2), E.Power(fso, 3),
             E.Tensor((E.Power(fso, -1), E.Dual(j_b))),
             E.Sum((E.Tensor((fso, j_l)), E.Neg(E.IntConst(3 ** n)), E.Dual(j_l)))]
    for e in on_x:
        _assert_matches_reference(e, geom.ctx_x, range(1, n + 3))
    for e in on_xp:
        _assert_matches_reference(e, geom.ctx_xp, range(1, n + 3))
    if n:
        inverse = truncated_eval(E.Power(fso, -1), geom.ctx_xp, n + 2)
        assert any(Fraction(c).denominator > 1 for c in inverse.terms.values())


def test_packed_kernel_matches_tuple_reference_on_rank_zero_opaque():
    t = E.SymbolTable(rel_dim=0, space="X'")
    t.declare_line("L")
    ctx = SplitContext(t, opaque=frozenset({E.SymbolTable.OMEGA}))
    assert ctx.var_aug[E.SymbolTable.OMEGA] == 0
    z = E.Bundle(E.SymbolTable.OMEGA)
    for e in (z, E.Power(z, 2), E.Sum((z, E.Line("L"))),
              E.Tensor((E.Power(z, 3), E.Dual(E.Line("L")))), E.Power(E.Sum((z, E.UNIT)), 4)):
        _assert_matches_reference(e, ctx, range(1, 6))
    inverse = E.Power(z, -1)
    for cutoff in (1, 3):
        with pytest.raises(EvalError):
            _ref_truncated_filtration(eval_expr(inverse, ctx), ctx.var_aug, cutoff)
        with pytest.raises(EvalError):
            truncated_filtration(eval_expr(inverse, ctx), ctx.var_aug, cutoff)
        with pytest.raises(EvalError):
            truncated_eval(inverse, ctx, cutoff)


def test_packed_filtration_matches_tuple_reference_off_var_aug(ctx):
    # a variable missing from var_aug takes augmentation 1, like the reference
    cls = eval_expr(E.Sum((E.Tensor((E.Dual(E.Line("L")), E.Bundle("E"))),
                           E.Power(E.Line("M"), 3), E.Neg(E.Bundle("F")))), ctx)
    partial = {v: a for v, a in ctx.var_aug.items() if v not in ("L", "E.1")}
    for cutoff in range(1, 6):
        want = _ref_truncated_filtration(cls, partial, cutoff)
        assert truncated_filtration(cls, partial, cutoff) == want
        assert truncated_filtration(cls, {}, cutoff) == \
            _ref_truncated_filtration(cls, {}, cutoff)


# -- the memoized root expansion, against the tuple reference ----------------------------

# (monomial, augmentation of each of its variables): exponents -3..4, augmentations
# 1 and 4 (the inverse series of a 4 has Fraction coefficients), 1 to 4 variables
EXPANSION_TABLE = [
    *[((("a", e),), (aug,)) for e in (-3, -2, -1, 1, 2, 3, 4) for aug in (1, 4)],
    ((("a", 2), ("b", -1)), (1, 1)),
    ((("a", -3), ("b", 4)), (4, 1)),
    ((("a", 1), ("b", 1)), (4, 4)),
    ((("a", 1), ("b", -2), ("c", 3)), (1, 4, 1)),
    ((("a", -1), ("b", -1), ("c", -1)), (4, 4, 4)),
    ((("a", 4), ("b", 2), ("c", -3)), (1, 1, 1)),
    ((("a", 4), ("b", 3), ("c", -3), ("d", 2)), (1, 4, 4, 1)),
    ((("a", -2), ("b", 1), ("c", 2), ("d", -3)), (4, 1, 1, 4)),
    ((("a", -1), ("b", -1), ("c", -1), ("d", -1)), (1, 1, 1, 1)),
    ((("a", 3), ("b", -3), ("c", 4), ("d", -2)), (4, 4, 4, 4)),
]


def _expansion_rows():
    """((monomial, var_aug, cutoff), truncated_filtration, its tuple reference) over the table."""
    rows = []
    for m, augs in EXPANSION_TABLE:
        var_aug = {v: a for (v, _), a in zip(m, augs)}
        for cutoff in range(1, 6):
            cls = SplitClass({m: 3})
            rows.append(((m, var_aug, cutoff), truncated_filtration(cls, var_aug, cutoff),
                         _ref_truncated_filtration(cls, var_aug, cutoff)))
    return rows


def test_root_expansion_matches_the_tuple_reference_and_survives_a_cache_clear():
    rows = _expansion_rows()
    for key, got, want in rows:
        assert got == want and str(got) == str(want), key
        m, _, cutoff = key
        # a one-variable monomial is its binomial series, scaled
        if len(m) == 1:
            (v, e), = m
            series = _ref_binomial_series(v, key[1][v], e, cutoff)
            assert got == SplitClass({mono: 3 * c for mono, c in series}), key
    assert any(not isinstance(c, int) and c.denominator > 1
               for _, got, _ in rows for c in got.terms.values())
    _expansion.cache_clear()
    again = _expansion_rows()
    assert [(k, str(g)) for k, g, _ in again] == [(k, str(g)) for k, g, _ in rows]
    assert [g for _, g, _ in again] == [g for _, g, _ in rows]


def test_root_expansion_sums_the_terms_of_a_class():
    var_aug = {"a": 4, "b": 1, "c": 4, "d": 1}
    cls = SplitClass({m: c for (m, _), c in zip(EXPANSION_TABLE, [1, -2, 3, Fraction(1, 2)] * 9)})
    for cutoff in range(1, 6):
        want = _ref_truncated_filtration(cls, var_aug, cutoff)
        assert truncated_filtration(cls, var_aug, cutoff) == want, cutoff


def test_root_expansion_keys_each_variable_by_its_augmentation():
    cls = SplitClass({(("a", -1), ("b", 2)): 1})
    for cutoff in range(2, 6):
        one = truncated_filtration(cls, {"a": 1, "b": 1}, cutoff)
        four = truncated_filtration(cls, {"a": 4, "b": 1}, cutoff)
        assert one != four, cutoff
        assert one == _ref_truncated_filtration(cls, {"a": 1, "b": 1}, cutoff)
        assert four == _ref_truncated_filtration(cls, {"a": 4, "b": 1}, cutoff)


def test_root_expansion_refuses_a_rank_zero_inverse_every_time():
    for e in range(1, 5):
        cls = SplitClass({(("a", 1), ("z", e)): 1})
        for cutoff in range(1, 6):
            want = _ref_truncated_filtration(cls, {"z": 0}, cutoff)
            assert truncated_filtration(cls, {"z": 0}, cutoff) == want, (e, cutoff)
    for e in (-3, -2, -1):
        cls = SplitClass({(("a", 2), ("z", e)): 1})
        for _ in range(2):  # a refusal is not memoized, and is refused again
            with pytest.raises(EvalError) as refused:
                truncated_filtration(cls, {"z": 0}, 3)
            assert str(refused.value) == "cannot invert a rank-0 class in the filtration expansion"


def test_renaming_the_variables_renames_the_root_expansion():
    # the names reversed: the monomials come out in the new name order, and the
    # expansion costs as many memo entries under either set of names
    rename = {"a": "z", "b": "y", "c": "x", "d": "w"}

    def renamed(cls):
        return SplitClass({tuple(sorted((rename[v], e) for v, e in m)): c
                           for m, c in cls.terms.items()})

    cls = SplitClass({m: 1 for m, _ in EXPANSION_TABLE if len(m) > 1})
    var_aug = {"a": 4, "b": 1, "c": 4, "d": 1}
    for cutoff in range(1, 6):
        _expansion.cache_clear()
        got = truncated_filtration(cls, var_aug, cutoff)
        misses = _expansion.cache_info().misses
        _expansion.cache_clear()
        moved = truncated_filtration(renamed(cls), {rename[v]: a for v, a in var_aug.items()}, cutoff)
        assert _expansion.cache_info().misses == misses, cutoff
        assert moved == renamed(got) and str(moved) == str(renamed(got)), cutoff


# -- the unpacking memo ---------------------------------------------------------------------

def test_unpack_drops_zero_coefficients_cold_and_warm(ctx):
    pk = _Packing(ctx.roots, ctx.var_aug, 3)
    e1, e2, l1 = pk._e("E", 1), pk._e("E", 2), pk._e("L", 1)
    # e_1^2 - 2 e_2 = u_1^2 + u_2^2: the cross terms cancel; zero numerators as chow passes them
    packed = {0: 0, e1 + e1: 1, e2: -2, l1: 0, e1 + l1: 5}
    want = {(("E.1", 2),): 1, (("E.2", 2),): 1, (("E.1", 1), ("L", 1)): 5,
            (("E.2", 1), ("L", 1)): 5}
    for _ in range(2):
        got = pk.unpack(packed, ctx.space)
        assert got.terms == want and 0 not in got.terms.values()
        assert pk.unpack({e1: 0, e2: 0}, ctx.space).terms == {}


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_truncated_eval_is_the_same_from_a_cold_and_a_warm_context(cutoff):
    rng = random.Random(4100 + cutoff)
    corpus = [SU.random_expr(rng) for _ in range(80)]
    warm = SplitContext(SU.law_table())
    for e in corpus:
        truncated_eval(e, warm, cutoff)
    for e in corpus:
        cold = truncated_eval(e, SplitContext(SU.law_table()), cutoff)
        again = truncated_eval(e, warm, cutoff)
        assert again == cold and str(again) == str(cold), (E.print_expr(e), cutoff)


def test_packed_sum_is_truncated_iff_the_degree_reaches_the_cutoff():
    # the carry argument behind the packed kernel, on every pair of kept monomials
    for cutoff in range(1, 8):
        for nvars in (1, 2, 3):
            pk = _Packing({f"v{i}": (f"v{i}",) for i in range(nvars)}, {}, cutoff)
            kept = {sum(x << pk.offset[f"v{i}"] for i, x in enumerate(exps))
                    | (sum(exps) << pk.shift): sum(exps)
                    for exps in product(range(cutoff), repeat=nvars) if sum(exps) < cutoff}
            for m1, d1 in kept.items():
                for m2, d2 in kept.items():
                    assert (m1 + m2 < pk.limit) == (d1 + d2 < cutoff)
                    if d1 + d2 < cutoff:
                        assert kept[m1 + m2] == d1 + d2


# -- the tensor rule: int factors multiply one scalar, the product starts from the first other --

def _tensor_corpus(x):
    """Tensors with int factors at every position, over x, y = x + M and w = dual(x)."""
    c, T = E.IntConst, E.Tensor
    y, w = E.Sum((x, E.Line("M"))), E.Dual(x)
    return [T((c(0), x)), T((x, c(0), y)), T((x, y, c(0))),                # a zero scalar
            T((c(1), x, y)), T((x, c(-1))), T((y, w, c(1))),                 # a unit
            T((c(-3), x, y)), T((x, c(-2), w)), T((c(2), x, c(-5), y)),     # two constants
            T((c(2), c(3))), T((c(-4),)), T((c(0), c(7))), T(()),           # constants alone
            T((x,)), T((c(6), y)), T((w, c(6))),                            # one other factor
            T((x, T((c(3), y)), c(-1))), T((T((y, c(2))), T((c(5),)), w))]  # nested constants


@pytest.mark.parametrize("rank", [1, 2])
def test_the_tensor_rule_matches_the_laurent_route(rank):
    # each tensor under psi^k and dual, then each of its factors alone, in one context:
    # a factor's memo that the tensor rule handed out and altered shows in the factor
    # and in every result held before
    def context():
        t = E.SymbolTable(space="X")
        t.declare_line("L")
        t.declare_line("M")
        t.declare_bundle("E", 2)
        return SplitContext(t)

    fast, slow = context(), context()
    x = E.Line("L") if rank == 1 else E.Bundle("E")
    held = []
    for t in _tensor_corpus(x):
        for wrap in (lambda e: e, lambda e: E.Psi(2, e), lambda e: E.Psi(3, e), E.Dual):
            for e in [wrap(t)] + [wrap(f) for f in t.factors]:
                for cutoff in range(2, 6):
                    want = truncated_filtration(eval_expr(e, slow), slow.var_aug, cutoff)
                    held.append((e, cutoff, want, packed_eval(e, fast, cutoff)))
    for e, cutoff, want, got in held:
        assert got.space.unpack(got.terms, fast.space) == want, (E.print_expr(e), cutoff)


def test_a_zero_scalar_still_refuses_an_opaque_factor():
    # the factors after a zero constant are evaluated all the same, so psi^2 of the
    # opaque F_*O_X beside it is refused, by the psi or the dual above it
    geom = Geometry(1, 2, {"L": 1})
    zero, j_l = E.IntConst(0), E.Line("J_L")
    opaque = " cannot be applied to an opaque (unsplit) bundle class"
    cases = [(E.Psi(2, E.Tensor((zero, FSO))), "psi" + opaque),
             (E.Psi(2, E.Tensor((FSO, zero))), "psi" + opaque),
             (E.Psi(2, E.Tensor((zero, j_l, FSO))), "psi" + opaque),
             (E.Dual(E.Tensor((j_l, zero, FSO))), "dual" + opaque),
             (E.Tensor((zero, E.Psi(2, FSO))), "psi" + opaque)]
    for e, message in cases:
        for cutoff in range(2, 6):
            with pytest.raises(EvalError) as caught:
                packed_eval(e, geom.ctx_xp, cutoff)
            assert str(caught.value) == message
