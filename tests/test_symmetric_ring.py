"""The truncated ring in e-coordinates against the Laurent route.

`packed_eval` builds every class directly in the elementary symmetric
functions e_1..e_r of each bundle's u = x - 1 coordinates, by one rule per
node.  Unpacked into root monomials, every such class must equal the full
Laurent evaluation truncated afterwards,
`truncated_filtration(eval_expr(e), var_aug, cutoff)`, and an input the
Laurent route refuses must be refused with the same error, except theta and
tau of a class of rank >= 0 that is not effective, which only the truncated
ring builds.
"""

import itertools
import random
from math import comb

import pytest

from adamsrr import expr as E
from adamsrr import rewrite as R
from adamsrr import splitting as S
from adamsrr import suite as SU
from test_integer_kernel import _ref_power

OMEGA = E.SymbolTable.OMEGA

# (3, 5) is left out, as in tests/test_packed_invariant.py
CASES = [(n, p) for n in range(5) for p in (2, 3, 5) if (n, p) != (3, 5)]


def _matches_laurent(e: E.Expr, ctx: S.SplitContext, cutoff: int) -> bool:
    want = S.truncated_filtration(S.eval_expr(e, ctx), ctx.var_aug, cutoff)
    return S.truncated_eval(e, ctx, cutoff) == want


def _x_context(n: int) -> S.SplitContext:
    """Omega_f of rank n, a line and bundles of rank 1, 2 and 3."""
    table = E.SymbolTable(rel_dim=n, space="X")
    table.declare_line("L")
    for rank in (1, 2, 3):
        table.declare_bundle(f"B{rank}", rank)
    return S.SplitContext(table)


def _leaf_exprs(p: int) -> list[E.Expr]:
    symbols = [E.Line("L"), E.Bundle("B1"), E.Bundle("B2"), E.Bundle("B3"), E.Bundle(OMEGA)]
    out = []
    for s in symbols:
        out += [s, E.Psi(1, s), E.Psi(2, s), E.Psi(p, s), E.Dual(s),
                E.Theta(1, s), E.Theta(2, s), E.Theta(p, s)]
    return out


def _compound_exprs(p: int) -> list[E.Expr]:
    L, B2, B3, om = E.Line("L"), E.Bundle("B2"), E.Bundle("B3"), E.Bundle(OMEGA)
    return [
        E.Theta(p, E.Sum((L, B2))),
        E.Theta(2, E.Tensor((L, B2))),
        E.Psi(p, E.Tensor((B2, E.Dual(B3)))),
        E.Psi(2, E.Power(B2, 2)),
        E.Psi(3, E.Sum((B3, E.Neg(L), E.IntConst(2)))),
        E.Dual(E.Sum((B2, E.Neg(L)))),
        E.Dual(E.Psi(3, B3)),
        E.Psi(2, E.Dual(E.Tensor((L, om)))),
        E.Tau(2, B3),
        E.Tau(p, E.Sum((L, B2))),
        E.DetClass(E.Sum((B2, B3))),
        E.DetClass(E.Sum((B3, E.Neg(E.Psi(2, B2)), E.IntConst(3)))),
        E.Theta(2, E.Sum((B3, L))),
        E.Tensor((E.Power(E.DetClass(B3), -1), B2)),
        E.Power(E.Tensor((E.Neg(L), E.DetClass(E.Dual(B2)))), -3),
        # theta and det of tensors with blocks of rank 2 and 3
        E.Theta(2, E.Tensor((B2, B3))),
        E.Theta(3, E.Tensor((L, E.Dual(B3)))),
        E.DetClass(E.Tensor((B2, B3))),
        E.DetClass(E.Tensor((E.Psi(2, B2), E.Dual(B3)))),
        # psi^k and dual over theta, tau, det and negative powers
        E.Psi(2, E.Theta(p, E.Sum((L, B2)))),
        E.Dual(E.Theta(3, E.Sum((L, om)))),
        E.Psi(p, E.Tau(2, E.Tensor((L, B2)))),
        E.Dual(E.Tau(p, B2)),
        E.Psi(3, E.DetClass(E.Sum((B2, E.Neg(L))))),
        E.Dual(E.DetClass(B3)),
        E.Psi(2, E.Power(E.DetClass(B2), -2)),
        E.Dual(E.Power(E.Tensor((L, E.Dual(E.DetClass(B3)))), -1)),
        E.Dual(E.Psi(2, E.Theta(2, E.Psi(2, B2)))),
    ]


@pytest.mark.parametrize("n,p", CASES)
def test_leaves_of_symbols_match_the_laurent_route(n, p):
    ctx = _x_context(n)
    for e in _leaf_exprs(p):
        for cutoff in range(1, n + 3):
            assert _matches_laurent(e, ctx, cutoff), (E.print_expr(e), cutoff)


@pytest.mark.parametrize("n,p", CASES)
def test_operators_of_compound_arguments_match_the_laurent_route(n, p):
    ctx = _x_context(n)
    for e in _compound_exprs(p):
        for cutoff in range(1, n + 3):
            assert _matches_laurent(e, ctx, cutoff), (E.print_expr(e), cutoff)


def test_rank_zero_omega_at_n0_matches_the_laurent_route():
    ctx = _x_context(0)
    assert ctx.roots[OMEGA] == []
    z = E.Bundle(OMEGA)
    for e in (z, E.Psi(2, z), E.Dual(z), E.Theta(3, z), E.Tensor((E.Theta(2, z), E.Line("L")))):
        for cutoff in (1, 2, 3):
            assert _matches_laurent(e, ctx, cutoff), (E.print_expr(e), cutoff)


def _pullback_cases(n: int, p: int, rank: int) -> list[tuple[S.SplitContext, list[E.Expr]]]:
    """Pullbacks through the tables of the chain's geometry, and a composite one, per context."""
    symbols = {"L": 1, "E": rank}
    geom = R.Geometry(n, p, symbols)
    geom_t = R.Geometry(n, p, {"g_" + name: rk for name, rk in symbols.items()}, suffix="T")
    geom_t.ctx_x.pullbacks["gp"] = {name: geom_t.table_x.symbol(name if name == OMEGA else "g_" + name)
                                    for name in geom.table_x.entries}
    L, B, om = E.Line("L"), E.Bundle("E") if rank > 1 else E.Line("E"), E.Bundle(OMEGA)
    j_l, j_b = E.Line("J_L"), E.Bundle("J_E") if rank > 1 else E.Line("J_E")
    on_x = [E.Pull(geom.name_F, R.FSO), E.Pull(geom.name_F, E.Sum((R.FSO, j_b))),
            E.Pull(geom.name_F, E.Tensor((R.FSO, E.Dual(j_l)))),
            E.Theta(p, E.Pull(geom.name_F, j_l)), E.Psi(p, E.Pull(geom.name_F, j_b)),
            E.Pull(geom.name_FX, E.Tensor((B, E.Theta(2, om)))),
            E.Dual(E.Pull(geom.name_FX, B))]
    on_xp = [E.Pull(geom.name_J, E.Tensor((B, E.Dual(L)))), E.Psi(2, E.Pull(geom.name_J, B)),
             E.Theta(p, E.Pull(geom.name_J, om)),
             E.Power(R.FSO, -1), E.Power(R.FSO, -2), E.Tensor((E.Power(R.FSO, -1), j_b)),
             E.Sum((E.Tensor((R.FSO, j_l)), E.Neg(E.IntConst(p ** n))))]
    on_t = [E.Psi(p, E.Pull("gp", B)), E.Theta(p, E.Pull("gp", om)),
            E.Pull("gp", E.Tensor((B, E.Dual(L)))), E.Dual(E.Pull("gp", E.Psi(2, L)))]
    return [(geom.ctx_x, on_x), (geom.ctx_xp, on_xp), (geom_t.ctx_x, on_t)]


@pytest.mark.parametrize("n,p", CASES)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pullbacks_through_the_reducers_match_the_laurent_route(n, p, rank):
    for ctx, exprs in _pullback_cases(n, p, rank):
        for e in exprs:
            for cutoff in range(1, n + 3):
                assert _matches_laurent(e, ctx, cutoff), (E.print_expr(e), cutoff)


@pytest.mark.parametrize("n,p", [(0, 3), (2, 2), (4, 5)])
def test_no_class_is_truncated_in_the_root_basis(monkeypatch, n, p):
    """Every class above is built in e-coordinates: the Laurent expansion never runs."""
    cases = [(_x_context(n), _leaf_exprs(p) + _compound_exprs(p))]
    for rank in (1, 2, 3):
        cases += _pullback_cases(n, p, rank)

    def expand(*args):
        raise AssertionError("a class was expanded from its Laurent form")

    with monkeypatch.context() as patched:
        patched.setattr(S, "_expansion", expand)
        got = [S.truncated_eval(e, ctx, cutoff) for ctx, exprs in cases for e in exprs
               for cutoff in range(1, n + 3)]
    want = [S.truncated_filtration(S.eval_expr(e, ctx), ctx.var_aug, cutoff)
            for ctx, exprs in cases for e in exprs for cutoff in range(1, n + 3)]
    assert got == want


# -- theta and tau of virtual classes ---------------------------------------------------

def test_theta_is_multiplicative_on_virtual_classes():
    # theta^k(A - B) theta^k(B) = theta^k(A) mod I^c, A - B of rank >= 0; the pairs
    # (k, c) run through every k in {2, 3, 5} and c in 1..5
    rng = random.Random(3131)
    ctx = S.SplitContext(SU.law_table())
    for i in range(300):
        a, b = SU.random_effective(rng), SU.random_effective(rng)
        if E.rank(a, ctx.table) < E.rank(b, ctx.table):
            a, b = b, a
        k, cutoff = (2, 3, 5)[i % 3], 1 + i % 5
        lhs = E.Tensor((E.Theta(k, E.Sum((a, E.Neg(b)))), E.Theta(k, b)))
        assert S.packed_eval(lhs, ctx, cutoff) == S.packed_eval(E.Theta(k, a), ctx, cutoff), \
            (E.print_expr(lhs), cutoff)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_theta_of_the_euler_class_is_the_product_over_its_lines(n, p):
    # on P(O(a_0) + ... + O(a_n)) over P^1, Omega_f = sum_i t^(a_i) xi^-1 - 1, and
    # p theta^p(Omega_f) = prod_i theta^p(t^(a_i) xi^-1) mod I^(n+2), the right side
    # by the Laurent route
    table = E.SymbolTable(space="X")
    table.declare_line("t")
    table.declare_line("xi")
    ctx = S.SplitContext(table)
    t, xi = E.Line("t"), E.Power(E.Line("xi"), -1)
    for splitting_type in ([0] * (n + 1), list(range(n + 1)), [-2] + [1] * n):
        lines = [E.Tensor((E.Power(t, a), xi)) for a in splitting_type]
        omega = E.Sum((*lines, E.IntConst(-1)))
        lhs = E.Tensor((E.IntConst(p), E.Theta(p, omega)))
        rhs = E.Tensor(tuple(E.Theta(p, line) for line in lines))
        want = S.truncated_filtration(S.eval_expr(rhs, ctx), ctx.var_aug, n + 2)
        assert S.truncated_eval(lhs, ctx, n + 2) == want, (splitting_type, E.print_expr(lhs))


def test_tau_of_a_rank_zero_class_is_built_where_its_laurent_class_needs_a_truncation():
    ctx = _opaque_context(1)
    L, B2 = E.Line("L"), E.Bundle("B2")
    e = E.Tau(3, E.Sum((B2, E.Neg(L), E.Neg(L))))
    with pytest.raises(S.NonEffectiveError, match="tau of a class that is not effective needs a truncation"):
        S.eval_expr(e, ctx)
    for cutoff in (1, 2, 3):
        got = S.packed_eval(E.Tensor((e, E.Tau(3, L), E.Tau(3, L))), ctx, cutoff)
        assert got == S.packed_eval(E.Tau(3, B2), ctx, cutoff)
        assert S.packed_eval(e, ctx, cutoff).terms[0] == 1  # its rank, 3^0


# -- refusals ----------------------------------------------------------------------------

def _refusal(evaluate):
    try:
        evaluate()
    except S.ExprError as ex:
        return type(ex), str(ex)
    return None


def _opaque_context(n: int) -> S.SplitContext:
    """`_x_context` with FsO, an opaque bundle of rank 2^n."""
    table = E.SymbolTable(rel_dim=n, space="X")
    table.declare_line("L")
    table.declare_bundle("B2", 2)
    table.declare_bundle(R.PUSHED_STRUCTURE, 2 ** n)
    return S.SplitContext(table, opaque=frozenset({R.PUSHED_STRUCTURE}))


def _refused_exprs() -> list[E.Expr]:
    L, B2, F = E.Line("L"), E.Bundle("B2"), R.FSO
    gone = E.Sum((F, E.Neg(F)))
    return [
        # theta and tau of arguments of negative rank, nested ones too
        E.Theta(2, E.Sum((L, E.Neg(B2)))), E.Theta(2, E.Neg(B2)),
        E.Psi(2, E.Theta(2, E.Neg(L))), E.Dual(E.Tau(2, E.IntConst(-1))),
        E.DetClass(E.Tau(2, E.Sum((L, E.Neg(B2))))),
        # the opaque FsO under each operator, and the identity psi^1; the outermost operator
        # names itself
        E.Psi(2, F), E.Psi(2, E.Sum((L, F))), E.Dual(F), E.Dual(E.Dual(F)), E.Psi(1, F),
        E.Theta(2, F), E.Tau(2, E.Tensor((F, L))), E.DetClass(F), E.Psi(3, E.Power(F, -1)),
        E.Psi(2, E.Dual(F)), E.Theta(2, E.Sum((L, E.Psi(2, F)))),
        # FsO where it cancels in the Laurent class, under psi^k, the identity or a zero factor
        E.Psi(2, gone), E.Dual(E.Sum((F, L, E.Neg(F)))), E.DetClass(gone),
        E.Theta(2, E.Sum((F, L, E.Neg(F)))), E.Psi(2, E.Tau(2, E.Tensor((gone, L)))),
        E.Psi(1, gone), E.Dual(E.Dual(gone)), E.Psi(1, E.Tensor((E.ZERO, F))),
        # an undeclared symbol beside FsO: the operator refuses FsO first
        E.DetClass(E.Sum((F, E.Line("M")))),
        # an unregistered pullback, undeclared symbols and a bundle read as a line
        E.Pull("nowhere", L), E.Psi(2, E.Pull("nowhere", L)), E.Theta(2, E.Pull("nowhere", L)),
        E.Theta(2, E.Sum((L, E.Pull("nowhere", L)))),
        E.Line("M"), E.Psi(2, E.Bundle("M")), E.DetClass(E.Line("M")),
        E.Line("B2"), E.Dual(E.Line("B2")), E.Theta(3, E.Line("B2")),
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_refusals_match_the_laurent_route(n):
    ctx = _opaque_context(n)
    for e in _refused_exprs():
        for cutoff in (1, 2, 3):
            want = _refusal(lambda: S.truncated_filtration(S.eval_expr(e, ctx), ctx.var_aug, cutoff))
            assert want is not None, E.print_expr(e)
            assert _refusal(lambda: S.packed_eval(e, ctx, cutoff)) == want, (E.print_expr(e), cutoff)


@pytest.mark.parametrize("n", [1, 2])
def test_negative_powers_the_laurent_route_refuses_are_built_in_the_truncated_ring(n):
    # psi^k(base^j), with the Laurent refusal of the base's inverse
    L, B2 = E.Line("L"), E.Bundle("B2")
    rows = [(1, E.Sum((L, B2)), -1, "negative power of a non-line class: (B2 + L)^-1"),
            (1, E.Tensor((E.IntConst(2), L)), -1, "inverse requires unit coefficient, got 2"),
            (2, E.Sum((L, L)), -2, "inverse requires unit coefficient, got 2")]
    ctx = _opaque_context(n)
    for k, base, j, text in rows:
        e = E.Power(base, j) if k == 1 else E.Psi(k, E.Power(base, j))
        assert _refusal(lambda: S.eval_expr(e, ctx)) == (S.EvalError, text)
        for cutoff in range(1, n + 3):
            x = S.packed_eval(base if k == 1 else E.Psi(k, base), ctx, cutoff)
            assert S.packed_eval(e, ctx, cutoff).terms == _ref_power(x.terms, j, x.space), \
                (E.print_expr(e), cutoff)


def test_operator_indices_below_one_are_refused_when_the_node_is_built():
    args = [E.Bundle("B2"), E.Sum((E.Line("L"), E.Bundle("B2"))), E.Psi(2, E.Bundle("B3"))]
    for ctor in (E.Psi, E.Theta, E.Tau):
        for k in (0, -1, -2):
            for arg in args:
                want = (E.ExprError, f"{ctor.__name__.lower()} index must be >= 1, got {k}")
                assert _refusal(lambda: ctor(k, arg)) == want


def test_the_inverse_of_a_rank_zero_opaque_class_is_refused_as_in_its_expansion():
    table = E.SymbolTable(rel_dim=0, space="X")
    ctx = S.SplitContext(table, opaque=frozenset({OMEGA}))
    e = E.Power(E.Bundle(OMEGA), -1)
    for cutoff in (1, 2, 3):
        want = _refusal(lambda: S.truncated_filtration(S.eval_expr(e, ctx), ctx.var_aug, cutoff))
        assert want == (S.EvalError, "cannot invert a rank-0 class in the filtration expansion")
        assert _refusal(lambda: S.packed_eval(e, ctx, cutoff)) == want


def _packed_outcomes(cases, cutoffs) -> list:
    """Each case's packed terms or refusal at each cutoff, each case on a fresh context."""
    out = []
    for make_context, e in cases:
        ctx = make_context()
        for cutoff in cutoffs:
            try:
                out.append(S.packed_eval(e, ctx, cutoff).terms)
            except S.ExprError as ex:
                out.append((type(ex), str(ex)))
    return out


def _opaque_law_context() -> S.SplitContext:
    """`suite.law_table` with an opaque bundle beside its symbols, so every operator walks."""
    table = SU.law_table()
    table.declare_bundle(R.PUSHED_STRUCTURE, 4)
    return S.SplitContext(table, opaque=frozenset({R.PUSHED_STRUCTURE}))


def test_the_truncated_route_reads_no_laurent_class(monkeypatch):
    def laurent(*args, **kwargs):
        raise AssertionError("the truncated route evaluated a Laurent class")

    L, B2, F = E.Line("L"), E.Bundle("B2"), R.FSO
    identities = [E.Psi(1, F), E.Psi(1, E.Sum((L, F))), E.Psi(1, E.Psi(1, F)), E.Psi(1, B2),
                  E.Dual(E.Dual(F)), E.Dual(E.Dual(E.Sum((F, L)))), E.Dual(E.Dual(B2)),
                  E.Theta(2, E.Psi(1, L)), E.DetClass(E.Dual(E.Dual(E.Sum((L, B2))))),
                  # negative powers, built by the truncated route's own rule
                  E.Power(L, -3), E.Power(E.Dual(B2), -1), E.Power(E.Sum((L, B2)), -2),
                  E.Power(F, -1)]
    cases = [(lambda n=n: _opaque_context(n), e) for n in (1, 2)
             for e in _refused_exprs() + identities]
    rng = random.Random(0)
    cases += [(_opaque_law_context, SU.random_expr(rng)) for _ in range(1500)]
    want = _packed_outcomes(cases, (1, 2, 3, 4))
    monkeypatch.setattr(S, "eval_expr", laurent)
    assert _packed_outcomes(cases, (1, 2, 3, 4)) == want


def test_a_tampered_psi_rule_fails_the_oracle(monkeypatch):
    # psi^k - r = sum_j C(k, j) P_j; with C(k, j+1) the class is wrong from degree 1
    monkeypatch.setattr(S, "_binom", lambda k, j: comb(k, j + 1))
    ctx = _x_context(2)
    assert not _matches_laurent(E.Psi(2, E.Bundle("B2")), ctx, 3)
    assert not _matches_laurent(E.Psi(3, E.Line("L")), ctx, 3)


@pytest.mark.parametrize("cutoff", [2, 3])
def test_root_monomials_of_bundles_of_rank_ten_and_more_match_the_laurent_route(cutoff):
    # root variables sort by name, E.10 before E.2, in packed classes as in Laurent ones
    table = E.SymbolTable(space="X")
    table.declare_bundle("E", 10)
    table.declare_bundle("F", 11)
    ctx = S.SplitContext(table)
    b, f = E.Bundle("E"), E.Bundle("F")
    for e in (E.Power(b, 2), E.Theta(2, b), E.Tensor((b, f)), E.Psi(3, E.Sum((f, E.Dual(b))))):
        want = S.truncated_filtration(S.eval_expr(e, ctx), ctx.var_aug, cutoff)
        got = S.truncated_eval(e, ctx, cutoff)
        assert got == want and str(got) == str(want), E.print_expr(e)


# -- names of packed monomials --------------------------------------------------------

def test_packed_monomials_print_by_root_or_gamma_name():
    pk = S._Packing({"L": ("L",), "E": ("E.1",), "B": ("B.1", "B.2", "B.3")}, {}, 10)
    assert pk.text(0) == "1"
    assert pk.text(pk._e("E", 1)) == "E.1"
    m = 2 * pk._e("L", 1) + pk._e("B", 1) + 2 * pk._e("B", 3)
    assert pk.text(m) == "L^2*gamma^1(B)*gamma^3(B)^2"


def _monomials_below_the_cutoff(pk: S._Packing) -> list[int]:
    out = [0]
    for b, roots in pk.blocks.items():
        for k in range(1, len(roots) + 1):
            e = pk._e(b, k)
            out = [m + a * e for m in out for a in range(pk.cutoff) if m + a * e < pk.limit]
    return out


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_packed_monomial_texts_are_injective_below_the_cutoff(cutoff):
    for size in (1, 2, 3):
        for ranks in itertools.product(range(1, 5), repeat=size):
            blocks = {f"V{i}": [f"V{i}.{j}" for j in range(1, r + 1)] for i, r in enumerate(ranks)}
            pk = S._Packing(blocks, {}, cutoff)
            monomials = _monomials_below_the_cutoff(pk)
            assert len({pk.text(m) for m in monomials}) == len(monomials), ranks


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_unpacked_e_monomials_keep_their_degree_and_their_value_at_u_1(cutoff):
    # e_k of r roots is a sum of C(r, k) root monomials of degree k, each 1 at u = 1
    for size in (1, 2, 3):
        for ranks in itertools.product(range(1, 5), repeat=size):
            blocks = {f"V{i}": [f"V{i}.{j}" for j in range(1, r + 1)] for i, r in enumerate(ranks)}
            pk = S._Packing(blocks, {}, cutoff)
            mask = (1 << pk.width) - 1
            for m in _monomials_below_the_cutoff(pk):
                image = pk.unpack({m: 1}, None).terms
                assert {sum(e for _, e in x) for x in image} == {m >> pk.shift}, (ranks, pk.text(m))
                value = 1
                for b, roots in pk.blocks.items():
                    for k in range(1, len(roots) + 1):
                        value *= comb(len(roots), k) ** ((m >> (pk.offset[b] + (k - 1) * pk.width)) & mask)
                assert sum(image.values()) == value, (ranks, pk.text(m))


# -- the proof path ---------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(3, 5), (2, 7)])
@pytest.mark.parametrize("symbols", [{"L": 1}, {"E": 2}])
def test_the_chain_never_takes_the_laurent_route(monkeypatch, n, p, symbols):
    def laurent(*args, **kwargs):
        raise AssertionError("the chain evaluated a class by the Laurent route")

    monkeypatch.setattr(S, "theta_class", laurent)
    monkeypatch.setattr(S, "eval_expr", laurent)
    tr = R.verify_arr_identity(n, p, symbols=symbols)
    assert tr.verified, tr.failure
