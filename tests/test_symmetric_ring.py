"""The truncated ring in e-coordinates against the Laurent route.

`packed_eval` builds symbols, psi^k, duals and theta^k of split symbols
directly in the elementary symmetric functions e_1..e_r of each bundle's
u = x - 1 coordinates.  Unpacked into root monomials, every such class must
equal the full Laurent evaluation truncated afterwards,
`truncated_filtration(eval_expr(e), var_aug, cutoff)`.
"""

import itertools
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamsrr import expr as E
from adamsrr import rewrite as R
from adamsrr import splitting as S

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
    L, B2, B3 = E.Line("L"), E.Bundle("B2"), E.Bundle("B3")
    return [
        E.Theta(p, E.Sum((L, B2))),
        E.Theta(2, E.Tensor((L, B2))),
        E.Psi(p, E.Tensor((B2, E.Dual(B3)))),
        E.Psi(2, E.Power(B2, 2)),
        E.Psi(3, E.Sum((B3, E.Neg(L), E.IntConst(2)))),
        E.Dual(E.Sum((B2, E.Neg(L)))),
        E.Dual(E.Psi(3, B3)),
        E.Psi(2, E.Dual(E.Tensor((L, E.Bundle(OMEGA))))),
        # the Laurent fallback, reduced into e-coordinates over blocks of rank 2 and 3
        E.Tau(2, B3),
        E.DetClass(E.Sum((B2, B3))),
        E.Theta(2, E.Sum((B3, L))),
        E.Tensor((E.Power(E.DetClass(B3), -1), B2)),
        E.Theta(2, E.Tensor((B2, B3))),
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


@pytest.mark.parametrize("n,p", CASES)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pullbacks_through_the_reducers_match_the_laurent_route(n, p, rank):
    symbols = {"L": 1, "E": rank}
    geom = R.Geometry(n, p, symbols)
    geom_t = R.Geometry(n, p, {"g_" + name: rk for name, rk in symbols.items()}, suffix="T")
    geom_t.ctx_x.pull_reducers["gp"] = partial(R._gp_reduce, geom_t.table_x)
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
    for ctx, exprs in ((geom.ctx_x, on_x), (geom.ctx_xp, on_xp), (geom_t.ctx_x, on_t)):
        for e in exprs:
            for cutoff in range(1, n + 3):
                assert _matches_laurent(e, ctx, cutoff), (E.print_expr(e), cutoff)


def test_a_tampered_psi_rule_fails_the_oracle(monkeypatch):
    # psi^k - r = sum_j C(k, j) P_j; with C(k, j+1) the class is wrong from degree 1
    monkeypatch.setattr(S, "_binom", lambda k, j: comb(k, j + 1))
    ctx = _x_context(2)
    assert not _matches_laurent(E.Psi(2, E.Bundle("B2")), ctx, 3)
    assert not _matches_laurent(E.Psi(3, E.Line("L")), ctx, 3)


def test_a_class_not_symmetric_in_a_block_is_refused():
    ctx = _x_context(1)
    pk = S.packed_eval(E.UNIT, ctx, 3).space
    first_root = 1 << pk.root_offset["B2.1"] | 1 << pk.shift
    with pytest.raises(S.EvalError):
        pk.from_roots({first_root: 1})
    with pytest.raises(S.EvalError):  # a full orbit, with unequal coefficients
        pk.from_roots({first_root: 1, 1 << pk.root_offset["B2.2"] | 1 << pk.shift: 2})


# -- unpack and reduce are inverse ----------------------------------------------------

@st.composite
def _symmetric_classes(draw, wide: bool = False):
    """A packing with blocks of rank 0 to 4 and a random class in its e-coordinates.

    With `wide`, the last block has rank 2 to 4 and the cutoff is at least 2.
    """
    ranks = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    if wide:
        ranks.append(draw(st.integers(2, 4)))
    cutoff = draw(st.integers(2 if wide else 1, 6))
    blocks = {f"V{i}": [f"V{i}.{j}" for j in range(1, r + 1)] for i, r in enumerate(ranks)}
    pk = S._Packing(blocks, {}, cutoff)
    fields = [(b, k) for b, roots in pk.blocks.items() for k in range(1, len(roots) + 1)]
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        m = 0
        for b, k in fields:
            for _ in range(draw(st.integers(0, 2))):
                m += pk._e(b, k)
        if m < pk.limit:
            terms[m] = terms.get(m, 0) + draw(st.integers(-5, 5).filter(bool))
    return pk, {m: c for m, c in terms.items() if c}


@settings(max_examples=150, deadline=None)
@given(_symmetric_classes())
def test_unpacking_then_reducing_is_the_identity(case):
    pk, terms = case
    assert pk.from_roots(pk.to_roots(terms)) == terms


@st.composite
def _symmetric_classes_and_a_stray_monomial(draw):
    """A symmetric class in a root basis, and a root monomial with unequal exponents in a block."""
    pk, terms = draw(_symmetric_classes(wide=True))
    roots = draw(st.sampled_from([roots for roots in pk.blocks.values() if len(roots) > 1]))
    exps = [0] * len(roots)
    for i in draw(st.lists(st.integers(0, len(roots) - 1), min_size=1, max_size=pk.cutoff - 1)):
        exps[i] += 1
    if len(set(exps)) == 1:
        exps[0], exps[1] = exps[0] - 1, exps[1] + 1
    stray = sum(e << pk.root_offset[v] for v, e in zip(roots, exps)) | sum(exps) << pk.shift
    return pk, pk.to_roots(terms), stray, draw(st.integers(-5, 5).filter(bool))


@settings(max_examples=150, deadline=None)
@given(_symmetric_classes_and_a_stray_monomial())
def test_a_symmetric_class_plus_an_unsymmetric_monomial_is_refused(case):
    pk, roots, stray, c = case
    roots = {**roots, stray: roots.get(stray, 0) + c}
    with pytest.raises(S.EvalError):
        pk.from_roots({m: k for m, k in roots.items() if k})


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
