"""The packed det-line invariant against the root-basis route it replaced.

Det slots hold `Morphism.truncated(e)`: the class of e modulo I^(n+2) keyed by
the packed monomials of the upstairs context, and grades are read from its
degree field, each packed monomial named as it is.  Every det argument that
the chain, the square and the Knudsen-Mumford expansion build is checked here
against a full Laurent evaluation truncated afterwards, and the grade of its
det atom, unpacked here into root monomials, against the old
`degrees(high=n+1)` filter on that evaluation.
"""

import pytest

from adamsrr import expr as E
from adamsrr import picard as P
from adamsrr import rewrite as R
from adamsrr import splitting as S
from adamsrr.cli import main

# (3, 5) is left out: its full Laurent evaluations take about 85 s, against
# about 10 s for every other case together
CASES = [(kind, n, p, rank)
         for kind in ("chain", "square", "km")
         for n in (0, 1, 2, 3)
         for p in (2, 3, 5) if (n, p) != (3, 5)
         for rank in ((1,) if kind == "km" else (1, 2))]


def _run(kind, n, p, rank):
    symbols = {"L": 1} if rank == 1 else {"E": rank}
    if kind == "chain":
        return R.verify_arr_identity(n, p, symbols=symbols)
    if kind == "square":
        return R.verify_base_change(n, p, symbols=symbols)
    return R.knudsen_mumford_expansion(n, p).trace


def _record(monkeypatch):
    """Collect each (morphism, argument) whose invariant is computed."""
    invariants = {}
    truncated = P.Morphism.truncated

    def record_truncated(f, e):
        lam = truncated(f, e)
        invariants[(id(f.upstairs), f.name, e)] = (f, e, lam)
        return lam

    monkeypatch.setattr(P.Morphism, "truncated", record_truncated)
    return invariants


def _chi(f: P.Morphism, texts: dict[str, object]) -> S.SplitClass:
    """The grade sum_m c*chi[f](m) over monomial texts m."""
    return S.SplitClass({((f"chi[{f.name}]({m})", 1),): c for m, c in texts.items()})


@pytest.mark.parametrize("kind,n,p,rank", CASES)
def test_packed_invariants_and_grades_match_the_root_basis_route(monkeypatch, kind, n, p, rank):
    invariants = _record(monkeypatch)
    trace = _run(kind, n, p, rank)
    monkeypatch.undo()
    assert trace.verified, trace.failure
    assert invariants
    for f, e, lam in invariants.values():
        ctx, pk = f.upstairs, lam.space
        want = S.truncated_filtration(S.eval_expr(e, ctx), ctx.var_aug, f.rel_dim + 2)
        assert lam.space.unpack(lam.terms, ctx.space) == want, E.print_expr(e)
        low = {m: c for m, c in lam.terms.items() if m >> pk.shift <= f.rel_dim}
        # unpacked into root monomials, the grade's terms are the root-basis route's:
        # chi[f](m) over degree <= n of the class
        unpacked = _chi(f, {S.monomial_text(x): c for x, c in pk.unpack(low, None).terms.items()})
        old = _chi(f, {S.monomial_text(m): c
                       for m, c in want.degrees(high=f.rel_dim + 1).terms.items()})
        assert str(unpacked) == str(old) and unpacked == old, E.print_expr(e)
        # and the det atom's grade names those same terms by their packed monomials
        grade = P.det_rf_atom(f, e).grade
        named = _chi(f, {pk.text(m): c for m, c in low.items()})
        assert str(grade) == str(named) and grade == named, E.print_expr(e)


# -- the proof path names grades without unpacking them ----------------------------

def _refuse_unpacking(monkeypatch):
    def unpack(*args, **kwargs):
        raise AssertionError("unpacked a packed class into root monomials")

    monkeypatch.setattr(S._Packing, "unpack", unpack)


@pytest.mark.parametrize("kind,rank", [("chain", 1), ("chain", 2), ("chain", 3),
                                       ("square", 1), ("square", 2), ("square", 3), ("km", 1)])
def test_the_proof_path_never_unpacks_into_root_monomials(monkeypatch, kind, rank):
    _refuse_unpacking(monkeypatch)
    trace = _run(kind, 3, 2, rank)
    assert trace.verified, trace.failure


def test_normalize_over_a_rank_3_bundle_never_unpacks(monkeypatch, capsys, tmp_path):
    decls = tmp_path / "decls.txt"
    decls.write_text("bundle H0 rank 2;\nbundle H1 rank 2;\nbundle H rank 3;\nmorphism f dim 2;\n")
    _refuse_unpacking(monkeypatch)
    assert main(["normalize", "det_rf(f, (H0-H1) (x) H) (x) det_rf(f, psi(2, H))^2",
                 "--decls", str(decls)]) == 0
    # psi^2(H) = 3 + 2 e_1 + e_1^2 - 2 e_2 in the e_k of H's u = x - 1, below degree 3
    out = capsys.readouterr().out
    assert "+ 2*chi[f](gamma^1(H)^2)" in out and "- 4*chi[f](gamma^2(H))" in out


def test_the_n9_chain_verifies_with_a_small_trace():
    trace = R.verify_arr_identity(9, 2)
    assert trace.verified, trace.failure
    assert len(R.emit_trace(trace, "json").encode()) < 100_000


# -- packings do not mix ---------------------------------------------------------

def test_invariants_of_two_packings_raise_context_mismatch():
    geom = R.Geometry(1, 2, {"L": 1})
    over_x = geom.f.truncated(E.Line("L"))
    over_xp = geom.fp.truncated(E.Line("J_L"))
    other_cutoff = S.packed_eval(E.Line("L"), geom.ctx_x, 4)
    assert over_x.space is not over_xp.space and over_x.space is not other_cutoff.space
    for a, b in ((over_x, over_xp), (over_x, other_cutoff)):
        with pytest.raises(S.ContextMismatch):
            a == b
        with pytest.raises(S.ContextMismatch):
            a + b
    # one packing, or an untagged class, still compares and adds
    assert over_x == geom.f.truncated(E.Line("L")) and over_x != S.SplitClass()
    assert (over_x + (-over_x)).is_zero()


def test_lines_over_two_contexts_of_one_name_do_not_mix():
    table = E.SymbolTable(space="X")
    table.declare_line("L")
    a = P.det_rf_atom(P.make_morphism("f", 1, table), E.Line("L"))
    b = P.det_rf_atom(P.make_morphism("f", 1, table), E.Line("L"))
    with pytest.raises(S.ContextMismatch):
        a * b


def test_repack_renames_fields_into_another_packing():
    geom = R.Geometry(2, 3, {"E": 2})
    e = E.Tensor((E.Bundle("E"), E.Psi(3, E.Bundle(R.OMEGA))))
    j_e = E.canonicalize(S.pull_back(geom.name_J, e, geom.ctx_xp))
    twisted = geom.fp.truncated(j_e)
    assert S.repack(geom.f.truncated(e), geom.twist, twisted.space) == twisted
    with pytest.raises(S.ContextMismatch):
        S.repack(geom.f.truncated(e), geom.twist, S.packed_eval(j_e, geom.ctx_xp, 3).space)


def test_packed_classes_print_their_e_monomials(monkeypatch):
    _refuse_unpacking(monkeypatch)
    geom = R.Geometry(1, 2, {"L": 1})
    lam = geom.f.truncated(E.Line("L"))
    assert repr(lam) == "SplitClass(1 + L)"
    geom = R.Geometry(2, 3, {"E": 2})
    e = E.Tensor((E.Bundle("E"), E.Psi(3, E.Bundle(R.OMEGA))))
    lam = geom.f.truncated(e)
    # two wide blocks, e_k of each named gamma^k, in packed order: weighted degree first
    assert str(lam) == ("4 + 2*gamma^1(E) + 6*gamma^1(Omega_f) + 3*gamma^1(E)*gamma^1(Omega_f)"
                        " + 6*gamma^1(Omega_f)^2 - 12*gamma^2(Omega_f)"
                        " + 3*gamma^1(E)*gamma^1(Omega_f)^2 + 2*gamma^1(Omega_f)^3"
                        " - 6*gamma^1(E)*gamma^2(Omega_f) - 6*gamma^1(Omega_f)*gamma^2(Omega_f)")
    assert lam.term_texts() == [(lam.space.text(m), lam.terms[m]) for m in sorted(lam.terms)]
