"""Rewrite engine: rule set, chain replay, base change, lambda expansion, traces."""

import ast
import gc
import inspect
import json
import re
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from adamsrr import expr as E
from adamsrr import picard as P
from adamsrr import rewrite as R
from adamsrr import splitting as S
from adamsrr.rewrite import (
    CHAIN_RULES, FSO, Geometry, OMEGA, _rank_zero_summand, _wrapper_move_condition, emit_trace,
    is_prime, knudsen_mumford_expansion, parse_trace_json, revalidate_trace, rule_set,
    verify_base_change, verify_arr_identity,
)


# -- geometry and rules -----------------------------------------------------------

def test_rule_set_contains_the_cited_rules():
    rules = rule_set(1, 2)
    assert set(rules) == {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "KEQ"}
    assert all(rules[name].anchor for name in rules)


def test_rule_set_requires_prime():
    with pytest.raises(Exception):
        Geometry(1, 4)


def test_r5_rewrites_pushed_structure_to_bott_class():
    geom = Geometry(2, 3)
    got = S.pull_back(geom.name_F, FSO, geom.ctx_x)
    assert got == E.Theta(3, E.Bundle(OMEGA))
    # the Bott class has the right rank p^n
    assert E.rank(got, geom.table_x) == 3**2


def test_frobenius_reduce_composes_through_twist_symbols():
    geom = Geometry(1, 2, {"L": 1})
    got = S.pull_back(geom.name_F, E.Line("J_L"), geom.ctx_x)
    assert got == E.Psi(2, E.Line("L"))


def test_r3_summand_is_trivial_at_n_plus_2_and_not_below():
    geom = Geometry(1, 2, {"L": 1})
    arg = E.Line("J_L")
    diff = E.Sum((FSO, E.Neg(E.IntConst(2))))
    assert not P.argument_is_trivial(geom.fp, E.Tensor((E.Power(diff, geom.n + 1), arg)))
    inserted, conds = _rank_zero_summand(geom, arg)
    assert inserted == E.Tensor((E.Power(diff, geom.n + 2), arg))
    assert all(h for _, h in conds)
    gl = P.det_rf_atom(geom.fp, arg)
    assert gl * P.det_rf_atom(geom.fp, inserted) == gl  # det-trivial summand


@pytest.mark.parametrize("n,p", [(0, 2), (1, 2), (3, 5), (4, 2)])
def test_r3_rank_condition_reads_the_frobenius_image(n, p):
    # the rank of F_*O_X is the constant term of its F-image theta^p(Omega_f),
    # computed in the truncated ring; an image of rank p^(n+1) fails it
    holds = []
    for image in (E.Bundle(OMEGA), E.Sum((E.Bundle(OMEGA), E.UNIT))):
        geom = Geometry(n, p, {"L": 1})
        geom.ctx_x.pullbacks[geom.name_F][R.PUSHED_STRUCTURE] = E.Theta(p, image)
        (name, ok), *_ = _rank_zero_summand(geom, E.Line("J_L"))[1]
        assert "declared rank p^n" in name
        holds.append(ok)
    assert holds == [True, False]


def test_wrapper_move_condition_sees_exponent_and_argument():
    # psi^2(det_rf[f](L))^8 -> det_rf[f](L)^16 keeps the argument and scales the
    # class by 2; one power more or less, or another argument, does not
    geom = Geometry(1, 2, {"L": 1, "M": 1})
    before = P.psi_line(2, P.det_rf_atom(geom.f, E.Line("L"))) ** 8
    for arg, exp, holds in [("L", 16, True), ("L", 15, False), ("L", 17, False),
                            ("M", 16, False)]:
        after = P.det_rf_atom(geom.f, E.Line(arg)) ** exp
        name, ok = _wrapper_move_condition(before, after, 2)
        assert name == "wrapper move keeps the argument and scales the det class by 2"
        assert ok is holds, (arg, exp)
        # and back, by 1/2
        name, ok = _wrapper_move_condition(after, before, Fraction(1, 2))
        assert name == "wrapper move keeps the argument and scales the det class by 1/2"
        assert ok is holds, (arg, exp)
    # a move that keeps the power scales by 1
    after = P.det_rf_atom(geom.f, E.Line("L"), (("detpull", "F_S"),)) ** 8
    assert _wrapper_move_condition(before, after) == (
        "wrapper move keeps the argument and scales the det class by 1", True)
    assert not _wrapper_move_condition(before, after ** 2)[1]


def test_step1_wrong_exponent_fails_at_its_own_step(monkeypatch):
    # step (1) writing det[F_S^* Rf_*](L)^(exp+1): the det slot's class carries
    # the exponent, and the move states it is kept
    power = P.GradedLine.power

    def one_more_after_step1(gl, k):
        moved = any(("detpull", "F_S") in wrappers for wrappers, _ in gl.dets)
        return power(gl, k + 1 if moved else k)

    monkeypatch.setattr(P.GradedLine, "__pow__", one_more_after_step1)
    tr = verify_arr_identity(1, 2)
    assert tr.status == "failed"
    assert tr.failed_step == 0
    assert tr.failure == ("side condition failed: "
                          "wrapper move keeps the argument and scales the det class by 1")


@pytest.mark.parametrize("step,index,factor", [("(10)", 0, "2"), ("(13)", 3, "1/2")])
@pytest.mark.parametrize("off", [-1, 1])
def test_a_wrong_power_in_the_square_fails_at_its_own_step(monkeypatch, step, index, factor, off):
    # (10) writes g^*(det_rf[f](L))^(p*m) and (13) psi^p(det_rf[fT](g_L))^m, each off by one
    power = P.GradedLine.power
    moved = {"(10)": ((("pull", "g"),), "f"), "(13)": ((("psi", 2),), "fT")}[step]

    def off_by_one(gl, k):
        hit = any((wrappers, f.name) == moved for wrappers, f in gl.dets)
        return power(gl, k + off if hit else k)

    monkeypatch.setattr(P.GradedLine, "__pow__", off_by_one)
    tr = verify_base_change(1, 2)
    assert tr.status == "failed"
    assert (tr.failed_step, tr.steps[-1].label) == (index, step)
    assert tr.failure == ("side condition failed: "
                          f"wrapper move keeps the argument and scales the det class by {factor}")


# -- theorem (I) --------------------------------------------------------------------

def test_theorem_replay_line_n1_p2():
    tr = verify_arr_identity(1, 2)
    assert tr.verified
    assert len(tr.steps) == 9
    assert [s.label for s in tr.steps] == [f"({i})" for i in range(1, 10)]
    assert all(s.ok() for s in tr.steps)


def test_theorem_replay_bundle_n2_p3():
    tr = verify_arr_identity(2, 3, E.Bundle("E"), {"E": 2})
    assert tr.verified
    assert len(tr.steps) == 9


def test_theorem_replay_steps_chain():
    tr = verify_arr_identity(1, 3)
    for a, b in zip(tr.steps, tr.steps[1:]):
        assert a.after == b.before


def test_theorem_replay_cites_expected_rules():
    tr = verify_arr_identity(1, 2)
    cited = [s.rule for s in tr.steps]
    assert cited[0] == "R1,R2"
    assert cited[1] == "R2"
    assert cited[2] == "R3,R8"
    assert cited[5] == "R4"
    assert cited[6] == "R9,R6"
    assert cited[7] == "R5,R1"


def test_tampered_r5_fails_at_its_step():
    rules = rule_set(1, 2)
    rules["R5"] = replace(rules["R5"],
                          action=lambda: E.Tensor((E.Theta(2, E.Bundle(OMEGA)),
                                                   E.Line("L"))))
    tr = verify_arr_identity(1, 2, rules=rules)
    assert tr.status == "failed"
    assert "R5" in tr.steps[tr.failed_step].rule
    assert tr.steps[tr.failed_step].label == "(8)"


def test_a_renaming_that_is_not_j_pullback_fails_at_its_own_step():
    # step (2) repacks by `twist`; the J^* table registered on X' is the ground
    # truth, so swapping two lines in the renaming fails step (2) and no other
    symbols = {"L": 1, "M": 1}
    assert verify_arr_identity(1, 2, symbols=symbols, geometry=Geometry(1, 2, symbols)).verified
    geom = Geometry(1, 2, symbols)
    geom.twist["L"], geom.twist["M"] = geom.twist["M"], geom.twist["L"]
    tr = verify_arr_identity(1, 2, symbols=symbols, geometry=geom)
    assert tr.status == "failed" and tr.failed_step == 1
    assert "twist-side argument is the J-pullback of the original" in tr.failure


@pytest.mark.parametrize("n,p", [(1, 2), (2, 3), (3, 2)])
def test_dualized_projection_formula_fails_at_its_step(n, p):
    # R4 tampered to emit F^*(dual W) in place of F^*(W)
    rules = rule_set(n, p)
    rules["R4"] = replace(rules["R4"], action=lambda morphism, w: E.Pull(morphism, E.Dual(w)))
    tr = verify_arr_identity(n, p, rules=rules)
    assert tr.status == "failed"
    assert tr.failed_step == 5
    assert tr.steps[5].label == "(6)"
    assert "theta^p(Omega_f) (x) F^*W" in tr.failure


RUNS = {"chain": verify_arr_identity, "square": verify_base_change}
# labels of the failing step that the derivation below must agree with (None: verifies)
PINNED = {("chain", "R7"): None, ("square", "R1"): "(10)", ("square", "R2"): "(11)",
          ("square", "R3"): "right", ("square", "R7"): "bottom(4)"}


@pytest.mark.parametrize("target,name", [(t, name) for t in RUNS for name in rule_set(1, 2)],
                         ids=lambda v: v)
def test_missing_rule_fails_cleanly(target, name):
    # a dropped rule fails at the first step citing it; an edge citing the whole
    # chain cites every rule the chain's own steps cite
    full = RUNS[target](1, 2)
    chain_rules = {r for s in verify_arr_identity(1, 2).steps for r in s.rule.split(",")}
    cited = [chain_rules if s.rule == CHAIN_RULES else set(s.rule.split(","))
             for s in full.steps]
    want = next((i for i, c in enumerate(cited) if name in c), None)
    if (target, name) in PINNED:
        assert (None if want is None else full.steps[want].label) == PINNED[target, name]
    rules = rule_set(1, 2)
    del rules[name]
    tr = RUNS[target](1, 2, rules=rules)
    if want is None:
        assert tr.verified, tr.failure
        return
    assert tr.status == "failed"
    assert tr.failed_step == want
    assert tr.steps[want].label == full.steps[want].label
    if full.steps[want].rule == CHAIN_RULES:
        assert "theorem (I) verified" in tr.failure
    else:
        assert tr.failure == f"rule {name} is not in the active rule set"
    assert revalidate_trace(parse_trace_json(emit_trace(tr, "json")))


def test_stubbed_binomial_oracle_fails_the_chain(monkeypatch):
    real = S.binomial_identity_check

    def bad_oracle(n, p):
        w = real(n, p)
        w.ok = False
        return w

    monkeypatch.setattr(S, "binomial_identity_check", bad_oracle)
    tr = verify_arr_identity(1, 2)
    assert tr.status == "failed"
    assert tr.steps[tr.failed_step].label == "(4)"


@pytest.mark.parametrize("n,p", [(1, 2), (2, 3)])
def test_a_wrong_tilde_fails_at_the_binomial_step(monkeypatch, n, p):
    # the goal and the step-(4) witness read the one tilde, so a tilde with
    # one extra top term fails at (4), not at the fold of step (9)
    right = S.tilde_inverse_expr

    def wrong(n_, p_, base):
        return E.canonicalize(E.Sum((right(n_, p_, base), E.Power(base, n_ + 2))))

    monkeypatch.setattr(S, "tilde_inverse_expr", wrong)
    tr = verify_arr_identity(n, p)
    assert tr.status == "failed"
    assert tr.failed_step == 3 and tr.steps[3].label == "(4)"
    assert dict(tr.steps[3].conditions)["argument classes equal (split-engine identity)"]


def test_every_step_records_at_least_one_condition():
    traces = [verify_arr_identity(2, 2), verify_base_change(1, 2), verify_base_change(2, 3),
              knudsen_mumford_expansion(1, 2).trace, knudsen_mumford_expansion(2, 3).trace]
    for tr in traces:
        assert tr.verified, tr.failure
        assert all(s.conditions for s in tr.steps), tr.goal_lhs


def test_no_condition_is_a_literal_true():
    # a recorded side condition is computed: no (text, True) pair in the engine
    def is_text(node):
        return isinstance(node, ast.JoinedStr) or (
            isinstance(node, ast.Constant) and isinstance(node.value, str))

    literal = [node.lineno for node in ast.walk(ast.parse(inspect.getsource(R)))
               if isinstance(node, ast.Tuple) and len(node.elts) == 2
               and is_text(node.elts[0])
               and isinstance(node.elts[1], ast.Constant) and node.elts[1].value is True]
    assert literal == []


def _tilde_reference(n, p, x):
    """The tilde built by class arithmetic on x."""
    total = x * 0
    for i in range(n + 2):
        total = total + x ** (n + 1 - i) * (comb(n + 2, i) * (-(p**n)) ** i)
    return total * (-1) ** (n + 1)


def test_tilde_expr_matches_polynomial_kernel():
    # the one tilde expression evaluates to the class arithmetic's tilde
    for n, p in [(0, 2), (1, 2), (2, 3)]:
        geom = Geometry(n, p)
        theta = E.Theta(p, E.Bundle(OMEGA))
        ast_val = S.eval_expr(S.tilde_inverse_expr(n, p, theta), geom.ctx_x)
        ring_val = _tilde_reference(n, p, S.eval_expr(theta, geom.ctx_x))
        assert S.classes_equal(ast_val, ring_val), (n, p)


def test_trivial_summand_reduction_is_order_independent():
    # normalize sees the rank-zero-power summands in either order
    geom = Geometry(1, 2, {"L": 1})
    j_l = E.Line("J_L")
    diff = E.Sum((FSO, E.Neg(E.IntConst(2))))
    t1 = E.Tensor((E.Power(diff, 3), j_l))
    t2 = E.Tensor((E.Power(diff, 4), j_l))
    core = E.Tensor((E.IntConst(8), j_l))
    a = P.normalize(P.det_rf_atom(geom.fp, E.Sum((core, t1, t2))))
    b = P.normalize(P.det_rf_atom(geom.fp, E.Sum((t2, core, t1))))
    c = P.normalize(P.det_rf_atom(geom.fp, core))
    assert a == b
    assert a == c


# -- theorem (II) ----------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_base_change_square_commutes(n, p):
    tr = verify_base_change(n, p)
    assert tr.verified, tr.failure


def test_base_change_square_rank3_bundle():
    tr = verify_base_change(2, 2, E.Bundle("E"), {"E": 3})
    assert tr.verified


def test_base_change_top_edge_step_labels():
    tr = verify_base_change(1, 2)
    labels = [s.label for s in tr.steps]
    for want in ("(10)", "(11)", "(12)", "(13)", "right", "left", "square"):
        assert want in labels


def test_ablating_r7_breaks_the_bottom_edge():
    rules = rule_set(1, 2)
    del rules["R7"]
    tr = verify_base_change(1, 2, rules=rules)
    assert tr.status == "failed"
    assert "R7" in tr.failure


@pytest.mark.parametrize("n,p,symbols", [(1, 2, {"L": 1}), (2, 3, {"L": 1}), (2, 2, {"E": 2})])
def test_dualized_base_change_fails_at_its_edge(n, p, symbols):
    # R2 tampered to pull back the dual along g': the class check of bottom(2)
    # compares it with the original argument renamed into the pulled-back family
    rules = rule_set(n, p)
    rules["R2"] = replace(rules["R2"], action=lambda morphism, w: E.Pull(morphism, E.Dual(w)))
    tr = verify_base_change(n, p, symbols=symbols, rules=rules)
    assert tr.status == "failed"
    assert tr.steps[tr.failed_step].label == "bottom(2)"
    assert "g'-pullback of the original" in tr.failure


def test_right_edge_fails_when_the_replayed_chain_starts_elsewhere(monkeypatch):
    # the right edge must start where the chain it replays over f_T starts
    real = R.verify_arr_identity

    def shifted(*args, **kwargs):
        tr = real(*args, **kwargs)
        return replace(tr, goal_lhs=tr.goal_lhs + " (x) 1")

    monkeypatch.setattr(R, "verify_arr_identity", shifted)
    tr = verify_base_change(1, 2)
    assert tr.status == "failed"
    assert tr.failed_step == 4
    assert tr.steps[4].label == "right"
    assert tr.failure == "side condition failed: edge starts at the replayed chain's left side"


def test_verdicts_free_their_contexts_without_the_cycle_collector():
    # no pullback table, traversal or step closure refers back to its Geometry, so a
    # verdict's SplitContexts are freed by reference counting alone
    def live_contexts():
        return sum(isinstance(o, S.SplitContext) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_contexts()
        assert verify_arr_identity(2, 3, symbols={"E": 2}).verified
        assert verify_arr_identity(3, 2).verified
        assert live_contexts() == before
        assert verify_base_change(1, 2).verified
        assert live_contexts() == before
    finally:
        gc.enable()


# -- lambda expansion --------------------------------------------------------------------

def test_km_exponents_n1_p2():
    km = knudsen_mumford_expansion(1, 2)
    assert km.verified
    assert km.exponents == [1, 6, 12]
    assert km.left_exponent == 16


def test_km_exponents_n2_p2():
    km = knudsen_mumford_expansion(2, 2)
    assert km.verified
    assert km.exponents == [1, 16, 96, 256]
    assert km.left_exponent == 2 ** (2 * 4 + 1)


def test_km_exponents_n1_p3():
    km = knudsen_mumford_expansion(1, 3)
    assert km.verified
    assert km.exponents == [comb(3, i) * 3**i for i in range(3)]
    assert km.left_exponent == 3**4


def test_km_lambda_factors_render():
    km = knudsen_mumford_expansion(1, 2)
    assert len(km.lambda_factors) == 3
    assert any("theta(2, Omega_f)^2" in s for s in km.lambda_factors)
    assert any("L^4" in s for s in km.lambda_factors)


# -- trace emission -------------------------------------------------------------------------

def test_emit_trace_json_schema_and_roundtrip():
    tr = verify_arr_identity(1, 2)
    doc = json.loads(emit_trace(tr, "json"))
    assert doc["status"] == "verified"
    assert doc["params"] == {"n": 1, "p": 2}
    assert set(doc["goal"]) == {"lhs", "rhs"}
    assert len(doc["steps"]) == 9
    for step in doc["steps"]:
        assert {"rule", "anchor", "before", "after", "conditions"} <= set(step)
        for cond in step["conditions"]:
            assert set(cond) == {"name", "holds"}
    back = parse_trace_json(emit_trace(tr, "json"))
    assert revalidate_trace(back)
    assert emit_trace(back, "json") == emit_trace(tr, "json")


def test_emit_trace_failed_carries_step_index():
    rules = rule_set(1, 2)
    del rules["R7"]
    tr = verify_base_change(1, 2, rules=rules)
    doc = json.loads(emit_trace(tr, "json"))
    assert doc["status"] == "failed"
    assert isinstance(doc["failed_step"], int)
    assert revalidate_trace(parse_trace_json(emit_trace(tr, "json")))


def test_emit_trace_text_numbers_steps():
    text = emit_trace(verify_arr_identity(1, 2), "text")
    for i in range(1, 10):
        assert f"({i})" in text
    assert "status: verified" in text


def _schema_document(tr):
    """What the JSON trace holds, as the dict that `json.dumps(indent=2)` writes: the oracle."""
    doc = {
        "goal": {"lhs": tr.goal_lhs, "rhs": tr.goal_rhs},
        "params": {"n": tr.n, "p": tr.p},
        "steps": [{"label": s.label, "rule": s.rule, "anchor": s.anchor, "before": s.before,
                   "after": s.after,
                   "conditions": [{"name": c, "holds": h} for c, h in s.conditions]}
                  for s in tr.steps],
        "status": tr.status,
    }
    if tr.failed_step is not None:
        doc["failed_step"] = tr.failed_step
        doc["failure"] = tr.failure
    return doc


ODD_TEXT = ['say "hi"', "back\\slash \\n", "tab\tline\nnul\x00 us\x1f del\x7f", "\u03b3^2(E)",
            "\u2028 \ud83d\ude00 \U0001d4aa", "", "/"]


def test_the_json_writer_writes_what_json_dumps_writes(monkeypatch):
    traces = [verify_arr_identity(2, 3), verify_base_change(1, 2),
              knudsen_mumford_expansion(1, 2).trace]
    # failed: a tampered rule in the chain, a missing one in the square, a stubbed
    # binomial oracle under KM
    rules = rule_set(1, 2)
    rules["R5"] = replace(rules["R5"], action=lambda: E.Line("L"))
    traces.append(verify_arr_identity(1, 2, rules=rules))
    rules = rule_set(1, 2)
    del rules["R7"]
    traces.append(verify_base_change(1, 2, rules=rules))
    real = S.binomial_identity_check

    def bad_oracle(n, p):
        w = real(n, p)
        w.ok = False
        return w

    with monkeypatch.context() as m:
        m.setattr(S, "binomial_identity_check", bad_oracle)
        traces.append(knudsen_mumford_expansion(1, 2).trace)
    assert [tr.status for tr in traces] == ["verified"] * 3 + ["failed"] * 3
    # tampered after the run: a form edited, a condition flipped, the status claimed
    for tr in traces[:6]:
        steps = [replace(s, after=s.after + " (x) L", conditions=[("edited", False)])
                 if i == 1 else s for i, s in enumerate(tr.steps)]
        traces.append(replace(tr, steps=steps, status="verified"))
    # no steps; a step with no conditions; a failure; strings JSON must escape
    odd = [R.TraceStep(t, t, t, t, t, t, [(t, True), (t, False)]) for t in ODD_TEXT]
    bare = R.TraceStep("(1)", "-", "-", "", "A", "B", [])
    traces += [R.ProofTrace("A", "B", 0, 2),
               R.ProofTrace("A", "B", 1, 3, [bare]),
               R.ProofTrace("A", "B", 1, 3, [bare], "failed", 0,
                            'side condition failed: "\u03b3" \\ \t'),
               R.ProofTrace(ODD_TEXT[3], ODD_TEXT[4], 10**30, -7, odd, ODD_TEXT[2], 6,
                            ODD_TEXT[0])]
    for tr in traces:
        text = emit_trace(tr, "json")
        assert text == json.dumps(_schema_document(tr), indent=2)
        if tr.status not in ("verified", "failed"):  # the odd status is written, not read back
            with pytest.raises(R.VerifierError, match="trace field status"):
                parse_trace_json(text)
            continue
        if tr.verified and tr.failed_step is not None:  # so is a claimed status over a failure
            with pytest.raises(R.VerifierError, match="failed_step and failure belong"):
                parse_trace_json(text)
            continue
        assert emit_trace(parse_trace_json(text), "json") == text
    with pytest.raises(TypeError, match="not a JSON scalar"):
        emit_trace(R.ProofTrace("A", "B", 1.0, 2), "json")


def test_an_ill_typed_trace_is_refused_by_field():
    good = json.loads(emit_trace(verify_arr_identity(1, 2), "json"))
    # goal sides a number and a list, n a string, p null, a condition holding 1
    bad = json.loads(json.dumps(good))
    bad["goal"] = {"lhs": 1, "rhs": [2]}
    bad["params"] = {"n": "1", "p": None}
    bad["steps"][0]["conditions"][0]["holds"] = 1
    with pytest.raises(R.VerifierError, match="goal.lhs"):
        parse_trace_json(json.dumps(bad))
    edits = [(("goal", "rhs"), [2]), (("params", "n"), "1"), (("params", "p"), None),
             (("params", "p"), True), (("steps", 2, "label"), 3), (("steps", 2, "rule"), None),
             (("steps", 2, "anchor"), 1.5), (("steps", 2, "before"), ["A"]),
             (("steps", 2, "after"), {}), (("steps", 0, "conditions", 0, "name"), 0),
             (("steps", 0, "conditions", 0, "holds"), 1), (("status",), "maybe"),
             (("status",), False), (("failed_step",), "3"), (("failed_step",), True)]
    for path, value in edits:
        doc = json.loads(json.dumps(good))
        at = doc
        for key in path[:-1]:
            at = at[key]
        at[path[-1]] = value
        name = re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, path)))  # steps[2].label
        with pytest.raises(R.VerifierError, match=re.escape(name)):
            parse_trace_json(json.dumps(doc))
    assert emit_trace(parse_trace_json(json.dumps(good)), "json") == json.dumps(good, indent=2)


_DROP = object()  # a key the edit deletes


@pytest.fixture(scope="module")
def good_trace():
    return emit_trace(verify_arr_identity(1, 2), "json")


@pytest.mark.parametrize("edit,message", [
    ("{", "a trace is not JSON"),
    ("", "a trace is not JSON"),
    ('{"goal": {"lhs": "A", "rhs": "B"}}} ', "a trace is not JSON"),
    pytest.param("[" * 100_000, "a trace is not JSON", id="nested-too-deep"),
    (((), [1]), "trace field document is a list, not a dict"),
    (((), "x"), "trace field document is a str, not a dict"),
    ((("goal",), [1]), "trace field goal is a list, not a dict"),
    ((("params",), "x"), "trace field params is a str, not a dict"),
    ((("steps",), 5), "trace field steps is a int, not a list"),
    ((("steps",), {}), "trace field steps is a dict, not a list"),
    ((("steps", 0), 3), r"trace field steps\[0\] is a int, not a dict"),
    ((("steps", 1, "conditions"), 5), r"trace field steps\[1\].conditions is a int, not a list"),
    ((("steps", 1, "conditions", 0), []),
     r"trace field steps\[1\].conditions\[0\] is a list, not a dict"),
    ((("goal",), _DROP), "trace field goal is missing"),
    ((("goal", "lhs"), _DROP), "trace field goal.lhs is missing"),
    ((("params",), _DROP), "trace field params is missing"),
    ((("params", "p"), _DROP), "trace field params.p is missing"),
    ((("steps",), _DROP), "trace field steps is missing"),
    ((("steps", 2, "rule"), _DROP), r"trace field steps\[2\].rule is missing"),
    ((("steps", 2, "after"), _DROP), r"trace field steps\[2\].after is missing"),
    ((("steps", 2, "conditions"), _DROP), r"trace field steps\[2\].conditions is missing"),
    ((("steps", 0, "conditions", 0, "holds"), _DROP),
     r"trace field steps\[0\].conditions\[0\].holds is missing"),
    ((("status",), _DROP), "trace field status is missing"),
    ((("failed_step",), 2), "trace fields failed_step and failure belong to a failed trace"),
    ((("failure",), "R5 failed"), "trace fields failed_step and failure belong to a failed trace"),
    ((("failed_step",), None), "trace field failed_step is a NoneType, not a int"),
])
def test_a_malformed_trace_is_refused_by_field(good_trace, edit, message):
    if isinstance(edit, str):
        text = edit
    else:
        path, value = edit
        doc = json.loads(good_trace)
        if not path:
            doc = value
        else:
            at = doc
            for key in path[:-1]:
                at = at[key]
            if value is _DROP:
                del at[path[-1]]
            else:
                at[path[-1]] = value
        text = json.dumps(doc)
    with pytest.raises(R.VerifierError, match=message):
        parse_trace_json(text)


def test_a_trace_may_omit_a_label_and_carry_an_empty_failure(good_trace):
    doc = json.loads(good_trace)
    del doc["steps"][0]["label"]
    doc["failure"] = ""
    back = parse_trace_json(json.dumps(doc))
    assert back.verified and back.steps[0].label == "" and back.failure == ""
    assert revalidate_trace(back)


def test_golden_traces_round_trip():
    golden = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))
    traces = [c["stdout"] for c in golden
              if c["argv"][:2] in (["verify", "arr"], ["verify", "base-change"])
              and "json" in c["argv"]]
    assert len(traces) >= 5
    for text in traces:
        assert emit_trace(parse_trace_json(text), "json") + "\n" == text


def test_a_verdict_leaves_no_reference_cycles():
    # reference counting alone frees a verdict, its JSON and text traces and the
    # trace read back, so the cycle collector finds nothing to free
    def run():
        traces = [verify_arr_identity(2, 3, symbols={"E": 2}), verify_base_change(1, 2),
                  knudsen_mumford_expansion(1, 2).trace]
        for tr in traces:
            assert tr.verified, tr.failure
            assert emit_trace(tr, "text")
            assert revalidate_trace(parse_trace_json(emit_trace(tr, "json")))

    run()  # the first calls fill module-level caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _run(*links):
    """A verified trace of steps (label, before, after), each with one true condition."""
    steps = [R.TraceStep(label, "-", "-", "", before, after, [("holds", True)])
             for label, before, after in links]
    return R.ProofTrace(links[0][1], links[-1][2], 1, 2, steps)


def test_revalidate_chains_each_step_to_the_next_number():
    assert revalidate_trace(_run(("(1)", "A", "B"), ("(2)", "B", "C"), ("(3)", "C", "D")))
    # (2) ends where (3) does not start
    assert not revalidate_trace(_run(("(1)", "A", "B"), ("(2)", "B", "C"), ("(3)", "X", "D")))


def test_revalidate_does_not_chain_across_a_gap_in_the_numbers():
    assert revalidate_trace(_run(("(1)", "A", "B"), ("(3)", "C", "D")))


def test_is_prime():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    sieve = [False, False] + [True] * (3 * 10**5 - 2)  # Eratosthenes below 3 * 10^5
    for d in range(2, 548):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, len(sieve), d))
    assert all(is_prime(q) == sieve[q] for q in range(len(sieve)))
    # a strong pseudoprime to the bases 2..7, the least ones to 2..31 (psi_11) and to
    # 2..37 (psi_12), the Mersenne prime 2^61 - 1 beside 2^61 + 1, and a Carmichael number
    for q, prime in [(3215031751, False), (3825123056546413051, False),
                     (318665857834031151167461, False), (2**61 - 1, True), (2**61 + 1, False),
                     (561, False)]:
        assert is_prime(q) is prime, q
    with pytest.raises(R.VerifierError, match=f"primality is decided only below {R.PRIME_BOUND}"):
        is_prime(R.PRIME_BOUND)


@pytest.mark.parametrize("verify", [lambda: verify_arr_identity(2, 3),
                                    lambda: verify_base_change(1, 2)], ids=["arr", "base-change"])
def test_a_verdict_renders_no_class(monkeypatch, verify):
    # a trace prints tensor words: no grade, and no other class, is rendered
    rendered = []
    render = S.SplitClass.render

    def recording(self, wrap=None):
        rendered.append(render(self, wrap))
        return rendered[-1]

    monkeypatch.setattr(S.SplitClass, "render", recording)
    tr = verify()
    assert tr.verified, tr.failure
    assert "| grade=" not in emit_trace(tr, "text")
    assert rendered == []
