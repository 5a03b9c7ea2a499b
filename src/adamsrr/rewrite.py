"""Cited-rule rewrite engine with replayable proof traces.

Replays, step by step, the determinant-level Adams-Riemann-Roch chain for a
smooth projective family of relative dimension n in characteristic p:

    psi^p((det Rf_* E)^(p^(n(n+2))))  ~  det Rf_*(tilde_inv (x) psi^p(E))

together with its base-change square and the Knudsen-Mumford-style expansion
of the right side into lambda factors.  Every step cites a rule and records
the side conditions it computes: class identities evaluated through the
pullback tables the Geometry registers on its contexts and the split engine,
and the checks each move needs (so a tampered rule fails at its own step,
not at the end).  The chain, the square and the expansion are tables of
`Step`s run by one runner, which looks up the cited rules and records each
step or its failure.

A form is a line of det slots; the trace prints its tensor word, not its
grade, which is read off the slot classes.  Every check compares slot
classes: a class-preserving step asks for equal classes, and a wrapper move
for the argument kept and the class scaled by the factor the move states
(1 for (1), (11) and bottom(1), p for (10), 1/p for (13)), so a wrong
exponent fails at its own step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Callable

from . import expr as E
from . import picard as P
from . import splitting as S

OMEGA = E.SymbolTable.OMEGA
PUSHED_STRUCTURE = "FsO"  # the pushforward algebra F_*O_X on the Frobenius twist


class VerifierError(E.ExprError):
    pass


class MissingRule(VerifierError):
    def __init__(self, name: str):
        super().__init__(f"rule {name} is not in the active rule set")
        self.name = name


# Miller-Rabin to the first 13 primes is exact below PRIME_BOUND, the least composite
# passing it (psi_13: Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Whether p is prime, by trial division by `PRIME_BASES` and Miller-Rabin to them; p < PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise VerifierError(f"primality is decided only below {PRIME_BOUND}, not for {p}")
    if p < 2 or any(p % q == 0 for q in PRIME_BASES):
        return p in PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d, d odd
    for a in PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)  # a^d, which must be 1 or reach -1 in s - 1 squarings
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(s)):
            return False
    return True


# ---------------------------------------------------------------------------
# Frobenius geometry

FSO = E.Bundle(PUSHED_STRUCTURE)


class Geometry:
    """Symbol tables and pullback tables for one family f: X -> S in char p.

    Holds the X and Frobenius-twist symbol tables, the split contexts over
    them, the morphisms f and f', and the names of the relative Frobenius F,
    the twist projection J and the absolute Frobenii F_S, F_X.  `twist`
    names the twist-side copy J^* s of each X symbol s; the X' table, the
    pullback tables registered on the contexts (J^*, F^*, F_X^*) and the
    composition F^* J^* = F_X^* that step (7) distributes (`compose`) are all
    built from it.  The registered tables realize those morphisms' actions
    on classes; they are the ground truth the step checks evaluate through.
    """

    def __init__(self, n: int, p: int, symbols: dict[str, int] | None = None,
                 suffix: str = ""):
        self.table_x = E.SymbolTable(rel_dim=n, space="X" + suffix)  # refuses n < 0
        if not is_prime(p):
            raise VerifierError(f"{p} is not prime")
        self.n, self.p = n, p
        symbols = dict(symbols or {})

        for name, rk in symbols.items():
            if rk == 1:
                self.table_x.declare_line(name)
            else:
                self.table_x.declare_bundle(name, rk)
        self.twist = {name: "J_" + name for name in self.table_x.entries}

        self.table_xp = E.SymbolTable(rel_dim=n, space="X'" + suffix)
        for name, (kind, rk) in self.table_x.entries.items():
            if kind == E.LINE:
                self.table_xp.declare_line(self.twist[name])
            else:
                self.table_xp.reserve_bundle(self.twist[name], rk)
        self.table_xp.declare_bundle(PUSHED_STRUCTURE, p**n)

        self.name_f = "f" + suffix
        self.name_fp = "f'" + suffix
        self.name_F = "F" + suffix
        self.name_J = "J" + suffix
        self.name_FS = "F_S" + suffix
        self.name_FX = "F_X" + suffix

        # F_X^* s = psi^p(s); F^*(J^* s) = F_X^* s, and F^*(F_*O_X) = theta^p(Omega_f)
        absolute = {name: E.Psi(p, self.table_x.symbol(name)) for name in self.twist}
        self.ctx_x = S.SplitContext(self.table_x)
        self.ctx_x.pullbacks[self.name_FX] = absolute
        self.ctx_x.pullbacks[self.name_F] = {
            PUSHED_STRUCTURE: E.Theta(p, E.Bundle(OMEGA)),
            **{self.twist[name]: image for name, image in absolute.items()}}
        self.ctx_xp = S.SplitContext(self.table_xp, opaque=frozenset({PUSHED_STRUCTURE}))
        self.ctx_xp.pullbacks[self.name_J] = {
            name: self.table_xp.symbol(image) for name, image in self.twist.items()}
        self.compose = {image: E.Pull(self.name_FX, self.table_x.symbol(name))
                        for name, image in self.twist.items()}

        self.f = P.Morphism(self.name_f, n, self.ctx_x)
        self.fp = P.Morphism(self.name_fp, n, self.ctx_xp)


# ---------------------------------------------------------------------------
# Rules

@dataclass(frozen=True)
class RewriteRule:
    """A cited rewrite rule: its anchor, what it does, and the move it makes, if any."""

    name: str
    anchor: str
    description: str
    action: Callable | None = field(default=None, compare=False)


def rule_set(n: int, p: int) -> dict[str, RewriteRule]:
    """The cited rules R1-R8 plus the plumbing rules R9/KEQ, for characteristic p."""
    def r5_target() -> E.Expr:
        return E.Theta(p, E.Bundle(OMEGA))

    def pull_action(morphism: str, w: E.Expr) -> E.Expr:
        return E.Pull(morphism, w)

    def r7_action(e: E.Expr) -> E.Expr:
        if isinstance(e, E.Pull) and isinstance(e.arg, E.Psi):
            return E.Psi(e.arg.k, E.Pull(e.morphism, e.arg.arg))
        raise VerifierError("R7 applies to a pullback of an Adams operation")

    rules = [
        RewriteRule("R1", "psi^p = Frobenius pullback in char p",
                    "exchange the p-th Adams operation with the absolute Frobenius "
                    "pullback; on a line it is the p-th tensor power"),
        RewriteRule("R2", "det Rf_* commutes with base change",
                    "pullback of a determinant of cohomology along a base morphism "
                    "equals the determinant of the pulled-back family",
                    action=pull_action),
        RewriteRule("R3", "det Rf_*((H0-H1)^(x)l (x) H) is trivial for l >= n+2, rk H0 = rk H1",
                    "insert or remove a det-trivial summand of rank-zero-power shape"),
        RewriteRule("R4", "projection formula: F_*O_X (x) W = F_*(F^* W)",
                    "trade the pushforward algebra factor for a pullback upstairs "
                    "along the factorization f = f' o F",
                    action=pull_action),
        RewriteRule("R5", "F^* F_* O_X = theta^p(Omega_f)",
                    "replace the Frobenius pullback of the pushed structure sheaf "
                    "by the p-th Bott class of the relative differentials",
                    action=r5_target),
        RewriteRule("R6", "F_X^* = F^* J^*",
                    "compose the relative Frobenius with the twist projection "
                    "into the absolute Frobenius upstairs"),
        RewriteRule("R7", "psi^k g^* = g^* psi^k",
                    "Adams operations are natural against pullback",
                    action=r7_action),
        RewriteRule("R8", "F_*O_X is locally free of rank p^n",
                    "declared rank of the pushed structure sheaf"),
        RewriteRule("R9", "pullback is a ring map commuting with theta/det",
                    "distribute a pullback through sums, tensors, powers and "
                    "operator terms; rename symbols across linked tables"),
        RewriteRule("KEQ", "equal classes have isomorphic determinant lines",
                    "replace a det argument by any expression with the same class"),
    ]
    return {r.name: r for r in rules}


def _need(rules: dict[str, RewriteRule], name: str) -> RewriteRule:
    if name not in rules:
        raise MissingRule(name)
    return rules[name]


# ---------------------------------------------------------------------------
# Traces

@dataclass
class TraceStep:
    label: str
    rule: str
    anchor: str
    description: str
    before: str
    after: str
    conditions: list[tuple[str, bool]]

    def ok(self) -> bool:
        return all(h for _, h in self.conditions)


@dataclass
class ProofTrace:
    goal_lhs: str
    goal_rhs: str
    n: int
    p: int
    steps: list[TraceStep] = field(default_factory=list)
    status: str = "verified"
    failed_step: int | None = None
    failure: str = ""

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def fail(self, index: int, reason: str) -> None:
        self.status = "failed"
        if self.failed_step is None:
            self.failed_step = index
            self.failure = reason


def emit_trace(trace: ProofTrace, format: str = "json") -> str:
    """Serialize a trace; text mirrors the numbered chain, json follows the schema."""
    if format == "json":
        return _json_trace(trace)
    if format == "text":
        lines = [f"goal: {trace.goal_lhs}", f"  ~   {trace.goal_rhs}",
                 f"params: n={trace.n} p={trace.p}"]
        for s in trace.steps:
            lines.append(f"{s.label} [{s.rule}] {s.anchor}")
            lines.append(f"    {s.description}")
            lines.append(f"    before: {s.before}")
            lines.append(f"    after:  {s.after}")
            for c, h in s.conditions:
                lines.append(f"    - {c}: {'ok' if h else 'FAILED'}")
        lines.append(f"status: {trace.status}"
                     + (f" (failed at step index {trace.failed_step}: {trace.failure})"
                        if trace.failed_step is not None else ""))
        return "\n".join(lines)
    raise ValueError(f"unknown trace format {format!r}")


def _json_trace(trace: ProofTrace) -> str:
    """The trace's schema document, byte for byte as `json.dumps(doc, indent=2)` writes it.

    The document is `goal` {lhs, rhs}, `params` {n, p}, `steps` (each with
    its label, rule, anchor, before, after and `conditions`, each {name,
    holds}), `status`, and `failed_step` and `failure` once a step failed.
    """
    v = _json_value
    steps = ",".join(
        f'\n    {{\n      "label": {v(s.label)},\n      "rule": {v(s.rule)},'
        f'\n      "anchor": {v(s.anchor)},\n      "before": {v(s.before)},'
        f'\n      "after": {v(s.after)},\n      "conditions": {_json_conditions(s)}\n    }}'
        for s in trace.steps)
    out = [f'{{\n  "goal": {{\n    "lhs": {v(trace.goal_lhs)},\n    "rhs": {v(trace.goal_rhs)}'
           f'\n  }},\n  "params": {{\n    "n": {v(trace.n)},\n    "p": {v(trace.p)}\n  }},'
           '\n  "steps": ', f"[{steps}\n  ]" if steps else "[]",
           f',\n  "status": {v(trace.status)}']
    if trace.failed_step is not None:
        out.append(f',\n  "failed_step": {v(trace.failed_step)},\n  "failure": {v(trace.failure)}')
    out.append("\n}")
    return "".join(out)


def _json_conditions(step: TraceStep) -> str:
    v = _json_value
    conditions = ",".join(
        f'\n        {{\n          "name": {v(c)},\n          "holds": {v(h)}\n        }}'
        for c, h in step.conditions)
    return f"[{conditions}\n      ]" if conditions else "[]"


def _json_value(x: str | int | bool | None) -> str:
    """A JSON scalar as `json.dumps` writes it: strings through the C encoder, ASCII only."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"a trace field holds a {type(x).__name__}, not a JSON scalar")


def parse_trace_json(text: str) -> ProofTrace:
    """Read a JSON trace; a document of the wrong shape raises `VerifierError` naming the field.

    Fields are as `_json_trace` writes them (a step may lack `label` and `description`), `n` and
    `p` no bools, `status` verified or failed, and only a failed trace has `failed_step`, `failure`.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as ex:  # RecursionError: nested too deep to decode
        raise VerifierError(f"a trace is not JSON: {ex}") from None
    goal, params = _field(doc, dict, "goal"), _field(doc, dict, "params")
    trace = ProofTrace(_field(goal, str, "goal", "lhs"), _field(goal, str, "goal", "rhs"),
                       _field(params, int, "params", "n"), _field(params, int, "params", "p"))
    for i, s in enumerate(_field(doc, list, "steps")):
        trace.steps.append(TraceStep(
            _field(s, str, "steps", i, "label", default=""), _field(s, str, "steps", i, "rule"),
            _field(s, str, "steps", i, "anchor"),
            _field(s, str, "steps", i, "description", default=""),
            _field(s, str, "steps", i, "before"), _field(s, str, "steps", i, "after"),
            [(_field(c, str, "steps", i, "conditions", j, "name"),
              _field(c, bool, "steps", i, "conditions", j, "holds"))
             for j, c in enumerate(_field(s, list, "steps", i, "conditions"))]))
    trace.status = _field(doc, str, "status")
    if trace.status not in ("verified", "failed"):
        raise VerifierError(f"trace field status is {trace.status!r}, not verified or failed")
    trace.failed_step = _field(doc, int, "failed_step") if "failed_step" in doc else None
    trace.failure = _field(doc, str, "failure", default="")
    if trace.verified and (trace.failed_step is not None or trace.failure):
        raise VerifierError("trace fields failed_step and failure belong to a failed trace")
    return trace


def _field(doc: dict, kind: type, *path, default=...):
    """`doc[path[-1]]` when its type is exactly `kind`, so that a bool is no int; else refused by name.

    A missing key reads `default` (`...`: required).  `path` leads from the document to the
    value, ("steps", 2, "label") to steps[2].label; it is formatted only to refuse.
    """
    try:
        value = doc[path[-1]]
    except KeyError:
        value = default
    except TypeError:  # `doc` is no object, so it is refused itself
        value, kind, path = doc, dict, path[:-1]
    if type(value) is not kind:
        name = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)[1:] or "document"
        what = "missing" if value is ... else f"a {type(value).__name__}, not a {kind.__name__}"
        raise VerifierError(f"trace field {name} is {what}")
    return value


def revalidate_trace(trace: ProofTrace) -> bool:
    """Structural re-check of an emitted trace: chaining and status consistency.

    Forms must chain exactly inside each numbered run of steps; square-shaped
    traces restart numbering per edge, so chaining is checked within a run.
    """
    def run_key(label: str) -> tuple[str, int] | None:
        body = label.strip("()")
        prefix, _, num = body.rpartition("(")
        num = num.strip(")") or body
        if num.isdigit():
            return (prefix, int(num))
        return None

    for a, b in zip(trace.steps, trace.steps[1:]):
        ka, kb = run_key(a.label), run_key(b.label)
        consecutive = ka is not None and kb is not None and \
            ka[0] == kb[0] and kb[1] == ka[1] + 1
        if consecutive and a.after != b.before:
            return False
    conditions_ok = all(s.ok() for s in trace.steps)
    return conditions_ok == (trace.status == "verified")


# ---------------------------------------------------------------------------
# Steps

CHAIN_RULES = "R1..R9"  # cited by an edge that replays the chain; the chain checks its rules


@dataclass(frozen=True)
class Step:
    """One cited move of a proof: `apply(cur)` returns the next form and its side conditions.

    `rule` lists the cited rules ("R1,R2"), or is "-" or CHAIN_RULES when the
    step cites none itself.  `anchor` names the cited rule whose anchor the
    trace records, or is the anchor text itself.
    """

    label: str
    rule: str
    anchor: str
    description: str
    apply: Callable[[P.GradedLine], tuple[P.GradedLine, list[tuple[str, bool]]]]


def _run_steps(trace: ProofTrace, cur: P.GradedLine, steps: list[Step],
               rules: dict[str, RewriteRule]) -> P.GradedLine | None:
    """Apply and record `steps` in turn from `cur`; the last form, or None at the first failure.

    A step fails when a rule it cites is missing or its move raises (recorded
    with the form it started from), or when one of its side conditions is false.
    """
    text = cur.render()  # each form is rendered once, as one step's after and the next's before
    for step in steps:
        try:
            cited = [] if step.rule in ("-", CHAIN_RULES) else \
                [_need(rules, name) for name in step.rule.split(",")]
            anchor = next((r.anchor for r in cited if r.name == step.anchor), step.anchor)
            after, conditions = step.apply(cur)
        except E.ExprError as ex:
            trace.steps.append(TraceStep(step.label, "-", "-", "step could not be applied",
                                         text, text, [(str(ex), False)]))
            trace.fail(len(trace.steps) - 1, str(ex))
            return None
        after_text = after.render()
        record = TraceStep(step.label, step.rule, anchor, step.description,
                           text, after_text, conditions)
        trace.steps.append(record)
        if not record.ok():
            bad = "; ".join(c for c, h in conditions if not h)
            trace.fail(len(trace.steps) - 1, f"side condition failed: {bad}")
            return None
        cur, text = after, after_text
    return cur


def _sole_det(gl: P.GradedLine) -> tuple[tuple, E.Expr, int]:
    entries = [(slot, e, x) for slot, (_, disp) in gl.dets.items() for e, x in disp if x]
    if len(entries) != 1:
        raise VerifierError(f"expected a single det atom, found {len(entries)}")
    return entries[0]


def _atom(morph: P.Morphism, arg: E.Expr, exp: int, wrappers: tuple = ()) -> P.GradedLine:
    """det_rf[morph](arg)^exp under wrappers."""
    return P.det_rf_atom(morph, arg, wrappers) ** exp


def _class_equal_condition(before: P.GradedLine, after: P.GradedLine) -> tuple[str, bool]:
    return ("argument classes equal (split-engine identity)", after == before)


def _keq(morph: P.Morphism, rewrite_arg: Callable[[E.Expr], E.Expr]):
    """A class-preserving step: the sole det atom's argument rewritten over `morph`.

    The exponent is kept; the step records that the argument classes agree.
    """
    def apply(cur: P.GradedLine):
        _, arg, exp = _sole_det(cur)
        after = _atom(morph, rewrite_arg(arg), exp)
        return after, [_class_equal_condition(cur, after)]
    return apply


def _wrapper_move_condition(before: P.GradedLine, after: P.GradedLine,
                            scale: int | Fraction = 1) -> tuple[str, bool]:
    """A move that only rewraps a det atom keeps its argument and scales its slot class by `scale`.

    The slot class carries the exponent, so a move to a wrong power fails here.
    """
    (slot0, arg0, _), (slot1, arg1, _) = _sole_det(before), _sole_det(after)
    scaled = after.dets[slot1][0] * scale.denominator == before.dets[slot0][0] * scale.numerator
    return (f"wrapper move keeps the argument and scales the det class by {scale}",
            arg0 == arg1 and scaled)


def distribute_pull(e: E.Expr, morphism: str, compose: dict[str, E.Expr],
                    through_psi: bool = False) -> E.Expr:
    """Push Pull(morphism, .) through the ring structure down to symbol leaves.

    `compose` maps a symbol name to its pulled-back expression; a symbol it
    does not name keeps the pullback pending on its leaf.  Adams operations
    block the distribution unless `through_psi` is set (that exchange is rule R7).
    """
    if isinstance(e, (E.Line, E.Bundle)):
        return compose[e.name] if e.name in compose else E.Pull(morphism, e)
    if isinstance(e, E.Pull) or (isinstance(e, E.Psi) and not through_psi):
        return E.Pull(morphism, e)
    return E.map_children(e, lambda x: distribute_pull(x, morphism, compose, through_psi))


def _replace_pulls(e: E.Expr, fn: Callable[[E.Pull], E.Expr]) -> E.Expr:
    if isinstance(e, E.Pull):
        return fn(e)
    return E.map_children(e, lambda x: _replace_pulls(x, fn))


# ---------------------------------------------------------------------------
# Rule-application helpers

def _rank_zero_summand(geom: Geometry, arg: E.Expr) -> tuple[E.Expr, list[tuple[str, bool]]]:
    """R3's summand (F_*O_X - p^n)^(x)(n+2) (x) arg and the side conditions for inserting it.

    The rank of F_*O_X is checked against F's registered image of it,
    theta^p(Omega_f), whose constant term in the truncated ring is its rank.
    """
    rank = E.rank(FSO, geom.table_xp)
    inserted = E.Tensor((E.Power(E.Sum((FSO, E.Neg(E.IntConst(rank)))), geom.n + 2), arg))
    return inserted, [
        ("rank of F^*(F_*O_X) = theta^p(Omega_f) is the declared rank p^n of F_*O_X",
         geom.f.truncated(E.Pull(geom.name_F, FSO)).terms.get(0, 0) == rank),
        ("inserted summand class lies in I^(n+2)",
         P.argument_is_trivial(geom.fp, inserted)),
    ]


# ---------------------------------------------------------------------------
# Theorem (I): the nine-step chain

def verify_arr_identity(n: int, p: int, e: E.Expr | None = None,
                       symbols: dict[str, int] | None = None,
                       rules: dict[str, RewriteRule] | None = None,
                       geometry: Geometry | None = None) -> ProofTrace:
    """Replay the nine-step determinant-level chain for (n, p, E).

    The trace is verified iff every step's side conditions hold (the
    univariate binomial-identity oracle behind the expansion steps, and the
    class identity of each rewritten argument through the Geometry's
    pullback tables), and the final form equals the goal's right side
    atom-for-atom.
    """
    if symbols is None:
        symbols = {"L": 1}
    if e is None:
        e = geom_default_expr(symbols)
    geom = geometry or Geometry(n, p, symbols)
    rules = rule_set(n, p) if rules is None else rules

    m = p ** (n * (n + 2))
    a = p**n
    sign = (-1) ** (n + 1)
    theta_omega = E.Theta(p, E.Bundle(OMEGA))
    j_e = E.canonicalize(S.pull_back(geom.name_J, e, geom.ctx_xp))

    lhs = P.psi_line(p, P.det_rf_atom(geom.f, e)) ** m
    rhs_expr = E.Tensor((S.tilde_inverse_expr(n, p, theta_omega), E.Psi(p, e)))
    rhs = P.det_rf_atom(geom.f, rhs_expr)
    trace = ProofTrace(lhs.render(), rhs.render(), n, p)

    def signed(x: E.Expr) -> E.Expr:
        return E.Neg(x) if sign < 0 else x

    def step1(cur: P.GradedLine):
        (wrappers, _), arg, exp = _sole_det(cur)
        if not wrappers or wrappers[0] != ("psi", p):
            raise VerifierError("R1 expects a leading psi^p wrapper")
        after = _atom(geom.f, arg, exp, (("detpull", geom.name_FS),))
        return after, [_wrapper_move_condition(cur, after)]

    def step2(cur: P.GradedLine):
        slot, arg, exp = _sole_det(cur)
        twisted = geom.fp.truncated(j_e)
        return _atom(geom.fp, j_e, exp), [
            ("twist-side argument is the J-pullback of the original",
             S.repack(geom.f.truncated(arg), geom.twist, twisted.space) == twisted)]

    def step3(cur: P.GradedLine):
        slot, arg, exp = _sole_det(cur)
        inserted, conditions = _rank_zero_summand(geom, arg)
        after = _atom(geom.fp, E.Sum((E.Tensor((E.IntConst(exp), arg)), signed(inserted))), 1)
        return after, conditions + [_class_equal_condition(cur, after)]

    def step4(cur: P.GradedLine):
        w = S.binomial_identity_check(n, p)
        after = _atom(geom.fp, E.Sum((
            E.Tensor((E.IntConst(m), j_e)),
            signed(E.Tensor((S.binomial_sum(n, p, FSO, n + 2), j_e))),
            E.Neg(E.Tensor((E.IntConst(a ** (n + 2)), j_e))),
        )), 1)
        return after, [("binomial identity oracle: y*tilde(y) - p^(n(n+2)) = "
                        "(-1)^(n+1) (y - p^n)^(n+2)", bool(w)),
                       _class_equal_condition(cur, after)]

    def step6(cur: P.GradedLine):
        slot, arg, exp = _sole_det(cur)
        body, negated = (arg.arg, True) if isinstance(arg, E.Neg) else (arg, False)
        if not isinstance(body, E.Tensor):
            raise VerifierError("projection formula expects a tensor with an F_*O_X factor")
        factors = list(body.factors)
        if factors.count(FSO) != 1:
            raise VerifierError("projection formula needs exactly one F_*O_X factor")
        rest = [x for x in factors if x != FSO]
        w_expr: E.Expr = rest[0] if len(rest) == 1 else E.Tensor(tuple(rest))
        if negated:
            w_expr = E.Neg(w_expr)
        after_arg = rules["R4"].action(geom.name_F, w_expr)
        return _atom(geom.f, after_arg, exp), [
            ("F^*(F_*O_X (x) W) = theta^p(Omega_f) (x) F^*W (split-engine identity)",
             geom.f.truncated(E.Pull(geom.name_F, arg)) ==
             geom.f.truncated(E.Tensor((theta_omega, after_arg))))]

    def distribute_frobenius(arg: E.Expr) -> E.Expr:
        if not isinstance(arg, E.Pull):
            raise VerifierError("expected a pending relative-Frobenius pullback")
        # F^*(F_*O_X) stays for rule R5
        return distribute_pull(arg.arg, geom.name_F, geom.compose, through_psi=True)

    def resolve(pl: E.Pull) -> E.Expr:
        if pl.morphism == geom.name_F and pl.arg == FSO:
            return rules["R5"].action()
        if pl.morphism == geom.name_FX:
            return E.Psi(p, pl.arg)
        return pl

    steps = [
        Step("(1)", "R1,R2", "R1",
             "replace psi^p by F_S^* and commute det with the pullback", step1),
        Step("(2)", "R2", "R2", "form the pulled-back family: det Rf'_*(J^* E)", step2),
        Step("(3)", "R3,R8", "R3",
             "insert the det-trivial summand (F_*O_X - p^n)^(x)(n+2) (x) J^*E", step3),
        Step("(4)", "KEQ", "KEQ",
             "expand the rank-zero power binomially, splitting off the i = n+2 term", step4),
        Step("(5)", "KEQ", "KEQ", "cancel the constant terms and factor out F_*O_X",
             _keq(geom.fp, lambda arg: signed(
                 E.Tensor((FSO, S.binomial_sum(n, p, FSO, n + 1), j_e))))),
        Step("(6)", "R4", "R4",
             "projection formula: det Rf'_*(F_*O_X (x) W) = det Rf_*(F^* W)", step6),
        Step("(7)", "R9,R6", "R6", "distribute F^* and compose F^* J^* = F_X^*",
             _keq(geom.f, distribute_frobenius)),
        Step("(8)", "R5,R1", "R5", "substitute the Bott class of Omega_f and realize psi^p",
             _keq(geom.f, lambda arg: _replace_pulls(arg, resolve))),
        Step("(9)", "KEQ", "KEQ", "fold the sum into the tilde-inverse notation",
             _keq(geom.f, lambda arg: rhs_expr)),
    ]
    cur = _run_steps(trace, lhs, steps, rules)
    if cur is not None and cur != rhs:
        trace.fail(len(steps) - 1, "final form does not match the goal right side")
    return trace


def geom_default_expr(symbols: dict[str, int]) -> E.Expr:
    name, rk = next(iter(symbols.items()))
    return E.Line(name) if rk == 1 else E.Bundle(name)


# ---------------------------------------------------------------------------
# Theorem (II): the base-change square

def verify_base_change(n: int, p: int, e: E.Expr | None = None,
                       symbols: dict[str, int] | None = None,
                       rules: dict[str, RewriteRule] | None = None) -> ProofTrace:
    """Check the two composite paths of the base-change square agree.

    Top edge: the four line-level moves (10)-(13); right edge: the main chain
    over the pulled-back family; left edge: pullback of the verified identity;
    bottom edge: distribute g'^*, commute it with psi^p (rule R7), and rename
    into the pulled-back family's symbols.  The top and right edges run from
    the top-left corner, then the left and bottom edges run from it again and
    end by comparing the two routes.
    """
    if symbols is None:
        symbols = {"L": 1}
    if e is None:
        e = geom_default_expr(symbols)
    geom = Geometry(n, p, symbols)
    rules = rule_set(n, p) if rules is None else rules

    # g'^* renames each X symbol into the pulled-back family's (Omega to Omega)
    rename_t = {name: name if name == OMEGA else "g_" + name for name in geom.table_x.entries}
    symbols_t = {rename_t[name]: rk for name, rk in symbols.items()}
    geom_t = Geometry(n, p, symbols_t, suffix="T")
    name_g, name_gp = "g", "gp"
    geom_t.ctx_x.pullbacks[name_gp] = {
        name: geom_t.table_x.symbol(image) for name, image in rename_t.items()}

    m = p ** (n * (n + 2))
    e_t = E.canonicalize(S.pull_back(name_gp, e, geom_t.ctx_x))
    theta_omega = E.Theta(p, E.Bundle(OMEGA))
    tilde = S.tilde_inverse_expr(n, p, theta_omega)
    rhs_expr = E.Tensor((tilde, E.Psi(p, e)))
    rhs_expr_t = E.Tensor((tilde, E.Psi(p, e_t)))

    tl = P.pull_line(name_g, P.psi_line(p, P.det_rf_atom(geom.f, e))) ** m
    br_right = P.det_rf_atom(geom_t.f, rhs_expr_t)
    trace = ProofTrace(tl.render(), br_right.render(), n, p)

    def rewrap(move: Callable[[P.GradedLine], P.GradedLine], scale: int | Fraction = 1):
        # a move of the wrappers and exponent around one det atom, scaling its class by `scale`
        def apply(cur: P.GradedLine):
            after = move(cur)
            return after, [_wrapper_move_condition(cur, after, scale)]
        return apply

    det_commutes = rewrap(lambda cur: _atom(geom.f, *_sole_det(cur)[1:], (("detpull", name_g),)))

    def right(cur: P.GradedLine):
        sub = verify_arr_identity(n, p, e_t, symbols_t, rules, geometry=geom_t)
        return br_right, [("edge starts at the replayed chain's left side",
                           cur.render() == sub.goal_lhs),
                          ("theorem (I) verified over the pulled-back family", sub.verified)]

    def left(cur: P.GradedLine):
        sub = verify_arr_identity(n, p, e, symbols, rules, geometry=geom)
        return P.pull_line(name_g, P.det_rf_atom(geom.f, rhs_expr)), \
            [("theorem (I) verified over the original family", sub.verified)]

    def base_change(pulled: Callable[[E.Expr], E.Expr]):
        # the det atom over f becomes one over f_T whose argument is `pulled(arg)`
        def apply(cur: P.GradedLine):
            slot, arg, exp = _sole_det(cur)
            after_arg = pulled(arg)
            pulled_back = geom_t.f.truncated(after_arg)
            return _atom(geom_t.f, after_arg, exp), [(
                "argument over f_T is the g'-pullback of the original (split-engine identity)",
                S.repack(geom.f.truncated(arg), rename_t, pulled_back.space) == pulled_back)]
        return apply

    def commute_psi(arg: E.Expr) -> E.Expr:
        return _replace_pulls(
            arg, lambda pl: rules["R7"].action(pl) if isinstance(pl.arg, E.Psi) else pl)

    top_and_right = [
        Step("(10)", "R1", "R1", "psi^p of a line is its p-th power",
             rewrap(lambda cur: P.pull_line(name_g, P.det_rf_atom(geom.f, e)) ** (p * m), p)),
        Step("(11)", "R2", "R2", "det commutes with the pullback", det_commutes),
        Step("(12)", "R2", "R2", "cohomology base change: det Rf'_*(g'^* E)",
             base_change(lambda arg: e_t)),
        Step("(13)", "R1", "R1", "refold the p-th power into psi^p",
             rewrap(lambda cur: P.psi_line(p, P.det_rf_atom(geom_t.f, e_t)) ** m, Fraction(1, p))),
        Step("right", CHAIN_RULES, "main chain over the pulled-back family",
             "apply the verified identity to f_T and g'^*E", right),
    ]
    left_and_bottom = [
        Step("left", CHAIN_RULES, "pullback of the verified identity",
             "pull the identity over f back along g", left),
        Step("bottom(1)", "R2", "R2", "det commutes with the pullback", det_commutes),
        Step("bottom(2)", "R2", "R2", "cohomology base change along the square (g, g')",
             base_change(lambda arg: rules["R2"].action(name_gp, arg))),
        Step("bottom(3)", "R9", "R9", "distribute g'^* through the ring structure",
             _keq(geom_t.f, lambda arg: distribute_pull(arg.arg, name_gp, {}))),
        Step("bottom(4)", "R7", "R7", "commute g'^* past the Adams operation",
             _keq(geom_t.f, commute_psi)),
        Step("bottom(5)", "R9", "R9",
             "rename pulled symbols into the pulled-back family's table "
             "(Omega pulls back to Omega)",
             _keq(geom_t.f, lambda arg: _replace_pulls(
                 arg, lambda pl: S.pull_back(name_gp, pl.arg, geom_t.ctx_x)
                 if pl.morphism == name_gp else pl))),
        Step("square", "-", "composite paths around the square",
             "compare the two routes into the bottom-right corner",
             lambda cur: (br_right, [("both composite paths agree", cur == br_right)])),
    ]
    if _run_steps(trace, tl, top_and_right, rules) is not None:
        _run_steps(trace, tl, left_and_bottom, rules)
    return trace


# ---------------------------------------------------------------------------
# Knudsen-Mumford style expansion

@dataclass
class KnudsenMumford:
    n: int
    p: int
    left_exponent: int
    exponents: list[int]
    lambda_factors: list[str]
    trace: ProofTrace

    @property
    def verified(self) -> bool:
        return self.trace.verified


def knudsen_mumford_expansion(n: int, p: int, line: str = "L") -> KnudsenMumford:
    """Expand (det Rf_* L^p)^(p^(n(n+2)+1)) into lambda factors.

    lambda_i = det Rf_*((-1)^(n+1+i) theta^p(Omega_f)^(x)(n+1-i) (x) L^(p^2))
    with exponent C(n+2, i) (p^n)^i, derived from the main chain at E = L^p.
    """
    symbols = {line: 1}
    e = E.Power(E.Line(line), p)
    geom = Geometry(n, p, symbols)
    rules = rule_set(n, p)
    trace = verify_arr_identity(n, p, e, symbols, rules, geometry=geom)

    a = p**n
    theta_omega = E.Theta(p, E.Bundle(OMEGA))
    lp2 = E.Power(E.Line(line), p * p)
    exponents = [comb(n + 2, i) * a**i for i in range(n + 2)]
    lambda_exprs = []
    product = P.GradedLine()
    for i in range(n + 2):
        signed_arg = E.Tensor((E.IntConst((-1) ** (n + 1 + i)),
                               E.Power(theta_omega, n + 1 - i), lp2))
        lambda_exprs.append(E.canonicalize(signed_arg))
        product = product * (P.det_rf_atom(geom.f, signed_arg) ** exponents[i])

    rhs = P.det_rf_atom(geom.f, E.Tensor((S.tilde_inverse_expr(n, p, theta_omega),
                                          E.Psi(p, e))))
    _run_steps(trace, rhs, [
        Step("(km)", "KEQ", "det additivity over the binomial sum",
             "split det Rf_*(tilde (x) L^(p^2)) into lambda factors",
             lambda cur: (product, [("lambda product equals the chain's right side",
                                     product == cur)]))], rules)

    factors = [f"det_rf[{geom.name_f}]({E.print_expr(x)})^{c}"
               for x, c in zip(lambda_exprs, exponents)]
    return KnudsenMumford(n, p, p ** (n * (n + 2) + 1), exponents, factors, trace)
