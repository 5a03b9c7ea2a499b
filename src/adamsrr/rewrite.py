"""Cited-rule rewrite engine with replayable proof traces.

Replays, step by step, the determinant-level Adams-Riemann-Roch chain for a
smooth projective family of relative dimension n in characteristic p:

    psi^p((det Rf_* E)^(p^(n(n+2))))  ~  det Rf_*(tilde_inv (x) psi^p(E))

together with its base-change square and the Knudsen-Mumford-style expansion
of the right side into lambda factors.  Every step cites a rule, records its
side conditions, and is re-checked semantically against the registered
Frobenius geometry (so a tampered rule fails at its own step, not at the end).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# The finite tilde-inverse as an expression

def tilde_inverse_expr(n: int, p: int, base: E.Expr) -> E.Expr:
    """(-1)^(n+1) sum_{i=0}^{n+1} C(n+2,i) base^(n+1-i) (-p^n)^i as an AST."""
    a = p**n
    terms = []
    for i in range(n + 2):
        coeff = comb(n + 2, i) * (-a) ** i
        terms.append(E.Tensor((E.IntConst(coeff), E.Power(base, n + 1 - i))))
    body: E.Expr = E.Sum(tuple(terms))
    if (n + 1) % 2:
        body = E.Neg(body)
    return E.canonicalize(body)


# ---------------------------------------------------------------------------
# Frobenius geometry

@dataclass(frozen=True)
class MorphismTag:
    """Named arrow of the registered diagram, with its kind and parameters."""

    name: str
    kind: str  # structure | relative-frobenius | twist-projection |
    #            absolute-frobenius (base/total) | base-change (+ upstairs)
    char: int
    rel_dim: int | None = None


class Geometry:
    """Registered morphism diagram for one family f: X -> S in char p.

    Holds the X and Frobenius-twist symbol tables, the morphism tags
    (f, f', relative Frobenius F, twist projection J, absolute Frobenii
    F_S, F_X) and the pullback substitutions that realize their actions on
    classes.  The substitutions are the ground truth the step checker uses.
    """

    def __init__(self, n: int, p: int, symbols: dict[str, int] | None = None,
                 suffix: str = ""):
        if n < 0:
            raise VerifierError("relative dimension must be >= 0")
        if not is_prime(p):
            raise VerifierError(f"{p} is not prime")
        self.n, self.p = n, p
        self.suffix = suffix
        symbols = dict(symbols or {})

        self.table_x = E.SymbolTable(rel_dim=n, space="X" + suffix)
        for name, rk in symbols.items():
            if rk == 1:
                self.table_x.declare_line(name)
            else:
                self.table_x.declare_bundle(name, rk)

        self.table_xp = E.SymbolTable(rel_dim=n, space="X'" + suffix)
        for name, (kind, rk) in self.table_x.entries.items():
            jname = self.j_name(name)
            if kind == E.LINE:
                self.table_xp.declare_line(jname)
            else:
                self.table_xp.reserve_bundle(jname, rk)
        self.table_xp.declare_bundle(PUSHED_STRUCTURE, p**n)

        self.name_f = "f" + suffix
        self.name_fp = "f'" + suffix
        self.name_F = "F" + suffix
        self.name_J = "J" + suffix
        self.name_FS = "F_S" + suffix
        self.name_FX = "F_X" + suffix

        self.ctx_x = S.SplitContext(self.table_x)
        self.ctx_xp = S.SplitContext(self.table_xp, opaque=frozenset({PUSHED_STRUCTURE}))
        self.ctx_x.pull_reducers[self.name_F] = self.frobenius_reduce
        self.ctx_x.pull_reducers[self.name_FX] = lambda e: E.Psi(p, e)
        self.ctx_xp.pull_reducers[self.name_J] = self.j_reduce

        self.f = P.Morphism(self.name_f, n, self.ctx_x, kind="structure", char=p)
        self.fp = P.Morphism(self.name_fp, n, self.ctx_xp, kind="structure", char=p)

        self.tags = {
            self.name_f: MorphismTag(self.name_f, "structure", p, n),
            self.name_fp: MorphismTag(self.name_fp, "structure", p, n),
            self.name_F: MorphismTag(self.name_F, "relative-frobenius", p),
            self.name_J: MorphismTag(self.name_J, "twist-projection", p),
            self.name_FS: MorphismTag(self.name_FS, "absolute-frobenius-base", p),
            self.name_FX: MorphismTag(self.name_FX, "absolute-frobenius-total", p),
        }
        # registered diagram relations used by the rules:
        #   F_X = J o F (pullbacks compose: F^* J^* = F_X^*)
        #   f = f' o F with pushforward algebra F_*O_X (projection formula)
        #   base-change square (F_S, f) -> (f', J) (cohomology base change)
        self.compositions = {(self.name_F, self.name_J): self.name_FX}
        self.factorizations = {self.name_f: (self.name_fp, self.name_F, PUSHED_STRUCTURE)}
        self.base_change_squares = {(self.name_FS, self.name_f): (self.name_fp, self.name_J)}

    # -- naming ---------------------------------------------------------------
    def j_name(self, symbol: str) -> str:
        return "J_" + symbol

    def omega(self) -> E.Expr:
        return E.Bundle(OMEGA)

    def pushed_structure(self) -> E.Expr:
        return E.Bundle(PUSHED_STRUCTURE)

    def symbol_expr(self, name: str, table: E.SymbolTable | None = None) -> E.Expr:
        table = table or self.table_x
        return E.Line(name) if table.kind(name) == E.LINE else E.Bundle(name)

    # -- pullback substitutions (ground truth) ---------------------------------
    def j_reduce(self, e: E.Expr) -> E.Expr:
        """J^*: rename X symbols into their twist-side copies (naturality)."""
        return _map_symbols(e, lambda name: self.symbol_expr(self.j_name(name), self.table_xp)
                            if self.j_name(name) in self.table_xp
                            else _fail_symbol(name, "J^*"))

    def frobenius_reduce(self, e: E.Expr) -> E.Expr:
        """F^*: the relative-Frobenius pullback on twist-side classes.

        F^*(F_*O_X) = theta^p(Omega_f); F^*(J^* s) = F_X^* s = psi^p(s).
        """
        def on_symbol(name: str) -> E.Expr:
            if name == PUSHED_STRUCTURE:
                return E.Theta(self.p, self.omega())
            if name.startswith("J_") and name[2:] in self.table_x:
                return E.Psi(self.p, self.symbol_expr(name[2:]))
            return _fail_symbol(name, "F^*")

        return _map_symbols(e, on_symbol)


def _fail_symbol(name: str, what: str) -> E.Expr:
    raise VerifierError(f"{what} has no registered action on symbol {name!r}")


def _map_symbols(e: E.Expr, fn: Callable[[str], E.Expr]) -> E.Expr:
    """Apply a symbol substitution through the expression operators."""
    if isinstance(e, (E.Line, E.Bundle)):
        return fn(e.name)
    if isinstance(e, (E.Unit, E.IntConst)):
        return e
    if isinstance(e, E.Sum):
        return E.Sum(tuple(_map_symbols(t, fn) for t in e.terms))
    if isinstance(e, E.Neg):
        return E.Neg(_map_symbols(e.arg, fn))
    if isinstance(e, E.Tensor):
        return E.Tensor(tuple(_map_symbols(f, fn) for f in e.factors))
    if isinstance(e, E.Dual):
        return E.Dual(_map_symbols(e.arg, fn))
    if isinstance(e, E.Psi):
        return E.Psi(e.k, _map_symbols(e.arg, fn))
    if isinstance(e, E.Theta):
        return E.Theta(e.k, _map_symbols(e.arg, fn))
    if isinstance(e, E.Tau):
        return E.Tau(e.p, _map_symbols(e.arg, fn))
    if isinstance(e, E.DetClass):
        return E.DetClass(_map_symbols(e.arg, fn))
    if isinstance(e, E.Power):
        return E.Power(_map_symbols(e.base, fn), e.exponent)
    if isinstance(e, E.Pull):
        raise VerifierError(f"cannot substitute under an unresolved pullback: {e}")
    raise VerifierError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Rules

@dataclass(frozen=True)
class RewriteRule:
    """A cited rewrite rule with side conditions bound to (n, p)."""

    name: str
    anchor: str
    description: str
    conditions: tuple[tuple[str, bool], ...] = ()
    action: Callable | None = field(default=None, compare=False)


def rule_set(n: int, p: int) -> dict[str, RewriteRule]:
    """The cited rules R1-R8 plus the plumbing rules R9/KEQ, bound to (n, p)."""
    base_conditions = (("p is prime", is_prime(p)), ("n >= 0", n >= 0))

    def r5_target() -> E.Expr:
        return E.Theta(p, E.Bundle(OMEGA))

    def r4_action(morphism: str, w: E.Expr) -> E.Expr:
        return E.Pull(morphism, w)

    def r7_action(e: E.Expr) -> E.Expr:
        if isinstance(e, E.Pull) and isinstance(e.arg, E.Psi):
            return E.Psi(e.arg.k, E.Pull(e.morphism, e.arg.arg))
        raise VerifierError("R7 applies to a pullback of an Adams operation")

    rules = [
        RewriteRule("R1", "psi^p = Frobenius pullback in char p",
                    "exchange the p-th Adams operation with the absolute Frobenius "
                    "pullback; on a line it is the p-th tensor power",
                    base_conditions),
        RewriteRule("R2", "det Rf_* commutes with base change",
                    "pullback of a determinant of cohomology along a base morphism "
                    "equals the determinant of the pulled-back family",
                    base_conditions),
        RewriteRule("R3", "det Rf_*((H0-H1)^(x)l (x) H) is trivial for l >= n+2, rk H0 = rk H1",
                    "insert or remove a det-trivial summand of rank-zero-power shape",
                    base_conditions + ((f"l >= n+2 = {n + 2}", True),)),
        RewriteRule("R4", "projection formula: F_*O_X (x) W = F_*(F^* W)",
                    "trade the pushforward algebra factor for a pullback upstairs "
                    "along the factorization f = f' o F",
                    base_conditions, action=r4_action),
        RewriteRule("R5", "F^* F_* O_X = theta^p(Omega_f)",
                    "replace the Frobenius pullback of the pushed structure sheaf "
                    "by the p-th Bott class of the relative differentials",
                    base_conditions + ((f"rank theta^p(Omega_f) = p^n = {p**n}", True),),
                    action=r5_target),
        RewriteRule("R6", "F_X^* = F^* J^*",
                    "compose the relative Frobenius with the twist projection "
                    "into the absolute Frobenius upstairs",
                    base_conditions),
        RewriteRule("R7", "psi^k g^* = g^* psi^k",
                    "Adams operations are natural against pullback",
                    base_conditions, action=r7_action),
        RewriteRule("R8", "F_*O_X is locally free of rank p^n",
                    "declared rank of the pushed structure sheaf",
                    base_conditions + ((f"rank = {p**n}", True),)),
        RewriteRule("R9", "pullback is a ring map commuting with theta/det",
                    "distribute a pullback through sums, tensors, powers and "
                    "operator terms; rename symbols across linked tables",
                    base_conditions),
        RewriteRule("KEQ", "equal classes have isomorphic determinant lines",
                    "replace a det argument by any expression with the same class",
                    base_conditions),
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
        doc = {
            "goal": {"lhs": trace.goal_lhs, "rhs": trace.goal_rhs},
            "params": {"n": trace.n, "p": trace.p},
            "steps": [
                {
                    "label": s.label,
                    "rule": s.rule,
                    "anchor": s.anchor,
                    "before": s.before,
                    "after": s.after,
                    "conditions": [{"name": c, "holds": h} for c, h in s.conditions],
                }
                for s in trace.steps
            ],
            "status": trace.status,
        }
        if trace.failed_step is not None:
            doc["failed_step"] = trace.failed_step
            doc["failure"] = trace.failure
        return json.dumps(doc, indent=2)
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


def parse_trace_json(text: str) -> ProofTrace:
    doc = json.loads(text)
    trace = ProofTrace(doc["goal"]["lhs"], doc["goal"]["rhs"],
                       doc["params"]["n"], doc["params"]["p"])
    for s in doc["steps"]:
        trace.steps.append(TraceStep(
            s.get("label", ""), s["rule"], s["anchor"], s.get("description", ""),
            s["before"], s["after"],
            [(c["name"], c["holds"]) for c in s["conditions"]],
        ))
    trace.status = doc["status"]
    trace.failed_step = doc.get("failed_step")
    trace.failure = doc.get("failure", "")
    return trace


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
# Step helpers

def _sole_det(gl: P.GradedLine) -> tuple[tuple, E.Expr, int]:
    entries = [(slot, e, x) for slot, (_, disp) in gl.dets.items() for e, x in disp if x]
    if len(entries) != 1:
        raise VerifierError(f"expected a single det atom, found {len(entries)}")
    return entries[0]


def _atom(morph: P.Morphism, wrappers: tuple, arg: E.Expr, exp: int) -> P.GradedLine:
    return P.det_rf_atom(morph, arg, wrappers=wrappers) ** exp


def _class_equal_condition(before: P.GradedLine, after: P.GradedLine) -> tuple[str, bool]:
    return ("argument classes equal (split-engine identity)", after.same_atoms(before))


def _rename_vars(cls: S.SplitClass, mapping: dict[str, str]) -> S.SplitClass:
    out: dict[S.Monomial, object] = {}
    for m, c in cls.terms.items():
        nm = tuple(sorted((mapping.get(v, v), e) for v, e in m))
        out[nm] = out.get(nm, 0) + c
    return S.SplitClass({m: c for m, c in out.items() if c}, None)


def distribute_pull(e: E.Expr, morphism: str, compose: Callable[[str], E.Expr | None],
                    through_psi: bool = False) -> E.Expr:
    """Push Pull(morphism, .) through the ring structure down to symbol leaves.

    `compose` resolves a symbol name to its pulled-back expression, or None to
    keep the pullback pending on that leaf.  Adams operations block the
    distribution unless `through_psi` is set (that exchange is rule R7).
    """
    def go(x: E.Expr) -> E.Expr:
        if isinstance(x, (E.Unit, E.IntConst)):
            return x
        if isinstance(x, E.Sum):
            return E.Sum(tuple(go(t) for t in x.terms))
        if isinstance(x, E.Neg):
            return E.Neg(go(x.arg))
        if isinstance(x, E.Tensor):
            return E.Tensor(tuple(go(f) for f in x.factors))
        if isinstance(x, E.Power):
            return E.Power(go(x.base), x.exponent)
        if isinstance(x, E.Dual):
            return E.Dual(go(x.arg))
        if isinstance(x, E.Theta):
            return E.Theta(x.k, go(x.arg))
        if isinstance(x, E.Tau):
            return E.Tau(x.p, go(x.arg))
        if isinstance(x, E.DetClass):
            return E.DetClass(go(x.arg))
        if isinstance(x, E.Psi):
            if through_psi:
                return E.Psi(x.k, go(x.arg))
            return E.Pull(morphism, x)
        if isinstance(x, (E.Line, E.Bundle)):
            composed = compose(x.name)
            return composed if composed is not None else E.Pull(morphism, x)
        if isinstance(x, E.Pull):
            return E.Pull(morphism, x)
        raise VerifierError(f"unknown expression node {x!r}")

    return go(e)


def _replace_pulls(e: E.Expr, fn: Callable[[E.Pull], E.Expr]) -> E.Expr:
    if isinstance(e, E.Pull):
        return fn(e)
    if isinstance(e, (E.Line, E.Bundle, E.Unit, E.IntConst)):
        return e
    if isinstance(e, E.Sum):
        return E.Sum(tuple(_replace_pulls(t, fn) for t in e.terms))
    if isinstance(e, E.Neg):
        return E.Neg(_replace_pulls(e.arg, fn))
    if isinstance(e, E.Tensor):
        return E.Tensor(tuple(_replace_pulls(f, fn) for f in e.factors))
    if isinstance(e, E.Power):
        return E.Power(_replace_pulls(e.base, fn), e.exponent)
    if isinstance(e, E.Dual):
        return E.Dual(_replace_pulls(e.arg, fn))
    if isinstance(e, E.Psi):
        return E.Psi(e.k, _replace_pulls(e.arg, fn))
    if isinstance(e, E.Theta):
        return E.Theta(e.k, _replace_pulls(e.arg, fn))
    if isinstance(e, E.Tau):
        return E.Tau(e.p, _replace_pulls(e.arg, fn))
    if isinstance(e, E.DetClass):
        return E.DetClass(_replace_pulls(e.arg, fn))
    raise VerifierError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Rule-application helpers (also used directly by tests and the CLI)

def adams_to_frobenius(geom: Geometry, gl: P.GradedLine,
                       rules: dict[str, RewriteRule]) -> P.GradedLine:
    """R1 on a line atom: psi^p wrapper -> absolute-Frobenius pullback wrapper."""
    _need(rules, "R1")
    slot, arg, exp = _sole_det(gl)
    wrappers, fname = slot
    if not wrappers or wrappers[0] != ("psi", geom.p):
        raise VerifierError("R1 expects a leading psi^p wrapper")
    morph = gl._morphisms[fname]
    out = _atom(morph, (("pull", geom.name_FS),) + wrappers[1:], arg, exp)
    return out.with_grade(gl.grade)


def insert_rank_zero_power(geom: Geometry, gl: P.GradedLine, l: int,
                           rules: dict[str, RewriteRule]
                           ) -> tuple[P.GradedLine, list[tuple[str, bool]]]:
    """R3: tensor gl with det Rf'((F_*O_X - p^n)^(x)l (x) H); refuses if l < n+2.

    Returns the (possibly unchanged) line plus the recorded side conditions.
    """
    _need(rules, "R3")
    _need(rules, "R8")
    n, p = geom.n, geom.p
    slot, arg, exp = _sole_det(gl)
    rank_ok = geom.table_xp.rank(PUSHED_STRUCTURE) == p**n
    diff = E.Sum((geom.pushed_structure(), E.Neg(E.IntConst(p**n))))
    inserted = E.Tensor((E.Power(diff, l), arg))
    conditions = [
        (f"rank(F_*O_X) = p^n = {p**n}", rank_ok),
        ("rank(F_*O_X - p^n) = 0", E.rank(diff, geom.table_xp) == 0),
        (f"l = {l} >= n+2 = {n + 2}", l >= n + 2),
        ("inserted summand class lies in I^(n+2)",
         P.argument_is_trivial(geom.fp, inserted)),
    ]
    if not all(h for _, h in conditions):
        return gl, conditions
    new_arg = E.Sum((E.Tensor((E.IntConst(exp), arg)), inserted))
    out = _atom(gl._morphisms[slot[1]], slot[0], new_arg, 1)
    return out.with_grade(gl.grade), conditions


# ---------------------------------------------------------------------------
# Theorem (I): the nine-step chain

def verify_arr_identity(n: int, p: int, e: E.Expr | None = None,
                       symbols: dict[str, int] | None = None,
                       rules: dict[str, RewriteRule] | None = None,
                       binomial_oracle: Callable[[int, int], S.BinomialWitness] | None = None,
                       geometry: Geometry | None = None) -> ProofTrace:
    """Replay the nine-step determinant-level chain for (n, p, E).

    The trace is verified iff every step's side conditions hold (including the
    univariate binomial-identity oracle behind the expansion steps), every
    rewritten argument matches the registered geometry semantically, and the
    final form equals the goal's right side atom-for-atom.
    """
    if symbols is None:
        symbols = {"L": 1}
    if e is None:
        e = geom_default_expr(symbols)
    geom = geometry or Geometry(n, p, symbols)
    rules = rule_set(n, p) if rules is None else rules
    oracle = binomial_oracle or S.binomial_identity_check

    m = p ** (n * (n + 2))
    a = p**n
    sign = (-1) ** (n + 1)
    theta_omega = E.Theta(p, geom.omega())
    j_e = E.canonicalize(geom.j_reduce(e))
    fso = geom.pushed_structure()

    lhs = P.psi_line(p, P.det_rf_atom(geom.f, e)) ** m
    rhs_expr = E.Tensor((tilde_inverse_expr(n, p, theta_omega), E.Psi(p, e)))
    rhs = P.det_rf_atom(geom.f, rhs_expr)
    trace = ProofTrace(lhs.render(), rhs.render(), n, p)

    def signed(x: E.Expr) -> E.Expr:
        return E.Neg(x) if sign < 0 else x

    def binom_sum(top_power: int) -> E.Expr:
        # sum_{i=0}^{n+1} C(n+2,i) FsO^(top_power - i) (-p^n)^i
        terms = [E.Tensor((E.IntConst(comb(n + 2, i) * (-a) ** i),
                           E.Power(fso, top_power - i)))
                 for i in range(n + 2)]
        return E.Sum(tuple(terms))

    def step1(cur: P.GradedLine):
        _need(rules, "R1")
        _need(rules, "R2")
        after = adams_to_frobenius(geom, cur, rules)
        slot, arg, exp = _sole_det(after)
        after = _atom(geom.f, (("detpull", geom.name_FS),), arg, exp)
        fs_tag = geom.tags.get(geom.name_FS)
        conds = [("p is prime", is_prime(p)),
                 (f"{geom.name_FS} is the absolute Frobenius of the base",
                  fs_tag is not None and fs_tag.kind == "absolute-frobenius-base"
                  and fs_tag.char == p),
                 ("pullback of det = det of the pulled-back complex", True),
                 ("argument class unchanged under the wrapper exchange",
                  _sole_det(cur)[1:] == (arg, exp))]
        return after, "R1,R2", _need(rules, "R1").anchor, \
            "replace psi^p by F_S^* and commute det with the pullback", conds

    def step2(cur: P.GradedLine):
        rule = _need(rules, "R2")
        slot, arg, exp = _sole_det(cur)
        after = _atom(geom.fp, (), j_e, exp)
        rename = {}
        for name in geom.table_x.names():
            for v_x, v_xp in zip(geom.ctx_x.roots[name],
                                 geom.ctx_xp.roots[geom.j_name(name)]):
                rename[v_x] = v_xp
        lam_x = geom.f.truncated(arg)
        lam_xp = geom.fp.truncated(j_e)
        square = geom.base_change_squares.get((geom.name_FS, geom.name_f))
        conds = [("cohomology commutes with base change (square registered)",
                  square == (geom.name_fp, geom.name_J)),
                 ("twist-side argument is the J-pullback of the original",
                  _rename_vars(lam_x, rename) == S.SplitClass(lam_xp.terms, None))]
        return after, "R2", rule.anchor, \
            "form the pulled-back family: det Rf'_*(J^* E)", conds

    def step3(cur: P.GradedLine):
        after, conds = insert_rank_zero_power(geom, cur, n + 2, rules)
        slot, arg, exp = _sole_det(cur)
        inserted = signed(E.Tensor((E.Power(E.Sum((fso, E.Neg(E.IntConst(a)))), n + 2), arg)))
        new_arg = E.Sum((E.Tensor((E.IntConst(exp), arg)), inserted))
        after = _atom(geom.fp, (), new_arg, 1).with_grade(cur.grade)
        conds = conds + [_class_equal_condition(cur, after),
                         ("det additivity folds the tensor power into the argument", True)]
        return after, "R3,R8", _need(rules, "R3").anchor, \
            "insert the det-trivial summand (F_*O_X - p^n)^(x)(n+2) (x) J^*E", conds

    def step4(cur: P.GradedLine):
        _need(rules, "KEQ")
        w = oracle(n, p)
        new_arg = E.Sum((
            E.Tensor((E.IntConst(m), j_e)),
            signed(E.Tensor((binom_sum(n + 2), j_e))),
            E.Neg(E.Tensor((E.IntConst(a ** (n + 2)), j_e))),
        ))
        after = _atom(geom.fp, (), new_arg, 1).with_grade(cur.grade)
        conds = [("binomial identity oracle: y*tilde(y) - p^(n(n+2)) = "
                  "(-1)^(n+1) (y - p^n)^(n+2)", bool(w)),
                 _class_equal_condition(cur, after)]
        return after, "KEQ", _need(rules, "KEQ").anchor, \
            "expand the rank-zero power binomially, splitting off the i = n+2 term", conds

    def step5(cur: P.GradedLine):
        _need(rules, "KEQ")
        new_arg = signed(E.Tensor((fso, binom_sum(n + 1), j_e)))
        after = _atom(geom.fp, (), new_arg, 1).with_grade(cur.grade)
        conds = [("the p^(n(n+2)) J^*E terms cancel", True),
                 ("one F_*O_X factor is extracted from the binomial sum", True),
                 _class_equal_condition(cur, after)]
        return after, "KEQ", _need(rules, "KEQ").anchor, \
            "cancel the constant terms and factor out F_*O_X", conds

    def step6(cur: P.GradedLine):
        rule = _need(rules, "R4")
        slot, arg, exp = _sole_det(cur)
        body, negated = (arg.arg, True) if isinstance(arg, E.Neg) else (arg, False)
        if not isinstance(body, E.Tensor):
            raise VerifierError("projection formula expects a tensor with an F_*O_X factor")
        factors = list(body.factors)
        fso_count = sum(1 for x in factors if x == fso)
        if fso_count != 1:
            raise VerifierError("projection formula needs exactly one F_*O_X factor")
        rest = [x for x in factors if x != fso]
        w_expr: E.Expr = rest[0] if len(rest) == 1 else E.Tensor(tuple(rest))
        if negated:
            w_expr = E.Neg(w_expr)
        after_arg = rule.action(geom.name_F, w_expr)
        after = _atom(geom.f, (), after_arg, exp).with_grade(cur.grade)
        fact = geom.factorizations.get(geom.name_f)
        conds = [("f = f' o F registered (relative Frobenius factorization)",
                  fact == (geom.name_fp, geom.name_F, PUSHED_STRUCTURE)),
                 ("pushforward algebra factor appears exactly once", fso_count == 1),
                 ("rank agreement across the projection formula",
                  E.rank(w_expr, geom.table_xp) ==
                  E.rank(after_arg, geom.table_x, {geom.name_F: geom.table_xp})),
                 ("F^*(F_*O_X (x) W) = theta^p(Omega_f) (x) F^*W (split-engine identity)",
                  geom.f.truncated(E.Pull(geom.name_F, arg)) ==
                  geom.f.truncated(E.Tensor((theta_omega, after_arg))))]
        return after, "R4", rule.anchor, \
            "projection formula: det Rf'_*(F_*O_X (x) W) = det Rf_*(F^* W)", conds

    def step7(cur: P.GradedLine):
        _need(rules, "R9")
        rule6 = _need(rules, "R6")
        slot, arg, exp = _sole_det(cur)
        if not isinstance(arg, E.Pull):
            raise VerifierError("expected a pending relative-Frobenius pullback")

        def compose(name: str) -> E.Expr | None:
            if name == PUSHED_STRUCTURE:
                return None  # stays F^*(F_*O_X) for rule R5
            if name.startswith("J_") and name[2:] in geom.table_x:
                return E.Pull(geom.name_FX, geom.symbol_expr(name[2:]))
            return None

        after_arg = distribute_pull(arg.arg, geom.name_F, compose, through_psi=True)
        after = _atom(geom.f, (), after_arg, exp).with_grade(cur.grade)
        conds = [("pullback distributes as a ring homomorphism", True),
                 ("F^* J^* composed into F_X^* (registered composition)",
                  geom.compositions.get((geom.name_F, geom.name_J)) == geom.name_FX),
                 _class_equal_condition(cur, after)]
        return after, "R9,R6", rule6.anchor, \
            "distribute F^* and compose F^* J^* = F_X^*", conds

    def step8(cur: P.GradedLine):
        rule5 = _need(rules, "R5")
        _need(rules, "R1")
        slot, arg, exp = _sole_det(cur)
        replacement = rule5.action()

        def resolve(pl: E.Pull) -> E.Expr:
            if pl.morphism == geom.name_F and pl.arg == fso:
                return replacement
            if pl.morphism == geom.name_FX:
                return E.Psi(p, pl.arg)
            return pl

        after_arg = _replace_pulls(arg, resolve)
        after = _atom(geom.f, (), after_arg, exp).with_grade(cur.grade)
        conds = [("F^* F_* O_X replaced by theta^p(Omega_f)", True),
                 ("F_X^* realized as psi^p", True),
                 _class_equal_condition(cur, after)]
        return after, "R5,R1", rule5.anchor, \
            "substitute the Bott class of Omega_f and realize psi^p", conds

    def step9(cur: P.GradedLine):
        _need(rules, "KEQ")
        after = _atom(geom.f, (), rhs_expr, 1).with_grade(cur.grade)
        conds = [("tilde-inverse notation expands to the binomial sum", True),
                 _class_equal_condition(cur, after)]
        return after, "KEQ", _need(rules, "KEQ").anchor, \
            "fold the sum into the tilde-inverse notation", conds

    script = [step1, step2, step3, step4, step5, step6, step7, step8, step9]
    cur = lhs
    for idx, stepfn in enumerate(script):
        label = f"({idx + 1})"
        try:
            after, rule_names, anchor, desc, conds = stepfn(cur)
        except (MissingRule, VerifierError, E.ExprError) as ex:
            trace.steps.append(TraceStep(label, "-", "-", "step could not be applied",
                                         cur.render(), cur.render(),
                                         [(str(ex), False)]))
            trace.fail(idx, str(ex))
            return trace
        after = after.with_grade(cur.grade)
        step = TraceStep(label, rule_names, anchor, desc, cur.render(), after.render(), conds)
        trace.steps.append(step)
        if not step.ok():
            bad = "; ".join(c for c, h in conds if not h)
            trace.fail(idx, f"side condition failed: {bad}")
            return trace
        cur = after

    if not cur.same_atoms(rhs):
        trace.fail(len(script) - 1, "final form does not match the goal right side")
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
    into the pulled-back family's symbols.
    """
    if symbols is None:
        symbols = {"L": 1}
    if e is None:
        e = geom_default_expr(symbols)
    geom = Geometry(n, p, symbols)
    rules = rule_set(n, p) if rules is None else rules

    symbols_t = {"g_" + name: rk for name, rk in symbols.items()}
    geom_t = Geometry(n, p, symbols_t, suffix="T")
    name_g, name_gp = "g", "gp"
    geom.tags[name_g] = MorphismTag(name_g, "base-change", p)
    geom.tags[name_gp] = MorphismTag(name_gp, "base-change-upstairs", p)
    geom.base_change_squares[(name_g, geom.name_f)] = (geom_t.name_f, name_gp)

    def gp_reduce(x: E.Expr) -> E.Expr:
        def on_symbol(name: str) -> E.Expr:
            if name == OMEGA:
                return geom_t.omega()
            if "g_" + name in geom_t.table_x:
                return geom_t.symbol_expr("g_" + name)
            return _fail_symbol(name, "g'^*")
        return _map_symbols(x, on_symbol)

    geom_t.ctx_x.pull_reducers[name_gp] = gp_reduce

    m = p ** (n * (n + 2))
    e_t = E.canonicalize(gp_reduce(e))
    theta_omega = E.Theta(p, geom.omega())
    rhs_expr = E.Tensor((tilde_inverse_expr(n, p, theta_omega), E.Psi(p, e)))
    rhs_expr_t = E.Tensor((tilde_inverse_expr(n, p, E.Theta(p, geom_t.omega())),
                           E.Psi(p, e_t)))

    tl = P.pull_line(name_g, P.psi_line(p, P.det_rf_atom(geom.f, e))) ** m
    br_goal = P.det_rf_atom(geom_t.f, rhs_expr_t)
    trace = ProofTrace(tl.render(), br_goal.render(), n, p)

    def record(label, rule_names, anchor, desc, before, after, conds) -> bool:
        step = TraceStep(label, rule_names, anchor, desc, before.render(), after.render(), conds)
        trace.steps.append(step)
        if not step.ok():
            bad = "; ".join(c for c, h in conds if not h)
            trace.fail(len(trace.steps) - 1, f"side condition failed: {bad}")
            return False
        return True

    try:
        # -- top edge: (10)-(13) ------------------------------------------------
        r1 = _need(rules, "R1")
        r2 = _need(rules, "R2")
        cur = tl
        after = P.pull_line(name_g, P.det_rf_atom(geom.f, e)) ** (p * m)
        if not record("(10)", "R1", r1.anchor, "psi^p of a line is its p-th power",
                      cur, after, [("graded-line Adams operation is the p-th power", True)]):
            return trace
        cur = after

        slot, arg, exp = _sole_det(cur)
        after = _atom(geom.f, (("detpull", name_g),), arg, exp)
        if not record("(11)", "R2", r2.anchor, "det commutes with the pullback",
                      cur, after, [("pullback of det = det of the pulled-back complex", True)]):
            return trace
        cur = after

        after = _atom(geom_t.f, (), e_t, p * m)
        if not record("(12)", "R2", r2.anchor,
                      "cohomology base change: det Rf'_*(g'^* E)", cur, after,
                      [("base-change square (g, f) registered",
                        geom.base_change_squares.get((name_g, geom.name_f))
                        == (geom_t.name_f, name_gp))]):
            return trace
        cur = after

        tr_corner = P.psi_line(p, P.det_rf_atom(geom_t.f, e_t)) ** m
        if not record("(13)", "R1", r1.anchor, "refold the p-th power into psi^p",
                      cur, tr_corner,
                      [("graded-line Adams operation is the p-th power", True)]):
            return trace

        # -- right edge: theorem (I) over the pulled-back family ----------------
        sub_right = verify_arr_identity(n, p, e_t, symbols_t, rules, geometry=geom_t)
        br_right = P.det_rf_atom(geom_t.f, rhs_expr_t)
        if not record("right", "R1..R9", "main chain over the pulled-back family",
                      "apply the verified identity to f_T and g'^*E",
                      tr_corner, br_right,
                      [("theorem (I) verified over the pulled-back family",
                        sub_right.verified)]):
            return trace

        # -- left edge: pull back the identity over the original family ---------
        sub_left = verify_arr_identity(n, p, e, symbols, rules, geometry=geom)
        bl = P.pull_line(name_g, P.det_rf_atom(geom.f, rhs_expr))
        if not record("left", "R1..R9", "pullback of the verified identity",
                      "pull the identity over f back along g", tl, bl,
                      [("theorem (I) verified over the original family",
                        sub_left.verified)]):
            return trace

        # -- bottom edge ---------------------------------------------------------
        cur = bl
        slot, arg, exp = _sole_det(cur)
        after = _atom(geom.f, (("detpull", name_g),), arg, exp)
        if not record("bottom(1)", "R2", r2.anchor, "det commutes with the pullback",
                      cur, after, [("pullback of det = det of the pulled-back complex", True)]):
            return trace
        cur = after

        after = _atom(geom_t.f, (), E.Pull(name_gp, rhs_expr), exp)
        if not record("bottom(2)", "R2", r2.anchor,
                      "cohomology base change along the square (g, g')", cur, after,
                      [("base-change square (g, f) registered",
                        geom.base_change_squares.get((name_g, geom.name_f))
                        == (geom_t.name_f, name_gp)),
                       _class_equal_condition(
                           P.det_rf_atom(geom_t.f, E.Pull(name_gp, rhs_expr)) ** exp, after)]):
            return trace
        cur = after

        r9 = _need(rules, "R9")
        slot, arg, exp = _sole_det(cur)
        distributed = distribute_pull(arg.arg, name_gp, lambda name: None, through_psi=False)
        after = _atom(geom_t.f, (), distributed, exp).with_grade(cur.grade)
        if not record("bottom(3)", "R9", r9.anchor,
                      "distribute g'^* through the ring structure", cur, after,
                      [_class_equal_condition(cur, after)]):
            return trace
        cur = after

        r7 = _need(rules, "R7")
        slot, arg, exp = _sole_det(cur)
        swapped = _replace_pulls(
            arg, lambda pl: r7.action(pl) if isinstance(pl.arg, E.Psi) else pl)
        after = _atom(geom_t.f, (), swapped, exp).with_grade(cur.grade)
        if not record("bottom(4)", "R7", r7.anchor,
                      "commute g'^* past the Adams operation", cur, after,
                      [("psi^k g^* = g^* psi^k applied", True),
                       _class_equal_condition(cur, after)]):
            return trace
        cur = after

        slot, arg, exp = _sole_det(cur)
        renamed = _replace_pulls(arg, lambda pl: gp_reduce(pl.arg)
                                 if pl.morphism == name_gp else pl)
        after = _atom(geom_t.f, (), renamed, exp).with_grade(cur.grade)
        if not record("bottom(5)", "R9", r9.anchor,
                      "rename pulled symbols into the pulled-back family's table "
                      "(Omega pulls back to Omega)", cur, after,
                      [_class_equal_condition(cur, after)]):
            return trace
        br_left = after

        square = br_left.same_atoms(br_right)
        record("square", "-", "composite paths around the square",
               "compare the two routes into the bottom-right corner",
               br_left, br_right, [("both composite paths agree", square)])
    except (MissingRule, VerifierError, E.ExprError) as ex:
        trace.steps.append(TraceStep("-", "-", "-", "edge could not be applied",
                                     "-", "-", [(str(ex), False)]))
        trace.fail(len(trace.steps) - 1, str(ex))
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
    trace = verify_arr_identity(n, p, e, symbols, geometry=geom)

    a = p**n
    theta_omega = E.Theta(p, geom.omega())
    lp2 = E.Power(E.Line(line), p * p)
    exponents = [comb(n + 2, i) * a**i for i in range(n + 2)]
    lambda_exprs = []
    product = P.GradedLine.trivial()
    for i in range(n + 2):
        signed_arg = E.Tensor((E.IntConst((-1) ** (n + 1 + i)),
                               E.Power(theta_omega, n + 1 - i), lp2))
        lambda_exprs.append(E.canonicalize(signed_arg))
        product = product * (P.det_rf_atom(geom.f, signed_arg) ** exponents[i])

    rhs_expr = E.Tensor((tilde_inverse_expr(n, p, theta_omega), E.Psi(p, e)))
    rhs = P.det_rf_atom(geom.f, rhs_expr)
    left_exponent = p ** (n * (n + 2) + 1)
    lhs_exp_ok = left_exponent == p * p ** (n * (n + 2))
    conds = [("lambda product equals the chain's right side", product.same_atoms(rhs)),
             (f"left exponent p^(n(n+2)+1) = {left_exponent}", lhs_exp_ok)]
    step = TraceStep("(km)", "KEQ", "det additivity over the binomial sum",
                     "split det Rf_*(tilde (x) L^(p^2)) into lambda factors",
                     rhs.render(), product.render(), conds)
    trace.steps.append(step)
    if not step.ok():
        trace.fail(len(trace.steps) - 1, "lambda expansion does not match")

    factors = [f"det_rf[{geom.name_f}]({E.print_expr(x)})^{c}"
               for x, c in zip(lambda_exprs, exponents)]
    return KnudsenMumford(n, p, left_exponent, exponents, factors, trace)
