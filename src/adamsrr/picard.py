"""Graded determinant-of-cohomology lines and the Deligne pairing.

A GradedLine is a formal tensor word in atoms: free line symbols,
det-of-pushforward atoms det_rf[f](e), and psi/pullback wrappers around
those.  Tensor adds grades.  Grades are tracked, but the commutation sign
(-1)^(grade*grade) of the graded Picard category is not modelled: a line is
a commutative word, so the order of factors is not recorded.

Det atoms are compared through the truncated filtration invariant of their
argument class (the class modulo I^(n+2), I the augmentation ideal of the
upstairs ring, n the relative dimension of the morphism): determinants of
cohomology are additive in the argument and kill I^(n+2), which is exactly
the vanishing that makes the pairing multilinear and the rank-zero-power
reduction fire.  The factored argument expressions are retained for display
and for recording which reduction applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import expr as E
from . import splitting as S


class PicardError(E.ExprError):
    pass


class GradeUndetermined(PicardError):
    pass


class RankMismatch(PicardError):
    pass


# ---------------------------------------------------------------------------
# Morphisms

@dataclass(frozen=True)
class Morphism:
    """A projective morphism tag: name, relative dimension, upstairs roots."""

    name: str
    rel_dim: int
    upstairs: S.SplitContext = field(compare=False, repr=False)

    def eval_arg(self, e: E.Expr) -> S.SplitClass:
        return S.eval_expr(e, self.upstairs)

    def truncated(self, e: E.Expr, cutoff_shift: int = 2) -> S.SplitClass:
        """Argument class modulo I^(n + cutoff_shift); memoized per context."""
        cutoff = self.rel_dim + cutoff_shift
        if cutoff_shift < 2:
            # a lower cutoff is a further truncation of the cutoff-2 expansion
            key = (e, cutoff)
            hit = self.upstairs._trunc_cache.get(key)
            if hit is not None:
                return hit
            wide = self.truncated(e, 2)
            out = wide.degrees(high=cutoff)
            self.upstairs._trunc_cache[key] = out
            return out
        return S.truncated_eval(e, self.upstairs, cutoff)


def make_morphism(name: str, rel_dim: int, table: E.SymbolTable) -> Morphism:
    return Morphism(name, rel_dim, S.SplitContext(table))


# ---------------------------------------------------------------------------
# Grades

class GradeExpr:
    """Exact linear combination of grade symbols plus an integer part."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict[str, Fraction] | None = None, const=0):
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if v}
        self.const = Fraction(const)

    @staticmethod
    def of(value) -> "GradeExpr":
        if isinstance(value, GradeExpr):
            return value
        return GradeExpr(const=value)

    def __add__(self, other) -> "GradeExpr":
        other = GradeExpr.of(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            nv = terms.get(k, Fraction(0)) + v
            if nv:
                terms[k] = nv
            else:
                terms.pop(k, None)
        return GradeExpr(terms, self.const + other.const)

    def __neg__(self) -> "GradeExpr":
        return GradeExpr({k: -v for k, v in self.terms.items()}, -self.const)

    def __sub__(self, other) -> "GradeExpr":
        return self + (-GradeExpr.of(other))

    def scale(self, c) -> "GradeExpr":
        c = Fraction(c)
        return GradeExpr({k: v * c for k, v in self.terms.items()}, self.const * c)

    def is_concrete(self) -> bool:
        return not self.terms and self.const.denominator == 1

    def as_int(self) -> int:
        if not self.is_concrete():
            raise GradeUndetermined(f"grade is symbolic: {self}")
        return int(self.const)

    def __eq__(self, other) -> bool:
        other = GradeExpr.of(other)
        return self.terms == other.terms and self.const == other.const

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.const))

    def __str__(self) -> str:
        parts = []
        for k in sorted(self.terms):
            v = self.terms[k]
            parts.append(k if v == 1 else f"{v}*{k}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def chi_grade(f: Morphism, e: E.Expr) -> GradeExpr:
    """Symbolic Euler-characteristic grade of det_rf[f](e).

    Keyed by the argument class modulo I^(n+1); Euler characteristics of a
    relative n-fold kill I^(n+1), one degree below the determinant's kernel.
    """
    trunc = f.truncated(e, cutoff_shift=1)
    terms: dict[str, Fraction] = {}
    for m, c in trunc.terms.items():
        body = "*".join(f"{v}^{k}" if k != 1 else v for v, k in m) or "1"
        key = f"chi[{f.name}]({body})"
        terms[key] = terms.get(key, Fraction(0)) + c
    return GradeExpr(terms)


# ---------------------------------------------------------------------------
# Graded lines

Wrapper = tuple  # ("psi", k) | ("pull", name) | ("detpull", name)
Slot = tuple  # (wrappers: tuple[Wrapper, ...], morphism name)


class GradedLine:
    """Element of the Picard model: free lines, det slots, and a grade.

    `dets` maps a slot (wrapper chain, morphism) to its truncated-filtration
    class (the semantic invariant, additive under tensor) plus a display list
    of (argument expression, exponent) contributions.
    """

    __slots__ = ("free", "dets", "grade", "_morphisms")

    def __init__(self, free=None, dets=None, grade=None, morphisms=None):
        self.free: dict[str, int] = {k: v for k, v in (free or {}).items() if v}
        self.dets: dict[Slot, tuple[S.SplitClass, tuple[tuple[E.Expr, int], ...]]] = dets or {}
        self.grade: GradeExpr = GradeExpr.of(grade or 0)
        self._morphisms: dict[str, Morphism] = morphisms or {}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def trivial() -> "GradedLine":
        return GradedLine()

    @staticmethod
    def free_line(name: str, grade: int = 0) -> "GradedLine":
        return GradedLine(free={name: 1}, grade=GradeExpr(const=grade))

    # -- group structure -----------------------------------------------------
    def tensor(self, other: "GradedLine") -> "GradedLine":
        free = dict(self.free)
        for k, v in other.free.items():
            nv = free.get(k, 0) + v
            if nv:
                free[k] = nv
            else:
                free.pop(k, None)
        dets = dict(self.dets)
        for slot, (lam, disp) in other.dets.items():
            if slot in dets:
                lam0, disp0 = dets[slot]
                dets[slot] = (lam0 + lam, disp0 + disp)
            else:
                dets[slot] = (lam, disp)
        dets = {slot: v for slot, v in dets.items() if not _slot_empty(v)}
        morphs = {**self._morphisms, **other._morphisms}
        return GradedLine(free, dets, self.grade + other.grade, morphs)

    __mul__ = tensor

    def inverse(self) -> "GradedLine":
        free = {k: -v for k, v in self.free.items()}
        dets = {slot: (-lam, tuple((e, -x) for e, x in disp))
                for slot, (lam, disp) in self.dets.items()}
        return GradedLine(free, dets, -self.grade, dict(self._morphisms))

    def power(self, k: int) -> "GradedLine":
        if k == 0:
            return GradedLine.trivial()
        base = self if k > 0 else self.inverse()
        free = {n: v * abs(k) for n, v in base.free.items()}
        dets = {slot: (lam * abs(k), tuple((e, x * abs(k)) for e, x in disp))
                for slot, (lam, disp) in base.dets.items()}
        return GradedLine(free, dets, base.grade.scale(abs(k)), dict(base._morphisms))

    __pow__ = power

    def with_grade(self, grade) -> "GradedLine":
        return GradedLine(dict(self.free), dict(self.dets), GradeExpr.of(grade),
                          dict(self._morphisms))

    # -- comparison ----------------------------------------------------------
    def is_trivial(self) -> bool:
        return not self.free and all(lam.is_zero() for lam, _ in self.dets.values())

    def same_atoms(self, other: "GradedLine") -> bool:
        """Underlying (ungraded) line equality via the semantic invariants."""
        if self.free != other.free:
            return False
        keys = set(self.dets) | set(other.dets)
        zero = S.SplitClass()
        for slot in keys:
            lam_a = self.dets.get(slot, (zero, ()))[0]
            lam_b = other.dets.get(slot, (zero, ()))[0]
            if lam_a != lam_b:
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedLine):
            return NotImplemented
        return self.same_atoms(other) and self.grade == other.grade

    def __hash__(self):
        raise TypeError("GradedLine is not hashable")

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        parts: list[str] = []
        for name in sorted(self.free):
            x = self.free[name]
            parts.append(name if x == 1 else f"{name}^{x}")
        for slot in sorted(self.dets, key=repr):
            _, disp = self.dets[slot]
            for e, x in disp:
                if x == 0:
                    continue
                body = _render_slot_atom(slot, e)
                parts.append(body if x == 1 else f"{body}^{x}")
        text = " (x) ".join(parts) if parts else "1 (trivial)"
        return f"{text} | grade= {self.grade}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GradedLine({self.render()})"


def _slot_empty(v) -> bool:
    lam, disp = v
    return lam.is_zero() and not any(x for _, x in disp)


def _render_slot_atom(slot: Slot, e: E.Expr) -> str:
    wrappers, fname = slot
    body = f"det_rf[{fname}]({E.print_expr(e)})"
    for w in reversed(wrappers):
        if w[0] == "psi":
            body = f"psi^{w[1]}({body})"
        elif w[0] == "pull":
            body = f"{w[1]}^*({body})"
        elif w[0] == "detpull":
            body = f"det[{w[1]}^* R{fname}_*]({E.print_expr(e)})"
    return body


# ---------------------------------------------------------------------------
# Det atoms

def det_rf_atom(f: Morphism, e: E.Expr, wrappers: tuple = ()) -> GradedLine:
    """The graded line det Rf_*(e) (optionally under psi/pullback wrappers)."""
    e = E.canonicalize(e)
    lam = f.truncated(e)
    slot = (wrappers, f.name)
    grade = chi_grade(f, e)
    for w in wrappers:
        if w[0] == "psi":
            grade = grade.scale(w[1])
    return GradedLine(dets={slot: (lam, ((e, 1),))}, grade=grade, morphisms={f.name: f})


def psi_line(k: int, gl: GradedLine) -> GradedLine:
    """Unevaluated Adams operation on a line; on free lines it is the k-th power."""
    free = {n: v * k for n, v in gl.free.items()}
    dets = {((("psi", k),) + slot[0], slot[1]): v for slot, v in gl.dets.items()}
    return GradedLine(free, dets, gl.grade.scale(k), dict(gl._morphisms))


def pull_line(g: str, gl: GradedLine) -> GradedLine:
    """Pullback of a graded line along the base-change morphism named g."""
    free = {f"{g}^*({n})": v for n, v in gl.free.items()}
    dets = {((("pull", g),) + slot[0], slot[1]): v for slot, v in gl.dets.items()}
    return GradedLine(free, dets, gl.grade, dict(gl._morphisms))


# ---------------------------------------------------------------------------
# Normalization

def expand_top(e: E.Expr) -> list[tuple[int, E.Expr]]:
    """Top-level multilinear expansion into (integer coeff, tensor monomial).

    Sums distribute; integer constants and signs become coefficients; powers
    and operator terms stay atomic so factored shapes survive.
    """
    e = E.canonicalize(e)
    if isinstance(e, E.Sum):
        out: list[tuple[int, E.Expr]] = []
        for t in e.terms:
            out.extend(expand_top(t))
        return out
    if isinstance(e, E.Neg):
        return [(-c, m) for c, m in expand_top(e.arg)]
    if isinstance(e, E.IntConst):
        return [(e.value, E.UNIT)] if e.value else []
    if isinstance(e, E.Unit):
        return [(1, E.UNIT)]
    if isinstance(e, E.Tensor):
        acc: list[tuple[int, list[E.Expr]]] = [(1, [])]
        for f in e.factors:
            fs = expand_top(f)
            acc = [(c0 * c1, facs + _factors_of(m)) for c0, facs in acc for c1, m in fs]
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


def _factors_of(m: E.Expr) -> list[E.Expr]:
    if isinstance(m, E.Tensor):
        return list(m.factors)
    if isinstance(m, E.Unit):
        return []
    return [m]


def argument_is_trivial(f: Morphism, e: E.Expr) -> bool:
    """True iff the argument class lies in I^(n+2), so det Rf_*(e) ~ O."""
    return f.truncated(e).is_zero()


def triviality_conditions(f: Morphism, e: E.Expr) -> list[tuple[str, bool]]:
    """Recorded side conditions for the rank-zero-power reduction shape.

    Inspects the factored form for Power(base, l) factors with rank-0 base
    and reports the multiplicity test l >= n+2 alongside the exact criterion.
    """
    conds: list[tuple[str, bool]] = []
    table = f.upstairs.table
    best_l = 0
    saw_rank0 = False
    for _, mono in expand_top(e):
        mult: dict[str, int] = {}
        for factor in _factors_of(mono):
            base, l = (factor.base, factor.exponent) if isinstance(factor, E.Power) else (factor, 1)
            if l < 0:
                continue
            try:
                r = E.rank(base, table)
            except E.ExprError:
                continue
            if r == 0:
                saw_rank0 = True
                key = E.print_expr(base)
                mult[key] = mult.get(key, 0) + l
        if mult:
            best_l = max(best_l, max(mult.values()))
    conds.append(("rank-zero factor present (rk H0 = rk H1)", saw_rank0))
    conds.append((f"multiplicity l = {best_l} >= n+2 = {f.rel_dim + 2}", best_l >= f.rel_dim + 2))
    conds.append(("argument class in I^(n+2)", argument_is_trivial(f, e)))
    return conds


def reduce_triviality(gl: GradedLine) -> GradedLine:
    """Drop det atoms whose argument class is in I^(n+2); idempotent."""
    dets = {}
    for slot, (lam, disp) in gl.dets.items():
        f = gl._morphisms[slot[1]]
        kept = tuple((e, x) for e, x in disp if x and not argument_is_trivial(f, e))
        if kept or not lam.is_zero():
            dets[slot] = (lam, kept)
    return GradedLine(dict(gl.free), dets, gl.grade, dict(gl._morphisms))


def normalize(gl: GradedLine) -> GradedLine:
    """Det-additivity splitting + triviality reduction + merge/sort; idempotent.

    The semantic slot invariants are untouched (they are canonical already);
    this canonicalizes the displayed factorization.
    """
    dets = {}
    for slot, (lam, disp) in gl.dets.items():
        f = gl._morphisms[slot[1]]
        merged: dict[str, tuple[E.Expr, int]] = {}
        for e, x in disp:
            if not x:
                continue
            for c, mono in expand_top(e):
                if argument_is_trivial(f, mono):
                    continue
                key = E.print_expr(mono)
                prev = merged.get(key)
                merged[key] = (mono, (prev[1] if prev else 0) + c * x)
        kept = tuple((mono, c) for _, (mono, c) in sorted(merged.items()) if c)
        if kept or not lam.is_zero():
            dets[slot] = (lam, kept)
    return GradedLine(dict(gl.free), dets, gl.grade, dict(gl._morphisms))


# ---------------------------------------------------------------------------
# Deligne pairing

@dataclass(frozen=True)
class PairingExpr:
    """Formal pairing <l_0, ..., l_n> of n+1 line classes over one morphism."""

    morphism: Morphism
    entries: tuple[E.Expr, ...]

    def __post_init__(self):
        n = self.morphism.rel_dim
        if len(self.entries) != n + 1:
            raise PicardError(
                f"pairing over {self.morphism.name} needs {n + 1} entries, got {len(self.entries)}"
            )
        object.__setattr__(self, "entries",
                           tuple(sorted((E.canonicalize(e) for e in self.entries),
                                        key=E.print_expr)))

    def __str__(self) -> str:
        return "<" + ", ".join(E.print_expr(e) for e in self.entries) + f">[{self.morphism.name}]"


def pairing_to_det(pr: PairingExpr) -> GradedLine:
    """Reduce <L_0,...,L_n> to det_rf[f]((L_0 - 1) (x) ... (x) (L_n - 1))."""
    table = pr.morphism.upstairs.table
    for entry in pr.entries:
        r = E.rank(entry, table)
        if r != 1:
            raise RankMismatch(f"pairing entry {E.print_expr(entry)} has rank {r}, expected 1")
    arg = _tensor_of([E.Sum((entry, E.Neg(E.UNIT))) for entry in pr.entries])
    return normalize(det_rf_atom(pr.morphism, arg))


def det_difference_pairing(f: Morphism, pairs: list[tuple[E.Expr, E.Expr]]) -> GradedLine:
    """<det(E_0 - F_0), ..., det(E_n - F_n)> as det_rf[f]((x)_i (E_i - F_i))."""
    if len(pairs) != f.rel_dim + 1:
        raise PicardError(f"need {f.rel_dim + 1} pairs, got {len(pairs)}")
    table = f.upstairs.table
    for ei, fi in pairs:
        re_, rf_ = E.rank(ei, table), E.rank(fi, table)
        if re_ != rf_:
            raise RankMismatch(
                f"rank mismatch in pair ({E.print_expr(ei)}, {E.print_expr(fi)}): {re_} != {rf_}"
            )
    arg = _tensor_of([E.Sum((ei, E.Neg(fi))) for ei, fi in pairs])
    return normalize(det_rf_atom(f, arg))


def _tensor_of(factors: list[E.Expr]) -> E.Expr:
    if not factors:
        return E.UNIT
    if len(factors) == 1:
        return factors[0]
    return E.Tensor(tuple(factors))
