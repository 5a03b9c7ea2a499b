"""Graded determinant-of-cohomology lines and the Deligne pairing.

A GradedLine is a formal tensor word in det-of-pushforward atoms
det_rf[f](e) and psi/pullback wrappers around those, held as its det slots.
Its grade is not stored: it is read off the slot classes, as in Deligne's
determinant functor, where det V has degree rk V.  Each slot contributes
`chi_grade` of its class, a linear form in the Euler-characteristic symbols
chi[f](m); tensor therefore adds grades and a power scales them.  The
wrappers psi^k, g^* and F_S^* keep ranks, so they keep the grade.  The
commutation sign (-1)^(grade*grade) of the graded Picard category is not
modelled: a line is a commutative word, so the order of factors is not
recorded, and two lines are equal when their slot classes are, which makes
their grades equal too.

Det atoms are compared through the truncated filtration invariant of their
argument class (the class modulo I^(n+2), I the augmentation ideal of the
upstairs ring, n the relative dimension of the morphism): determinants of
cohomology are additive in the argument and kill I^(n+2), which is exactly
the vanishing that makes the pairing multilinear and the rank-zero-power
reduction fire.  The invariant is `splitting.packed_eval`'s packed class, in
the e-coordinates of each bundle's roots, whose top field is the weighted
degree: a grade keeps its terms of degree at most n by one int compare each,
and names each by its packed monomial, e_k of a bundle B of rank >= 2 being
gamma^k(B); nothing is unpacked into root monomials.  The factored
argument expressions are retained for display and for recording which
reduction applied.

Per-argument work is paid once per distinct argument: `normalize`'s
expansion lives on the canonical node (`expr.expand_top`), and a grade's
symbols on its morphism, keyed by the packed monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as E
from . import splitting as S


class PicardError(E.ExprError):
    pass


class RankMismatch(PicardError):
    pass


# ---------------------------------------------------------------------------
# Morphisms

@dataclass(frozen=True)
class Morphism:
    """A projective morphism tag: name, relative dimension, upstairs roots, and `chi_grade`'s symbols."""

    name: str
    rel_dim: int
    upstairs: S.SplitContext = field(compare=False, repr=False)
    _symbols: dict[int, S.Monomial] = field(default_factory=dict, init=False, compare=False, repr=False)

    def truncated(self, e: E.Expr) -> S.SplitClass:
        """Argument class modulo I^(n+2), packed; memoized per context."""
        return S.packed_eval(e, self.upstairs, self.rel_dim + 2)


def make_morphism(name: str, rel_dim: int, table: E.SymbolTable) -> Morphism:
    return Morphism(name, rel_dim, S.SplitContext(table))


# ---------------------------------------------------------------------------
# Grades

def chi_grade(f: Morphism, lam: S.SplitClass) -> S.SplitClass:
    """Symbolic Euler-characteristic grade of a det slot over f of packed class lam.

    Linear in symbols chi[f](m), and read modulo I^(n+1): Euler characteristics
    of a relative n-fold kill I^(n+1), one degree below the determinant's
    kernel, so the grade keeps lam's terms whose top field, the weighted
    degree, is <= n.  Each names its packed monomial m as it is, in the text
    of `_Packing.text` (a line's root, gamma^k(B) for e_k of a bundle B of
    rank >= 2); a symbol is built once per packed m, in the morphism's memo.
    """
    symbols, pk, terms = f._symbols, lam.space, {}
    top = (f.rel_dim + 1) << pk.shift
    for m, c in lam.terms.items():
        if m < top:
            symbol = symbols.get(m)
            if symbol is None:
                symbol = symbols[m] = ((f"chi[{f.name}]({pk.text(m)})", 1),)
            terms[symbol] = c
    return S.SplitClass._of(terms, None)  # lam has no zero term


# ---------------------------------------------------------------------------
# Graded lines

Wrapper = tuple  # ("psi", k) | ("pull", name) | ("detpull", name)
Slot = tuple  # (wrappers: tuple[Wrapper, ...], Morphism)


class GradedLine:
    """Element of the Picard model: its det slots.

    `dets` maps a slot (wrapper chain, `Morphism`) to its packed truncated-filtration
    class (the semantic invariant, additive under tensor) plus a display list
    of (argument expression, exponent) contributions.  The grade is read off
    the slot classes on use.  A line is not mutated after construction:
    nothing writes `dets` later, so `render` keeps its text in `_text`, and a
    line to the power 1 is the line itself.
    """

    __slots__ = ("dets", "_text")

    def __init__(self, dets=None):
        self.dets: dict[Slot, tuple[S.SplitClass, tuple[tuple[E.Expr, int], ...]]] = dets or {}
        self._text = None

    @property
    def grade(self) -> S.SplitClass:
        """The sum of `chi_grade` over the slot classes; wrappers keep ranks, so they add nothing."""
        return sum((chi_grade(f, lam) for (_, f), (lam, _) in self.dets.items()), S.SplitClass())

    # -- group structure -----------------------------------------------------
    def tensor(self, other: "GradedLine") -> "GradedLine":
        dets = dict(self.dets)
        for slot, (lam, disp) in other.dets.items():
            if slot in dets:
                lam0, disp0 = dets[slot]
                dets[slot] = (lam0 + lam, disp0 + disp)
            else:
                dets[slot] = (lam, disp)
        return GradedLine({slot: (lam, disp) for slot, (lam, disp) in dets.items()
                           if disp or not lam.is_zero()})

    __mul__ = tensor

    def power(self, k: int) -> "GradedLine":
        if k == 1:
            return self
        if k == 0:
            return GradedLine()
        return GradedLine({slot: (lam * k, tuple((e, x * k) for e, x in disp))
                           for slot, (lam, disp) in self.dets.items()})

    __pow__ = power

    # -- comparison ----------------------------------------------------------
    def is_trivial(self) -> bool:
        return all(lam.is_zero() for lam, _ in self.dets.values())

    def __eq__(self, other) -> bool:
        """Slot-class equality, through the semantic invariants; equal lines have equal grades."""
        if not isinstance(other, GradedLine):
            return NotImplemented
        zero = S.SplitClass()
        return all(self.dets.get(slot, (zero, ()))[0] == other.dets.get(slot, (zero, ()))[0]
                   for slot in set(self.dets) | set(other.dets))

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        """The tensor word: each slot's display factors, the slots in a fixed order."""
        if self._text is not None:
            return self._text
        parts: list[str] = []
        for slot in sorted(self.dets, key=lambda slot: repr((slot[0], slot[1].name))):
            _, disp = self.dets[slot]
            for e, x in disp:
                body = _render_slot_atom(slot, e)
                parts.append(body if x == 1 else f"{body}^{x}")
        self._text = " (x) ".join(parts) if parts else "1 (trivial)"
        return self._text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GradedLine({self.render()})"


def _render_slot_atom(slot: Slot, e: E.Expr) -> str:
    wrappers, fname = slot[0], slot[1].name
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
    """The graded line det Rf_*(e) under wrappers: one det slot holding e's packed class."""
    e = E.canonicalize(e)
    return GradedLine({(wrappers, f): (f.truncated(e), ((e, 1),))})


def psi_line(k: int, gl: GradedLine) -> GradedLine:
    """Unevaluated Adams operation on a line; psi^k keeps ranks, so the grade is kept."""
    return GradedLine({((("psi", k),) + slot[0], slot[1]): v for slot, v in gl.dets.items()})


def pull_line(g: str, gl: GradedLine) -> GradedLine:
    """Pullback of a graded line along the base-change morphism named g."""
    return GradedLine({((("pull", g),) + slot[0], slot[1]): v for slot, v in gl.dets.items()})


# ---------------------------------------------------------------------------
# Normalization

def argument_is_trivial(f: Morphism, e: E.Expr) -> bool:
    """True iff the argument class lies in I^(n+2), so det Rf_*(e) ~ O."""
    return f.truncated(e).is_zero()


def normalize(gl: GradedLine) -> GradedLine:
    """Det-additivity splitting + triviality reduction + merge/sort; idempotent.

    The semantic slot invariants are untouched (they are canonical already);
    this canonicalizes the displayed factorization.  Expansions and
    triviality tests are memos, so a second pass recomputes neither.
    """
    dets = {}
    for slot, (lam, disp) in gl.dets.items():
        f = slot[1]
        merged: dict[str, tuple[E.Expr, int]] = {}
        for e, x in disp:
            for c, mono in E.expand_top(e):
                if argument_is_trivial(f, mono):
                    continue
                key = E.print_expr(mono)
                prev = merged.get(key)
                merged[key] = (mono, (prev[1] if prev else 0) + c * x)
        kept = tuple((mono, c) for _, (mono, c) in sorted(merged.items()) if c)
        if kept or not lam.is_zero():
            dets[slot] = (lam, kept)
    return GradedLine(dets)


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
    arg = E.Tensor(tuple(E.Sum((entry, E.Neg(E.UNIT))) for entry in pr.entries))
    return normalize(det_rf_atom(pr.morphism, arg))
