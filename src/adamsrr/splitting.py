"""Splitting-principle evaluator: exact Laurent classes over Chern roots.

A declared bundle of rank r contributes r root variables; evaluation maps the
expression operations to exact polynomial arithmetic (psi^k = k-th power
substitution on roots, dual = psi^-1, theta^k = product of truncated geometric
series over the constituent line monomials, det = product of constituents);
theta and tau form at most MAX_LAURENT_TERMS terms, and x^j is refused
unless one of its two bounds on terms (its exponent vectors, the box its
exponents span) is within it; x^j squares when that box forces products to
collide, and otherwise shares its j factors among the terms of x, one term
at a time; a negative power takes a line monomial as its base.
`SplitClass` is the package's one exact
polynomial class: it also carries the y-polynomial witness for the binomial
identity behind the tilde-inverse, whose int coefficient lists are read off
the expansion of the chain's own `tilde_inverse_expr`, and the classes of the
intersection-ring model in `chow`.

The truncated ring (classes mod I^cutoff, I the augmentation ideal) is kept
in e-coordinates: every class the evaluator builds is symmetric in each
bundle's roots, so `packed_eval` holds a bundle as the elementary symmetric
functions e_1..e_r of its u = x - aug(x), e_k of weight k, packed with the
weighted degree into one int per monomial.  Every node is built there by its
own rule, as psi^k of the node (dual being psi^-1): psi^k is a ring map moved
down to the symbols; theta^k, tau_p and det are multiplicative classes, power
series in the power sums of their argument (Fulton & Lang, Riemann-Roch
Algebra, ch. I-III), theta^k and tau_p of any argument of rank >= 0, where
the Laurent route takes only an effective one; and a power of either sign,
of a base of any rank but 0, is one finite binomial sum in the powers of its
base's part in the augmentation ideal, so no Laurent class is read.  Each
node refuses in its own rule, and an operator on an opaque symbol by the one
rule both routes share, `_refuse_opaque`.  A packed int is always an
e-monomial; `truncated_eval` and `chow` unpack it into root monomials through
`_Packing.unpack`, the one change of basis, which builds each e-monomial's
root image once per packing from tuple monomials; a packed class prints, and
the grades of `picard` name, each e-monomial as it is, through
`_Packing.text`.  The oracle `truncated_filtration` expands a Laurent class
straight into root monomials, each monomial's binomial expansion memoized
process-wide, and shares no packed code with `packed_eval`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, inf, prod

from .expr import (
    LINE,
    Bundle,
    DetClass,
    Dual,
    Expr,
    ExprError,
    IntConst,
    Line,
    Neg,
    Power,
    Psi,
    Pull,
    Sum,
    SymbolTable,
    Tau,
    Tensor,
    Theta,
    Unit,
    canonicalize,
    expand_top,
    map_children,
    rank,
)


class EvalError(ExprError):
    pass


class NonEffectiveError(EvalError):
    pass


class ContextMismatch(EvalError):
    pass


Monomial = tuple[tuple[str, int], ...]  # sorted (variable, nonzero exponent)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a)
    for v, e in b:
        ne = d.get(v, 0) + e
        if ne:
            d[v] = ne
        else:
            d.pop(v, None)
    return tuple(sorted(d.items()))


def _mono_pow(m: Monomial, k: int) -> Monomial:
    return tuple((v, e * k) for v, e in m) if k else ()


def _is_integral(c) -> bool:
    return isinstance(c, int) or c.denominator == 1


class SplitClass:
    """Laurent polynomial with exact rational coefficients in root variables.

    Coefficients are Fractions or plain ints (exact either way; ints are kept
    unboxed for speed and compare equal to the same Fraction).  `space` is a
    space name, or the `_Packing` whose ints key a truncated class; adding or
    comparing classes of two spaces raises `ContextMismatch`.  A class is
    not mutated after construction, so `str` keeps its text in `_text`; `_of`
    builds a class from a dict that already holds no zero coefficient.
    """

    __slots__ = ("terms", "space", "_text")

    def __init__(self, terms: dict | None = None, space: object = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self.space = space
        self._text = None

    @staticmethod
    def _of(terms: dict, space: object) -> "SplitClass":
        cls = object.__new__(SplitClass)
        cls.terms, cls.space, cls._text = terms, space, None
        return cls

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(c, space: str | None = None) -> "SplitClass":
        return SplitClass({(): c} if c else {}, space)

    # -- ring structure ----------------------------------------------------
    def _join(self, other: "SplitClass") -> object:
        if self.space is None:
            return other.space
        if other.space is None or other.space == self.space:
            return self.space
        raise ContextMismatch(f"mixing classes from {self.space!r} and {other.space!r}")

    def __add__(self, other) -> "SplitClass":
        if isinstance(other, (int, Fraction)):
            other = SplitClass.constant(other)
        elif not isinstance(other, SplitClass):
            return NotImplemented
        space = self._join(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return SplitClass._of(out, space)

    __radd__ = __add__

    def __neg__(self) -> "SplitClass":
        return SplitClass._of({m: -c for m, c in self.terms.items()}, self.space)

    def __sub__(self, other) -> "SplitClass":
        return self + (-other)

    def __rsub__(self, other) -> "SplitClass":
        return (-self) + other

    def __mul__(self, other) -> "SplitClass":
        if isinstance(other, (int, Fraction)):
            return SplitClass._of({m: c * other for m, c in self.terms.items()} if other else {},
                                  self.space)
        if not isinstance(other, SplitClass):
            return NotImplemented
        space = self._join(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return SplitClass._of(out, space)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SplitClass":
        """self^k for k >= 0; `_inverse_operand` inverts a negative power's base first.

        A term's power is c^k m^k.  When the box of `power_bounds` holds fewer
        points than there are exponent vectors, products must collide, and
        squaring merges them at each step.  Otherwise the k factors are shared
        among the terms one term at a time: `parts[j]` sums the products of the
        terms taken so far that leave j factors to the rest, a term c*m takes a
        of them in C(j, a) ways, and the last term takes all that are left.
        Like products merge for each j.
        """
        if k < 2:
            return self if k else SplitClass.constant(1, self.space)
        if len(self.terms) < 2:
            return SplitClass._of({_mono_pow(m, k): c ** k for m, c in self.terms.items()}, self.space)
        vectors, box = self.power_bounds(k)
        if box < vectors:
            half = self ** (k >> 1)
            return half * half * self if k & 1 else half * half
        parts: list[dict[Monomial, object]] = [{} for _ in range(k)] + [{(): 1}]
        last = len(self.terms) - 1
        for i, (m, c) in enumerate(self.terms.items()):
            for j in range(1, k + 1):  # parts[j] gives only to parts below j, already taken
                if not parts[j]:
                    continue
                for a in range(j if i == last else 1, j + 1):
                    ma, ca, into = _mono_pow(m, a), comb(j, a) * c ** a, parts[j - a]
                    for mono, coef in parts[j].items():
                        pm = _mono_mul(mono, ma)
                        into[pm] = into.get(pm, 0) + coef * ca
        return SplitClass._of({m: c for m, c in parts[0].items() if c}, self.space)

    def power_bounds(self, k: int) -> tuple[int, int]:
        """Two bounds on the terms of self^k, k >= 1, each also on every part `__pow__` forms.

        The exponent vectors of t terms, C(k+t-1, t-1), counted only until they
        pass the other bound; and the points of the box the product exponents
        span, less the widest side when all terms have one total degree, which
        fixes the exponent on that side.  In each variable the k factors'
        exponents step by the gcd g of the terms' differences, so its side is
        k * (exponent range) / g + 1.
        """
        exps = [dict(m) for m in self.terms]
        sides = []
        for es in ([d.get(v, 0) for d in exps] for v in {v for d in exps for v in d}):
            lo = min(es)
            sides.append(k * (max(es) - lo) // (gcd(*(e - lo for e in es)) or 1) + 1)
        sides.sort()
        if len({sum(d.values()) for d in exps}) == 1 and sides:
            sides.pop()
        box = prod(sides)
        vectors = 1 if exps else 0
        for i in range(1, len(exps)):  # C(k+i, i) from C(k+i-1, i-1)
            vectors = vectors * (k + i) // i
            if vectors > box:
                break
        return vectors, box

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SplitClass.constant(other)
        if not isinstance(other, SplitClass):
            return NotImplemented
        self._join(other)
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure queries ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def adams(self, k: int) -> "SplitClass":
        """Substitute every root x -> x^k (monomial-wise exponent scaling)."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            km = _mono_pow(m, k)
            out[km] = out.get(km, 0) + c
        return SplitClass(out, self.space)

    def augmentation(self, var_aug: dict[str, int] | None = None) -> int | Fraction:
        """Value with every root set to 1 (or to its declared augmentation).

        Exact in ints; a Fraction enters only through a negative power of an
        augmentation other than 1 (or a Fraction coefficient).
        """
        if not var_aug:
            return sum(self.terms.values())
        total = 0
        for m, c in self.terms.items():
            for v, e in m:
                a = var_aug.get(v, 1)
                if a != 1:
                    c *= a ** e if e > 0 else Fraction(a) ** e
            total += c
        return total

    def degrees(self, low: int | None = None, high: int | None = None) -> "SplitClass":
        """Terms whose total degree d has low <= d < high (None: unbounded).

        With only `high` this is the quotient map onto classes mod degree >= high,
        a ring map on classes with nonnegative exponents.
        """
        lo = -inf if low is None else low
        hi = inf if high is None else high
        return SplitClass({m: c for m, c in self.terms.items()
                           if lo <= sum(e for _, e in m) < hi}, self.space)

    # -- rendering -----------------------------------------------------------
    def term_texts(self) -> list[tuple[str, object]]:
        """(monomial text, coefficient) in print order; a packed class by `_Packing.text`, degree first."""
        if isinstance(self.space, _Packing):
            return [(self.space.text(m), self.terms[m]) for m in sorted(self.terms)]
        return [(monomial_text(m), self.terms[m]) for m in sorted(self.terms, key=_mono_sort_key)]

    def render(self, wrap: str | None = None) -> str:
        """Signed sum of terms; with `wrap`, each monomial m prints as wrap(m)."""
        parts: list[str] = []
        for body, c in self.term_texts():
            if wrap:
                body = f"{wrap}({body})"
            if body == "1":
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts) or "0"

    def __str__(self) -> str:
        if self._text is None:
            self._text = self.render()
        return self._text

    def __repr__(self) -> str:
        return f"SplitClass({self})"


def monomial_text(m: Monomial) -> str:
    """`v^e` factors joined by `*`, with exponent 1 left out; the empty monomial is "1"."""
    return "*".join(f"{v}^{e}" if e != 1 else v for v, e in m) or "1"


def _mono_sort_key(m: Monomial):
    return (sum(abs(e) for _, e in m), m)


# ---------------------------------------------------------------------------
# Evaluation context

@dataclass
class SplitContext:
    """Root assignment for one space's symbol table.

    Bundles named in `opaque` evaluate to a single generator of their declared
    rank instead of being split into roots (used where a rank-p^n pushforward
    bundle would explode into p^n roots).  `pullbacks` maps a morphism name
    to its pullback into this space as data: the image of each symbol it
    acts on, which `pull_back` substitutes.
    """

    table: SymbolTable
    opaque: frozenset[str] = frozenset()
    pullbacks: dict[str, dict[str, Expr]] = field(default_factory=dict)

    def __post_init__(self):
        self.space = self.table.space
        self.roots: dict[str, list[str]] = {}
        self.var_aug: dict[str, int] = {}
        self._eval_cache: dict[Expr, SplitClass] = {}
        self._packed_cache: dict[tuple[Expr, int], SplitClass] = {}
        self._packings: dict[int, _Packing] = {}
        for name in self.table.names():
            kind, rk = self.table.entries[name]
            if kind == LINE:
                self.roots[name] = [name]
                self.var_aug[name] = 1
            elif name in self.opaque:
                self.roots[name] = [name]
                self.var_aug[name] = rk
            else:
                vs = [f"{name}.{i}" for i in range(1, rk + 1)]
                self.roots[name] = vs
                for v in vs:
                    self.var_aug[v] = 1

    def augmentation(self, cls: SplitClass) -> int | Fraction:
        return cls.augmentation(self.var_aug)


def eval_expr(e: Expr, ctx: SplitContext) -> SplitClass:
    """Evaluate a virtual-bundle expression to its canonical split class.

    Composite nodes are memoized per context; expressions are immutable and
    interned, so a lookup reads a stored hash and compares identity, and
    repeated subterms cost one evaluation.  An operator on an opaque symbol
    is refused before its argument is evaluated (`_operand`).
    """
    composite = not isinstance(e, (Line, Bundle, Unit, IntConst))
    if composite:
        hit = ctx._eval_cache.get(e)
        if hit is not None:
            return hit
    cls = _eval_uncached(e, ctx)
    if composite:
        ctx._eval_cache[e] = cls
    return cls


def _eval_uncached(e: Expr, ctx: SplitContext) -> SplitClass:
    if isinstance(e, (Line, Bundle)):
        return SplitClass._of({((v, 1),): 1 for v in _roots(e, ctx)}, ctx.space)
    if isinstance(e, Unit):
        return SplitClass.constant(1, ctx.space)
    if isinstance(e, IntConst):
        return SplitClass.constant(e.value, ctx.space)
    if isinstance(e, Sum):
        total = SplitClass.constant(0, ctx.space)
        for t in e.terms:
            total = total + eval_expr(t, ctx)
        return total
    if isinstance(e, Neg):
        return -eval_expr(e.arg, ctx)
    if isinstance(e, Tensor):
        prod = SplitClass.constant(1, ctx.space)
        for f in e.factors:
            prod = prod * eval_expr(f, ctx)
        return prod
    if isinstance(e, (Psi, Dual)):
        what, k = ("psi", e.k) if isinstance(e, Psi) else ("dual", -1)
        return _operand(e.arg, ctx, what).adams(k)
    if isinstance(e, Theta):
        return theta_class(_operand(e.arg, ctx, "theta"), e.k)
    if isinstance(e, Tau):
        return tau_of_class(_operand(e.arg, ctx, "tau"), e.p)
    if isinstance(e, DetClass):
        return det_class(_operand(e.arg, ctx, "det"))
    if isinstance(e, Power):
        if e.exponent < 0:
            return _inverse_operand(e, ctx) ** -e.exponent
        base, j = eval_expr(e.base, ctx), e.exponent
        _within_budget(f"power {j}", len(base.terms), min(base.power_bounds(j)), "terms")
        return base ** j
    if isinstance(e, Pull):
        return eval_expr(pull_back(e.morphism, e.arg, ctx), ctx)
    raise EvalError(f"unknown expression node {e!r}")


def pull_back(morphism: str, e: Expr, ctx: SplitContext) -> Expr:
    """morphism^*(e) on ctx: each symbol of e replaced by its image in `ctx.pullbacks[morphism]`.

    Refuses a morphism with no table on ctx, a symbol with no image, a `Line`
    leaf naming a bundle (a pullback keeps the rank, so its image is not of
    rank 1), and a pullback nested in e.
    """
    images = ctx.pullbacks.get(morphism)
    if images is None:
        raise EvalError(f"no pullback registered for morphism {morphism!r} into {ctx.space}")
    if isinstance(e, (Line, Bundle)):
        image = images.get(e.name)
        if image is None:
            raise EvalError(f"{morphism}^* has no registered action on symbol {e.name!r}")
        if isinstance(e, Line) and (r := rank(image, ctx.table)) != 1:
            raise EvalError(f"{morphism}^*({e.name}) has rank {r}, not one line")
        return image
    if isinstance(e, Pull):
        raise EvalError(f"cannot substitute under an unresolved pullback: {e}")
    return map_children(e, lambda x: pull_back(morphism, x, ctx))


def _roots(e: Line | Bundle, ctx: SplitContext) -> list[str]:
    """The roots of symbol leaf e, refused if e is undeclared or a `Line` naming a bundle."""
    roots = ctx.roots.get(e.name)
    if roots is None:
        raise EvalError(f"undeclared symbol {e.name!r} on space {ctx.space}")
    if isinstance(e, Line) and len(roots) != 1:
        raise EvalError(f"{e.name!r} on space {ctx.space} has {len(roots)} roots, not one line")
    return roots


def _refuse_opaque(e: Expr, ctx: SplitContext, what: str) -> Expr:
    """e, each pullback replaced by its image; refused as `what`'s argument if it names an opaque symbol.

    An opaque symbol's one root has an augmentation other than 1, so it has
    no psi^k, k != 1, which psi, dual, theta, tau and det all need.  Both
    evaluators call this before they evaluate e, so the outermost operator
    names itself, also where the symbol cancels; an undeclared one is left
    to the evaluator.
    """
    if not ctx.opaque:
        return e
    if isinstance(e, Pull):
        return _refuse_opaque(pull_back(e.morphism, e.arg, ctx), ctx, what)
    if isinstance(e, (Line, Bundle)) and any(ctx.var_aug[v] != 1 for v in ctx.roots.get(e.name, ())):
        raise EvalError(f"{what} cannot be applied to an opaque (unsplit) bundle class")
    return map_children(e, lambda x: _refuse_opaque(x, ctx, what))


def _operand(e: Expr, ctx: SplitContext, what: str) -> SplitClass:
    """The class of operator `what`'s argument e, refused first if e names an opaque symbol."""
    _refuse_opaque(e, ctx, what)
    return eval_expr(e, ctx)


def _inverse_operand(e: Power, ctx: SplitContext) -> SplitClass:
    """The Laurent inverse of a negative power's base, refused unless a line of unit coefficient."""
    base = eval_expr(e.base, ctx)
    if len(base.terms) != 1:
        raise EvalError(f"negative power of a non-line class: {e}")
    (m, c), = base.terms.items()
    if c not in (1, -1):
        raise EvalError(f"inverse requires unit coefficient, got {c}")
    return SplitClass._of({_mono_pow(m, -1): c}, ctx.space)


def _nonnegative_rank(r: int, what: str) -> None:
    """Refuse an argument of rank r < 0 to theta or tau (`what`), whose rank what^r is no int."""
    if r < 0:
        raise EvalError(f"{what} argument has negative rank {r}")


# the most terms `theta_class` (at most k^r, of r lines), `tau_of_class` (p^r) and a power form
MAX_LAURENT_TERMS = 10**5


def _within_budget(what: str, r: int, formed: int, of: str = "lines") -> None:
    """Refuse `what` of a class of r lines (or terms) once the terms it forms exceed MAX_LAURENT_TERMS."""
    if formed > MAX_LAURENT_TERMS:
        raise EvalError(f"{what} of a class of {r} {of} forms more than {MAX_LAURENT_TERMS} "
                        "terms without a truncation")


def _lines(cls: SplitClass, what: str) -> list[Monomial]:
    """The lines of `what`'s argument cls, refused unless effective and at most MAX_LAURENT_TERMS."""
    r = cls.augmentation()
    _nonnegative_rank(r, what)
    if not all(c >= 0 and _is_integral(c) for c in cls.terms.values()):
        raise NonEffectiveError(f"{what} of a class that is not effective needs a truncation: {cls}")
    _within_budget(what, r, r)  # each line forms a term at least
    return [m for m in sorted(cls.terms) for _ in range(int(cls.terms[m]))]


def theta_class(cls: SplitClass, k: int) -> SplitClass:
    """theta^k = prod of 1 + m + ... + m^(k-1) over lines m; its products form <= MAX_LAURENT_TERMS."""
    lines = _lines(cls, "theta")
    prod, formed = SplitClass.constant(1, cls.space), 0
    for m in lines:
        formed += len(prod.terms) * (k if m else 1)
        _within_budget("theta", len(lines), formed)
        prod = prod * SplitClass._of({_mono_pow(m, j): 1 for j in range(k)} if m else {(): k},
                                     cls.space)
    return prod


def tau_of_class(cls: SplitClass, p: int) -> SplitClass:
    """Basis enumeration of the truncated symmetric algebra of a class.

    Sums the monomials prod_j m_j^(i_j) over all exponent vectors 0 <= i_j < p
    indexed by the constituent lines; independent of the theta product route.
    """
    lines = _lines(cls, "tau")
    # p^r vectors, refused before any is formed; r capped where 2^r > MAX_LAURENT_TERMS
    _within_budget("tau", len(lines), p ** min(len(lines), MAX_LAURENT_TERMS.bit_length()))
    counts: dict[Monomial, int] = {}
    for exps in itertools.product(range(p), repeat=len(lines)):
        mono: Monomial = ()
        for m, i in zip(lines, exps):
            mono = _mono_mul(mono, _mono_pow(m, i))
        counts[mono] = counts.get(mono, 0) + 1
    return SplitClass(counts, cls.space)


def det_class(cls: SplitClass) -> SplitClass:
    """Top exterior class: product of constituent line monomials (signed)."""
    mono: Monomial = ()
    for m, c in cls.terms.items():
        if not _is_integral(c):
            raise EvalError(f"det of a non-integral class: {cls}")
        mono = _mono_mul(mono, _mono_pow(m, int(c)))
    return SplitClass({mono: 1}, cls.space)


def classes_equal(a: SplitClass, b: SplitClass) -> bool:
    return a == b  # raises ContextMismatch for classes of two spaces


# ---------------------------------------------------------------------------
# Truncated augmentation filtration

class _Packing:
    """Packed e-monomials for the truncated ring over blocks of roots.

    A block is the roots x_1..x_r of one symbol, with u_i = x_i - aug(x_i); a
    line, and an opaque bundle standing for itself, is a block of rank 1.
    Every class the evaluator builds is symmetric in each block's roots, so a
    packed int is always an e-monomial: for each block, the exponents of
    e_1(u)..e_r(u) in r consecutive fields of `width` bits from
    `offset[block]`, and above all fields its weighted degree sum_k k*exp(e_k),
    its u-degree.  A product is then `m1 + m2`, kept iff it is below `limit`:
    a kept product has weighted degree at most cutoff - 1, so every exponent
    is too and no field carries, and a dropped one is at or above the limit
    with or without carries (Monagan & Pearce, CASC 2007).

    `blocks` maps each block's name to its roots; blocks lie in the order given.
    `text` names an e-monomial as it is, e_k(u) of a block B of rank r >= 2
    being gamma^k(B - r) (Fulton & Lang, Riemann-Roch Algebra, ch. III);
    `unpack` is the one change of basis, into root monomials, and no class
    needs the way back.  `memo` holds each e-monomial's root image, the symbols' `adams`
    classes and power sums, the `powers` tables (of the part y in I of each
    power's base, and of c1 of each monomial of `chow`'s series), the `_terms`
    of each (k, node) and the series coefficients of `_log_derivative`.
    """

    __slots__ = ("blocks", "offset", "width", "shift", "limit", "cutoff", "var_aug", "memo")

    def __init__(self, blocks: dict, var_aug: dict[str, int], cutoff: int):
        self.blocks = {b: tuple(roots) for b, roots in blocks.items()}
        self.width = max(1, (cutoff - 1).bit_length())
        sizes = [self.width * len(roots) for roots in self.blocks.values()]
        self.offset = dict(zip(self.blocks, itertools.accumulate(sizes, initial=0)))
        self.shift = sum(sizes)
        self.limit = cutoff << self.shift
        self.cutoff = cutoff
        self.var_aug = var_aug
        self.memo: dict[object, object] = {}

    def __repr__(self) -> str:
        return f"packing mod I^{self.cutoff} over ({', '.join(self.blocks)})"

    def _e(self, b: str, k: int) -> int:
        """The packed monomial e_k of block b."""
        return (1 << (self.offset[b] + (k - 1) * self.width)) | (k << self.shift)

    def _fields(self, m: int):
        """(block, roots, k, a) for each nonzero field of e-monomial m, e_k^a, in field order."""
        mask = (1 << self.width) - 1
        for b, roots in self.blocks.items():
            at = self.offset[b]
            for k in range(1, len(roots) + 1):
                if a := (m >> (at + (k - 1) * self.width)) & mask:
                    yield b, roots, k, a

    def text(self, m: int) -> str:
        """Packed monomial m in print, factors in field order, joined by `*`; "1" when empty.

        A block of rank 1 prints as its root (`L`, `E.1`), e_k of a wider
        block B as `gamma^k(B)`; either takes `^a` for an exponent a > 1.
        """
        return monomial_text(tuple((roots[0] if len(roots) == 1 else f"gamma^{k}({b})", a)
                                   for b, roots, k, a in self._fields(m)))

    def unpack(self, packed: dict[int, object], space: object) -> SplitClass:
        """The class of packed terms in root-variable monomials: the one change of basis.

        `memo[m]`, for an int m, is e-monomial m's root image, the pairs
        (root monomial, coefficient), built on first use: the fields of rank-1
        blocks are one root monomial, and each e_k^a of a wider block
        multiplies in (sum over the k-sets of its roots)^a.  `_mono_mul` keeps
        name order, so `E.10` lies before `E.2`; m has degree below the cutoff,
        so no term is dropped.
        """
        out: dict[Monomial, object] = {}
        get, memo = out.get, self.memo
        for m, c in packed.items():
            image = memo.get(m)
            if image is None:
                fields = list(self._fields(m))
                cls = SplitClass._of({tuple(sorted((roots[0], a) for _, roots, _, a in fields
                                                   if len(roots) == 1)): 1}, None)
                for _, roots, k, a in fields:
                    if len(roots) > 1:
                        cls = cls * SplitClass._of({tuple((v, 1) for v in s): 1
                                                    for s in itertools.combinations(roots, k)}, None) ** a
                image = memo[m] = tuple(cls.terms.items())
            for mono, a in image:
                out[mono] = get(mono, 0) + c * a
        return SplitClass._of({mono: c for mono, c in out.items() if c}, space)

    def powers(self, key: tuple, y, top: int) -> list[dict[int, object]]:
        """The table `memo[key]` of y^0, y^1, ... for a y in I, through y^min(top, cutoff - 1).

        `y()` makes y when the table is new.  The table grows on demand, one
        product a power, and stops at y^(cutoff - 1): y^i = 0 from i = cutoff on.
        """
        table = self.memo.get(key)
        if table is None:
            table = self.memo[key] = [{0: 1}, y()]
        while len(table) <= min(top, self.cutoff - 1):
            table.append(_packed_mul(table[-1], table[1], self.limit))
        return table

    # -- leaves ------------------------------------------------------------------
    def symbol(self, b: str) -> dict[int, object]:
        """The symbol of block b: the sum of its roots, sum_i aug(x_i) + e_1."""
        roots = self.blocks[b]
        terms = {0: sum(self.var_aug.get(v, 1) for v in roots)}
        if roots and self.cutoff > 1:
            terms[self._e(b, 1)] = 1
        return {m: c for m, c in terms.items() if c}

    def power_sums(self, b: str) -> list[dict[int, object]]:
        """P_j = sum_i u_i^j of block b for j < cutoff (P_0 = r), by Newton's identities."""
        key = ("P", b)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        r = len(self.blocks[b])
        sums: list[dict[int, object]] = [{0: r} if r else {}]
        for j in range(1, self.cutoff):
            # P_j = sum_{i<j} (-1)^(i-1) e_i P_(j-i) + (-1)^(j-1) j e_j
            acc: dict[int, object] = {}
            for i in range(1, min(j - 1, r) + 1):
                ei, sign = self._e(b, i), 1 if i % 2 else -1
                for m, c in sums[j - i].items():
                    acc[m + ei] = acc.get(m + ei, 0) + sign * c
            if j <= r:
                ej = self._e(b, j)
                acc[ej] = acc.get(ej, 0) + (j if j % 2 else -j)
            sums.append({m: c for m, c in acc.items() if c})
        self.memo[key] = sums
        return sums

    def adams(self, b: str, k: int) -> dict[int, object]:
        """psi^k of block b's symbol (roots of augmentation 1): sum_j C(k, j) P_j."""
        key = ("psi", b, k)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = _combine([_binom(k, j) for j in range(self.cutoff)],
                                            self.power_sums(b))
        return hit


def _quotient(c, d: int):
    """c / d, exact: an int where the quotient is integral, else a Fraction."""
    if isinstance(c, int) and not c % d:
        return c // d
    q = Fraction(c, d)
    return q.numerator if q.denominator == 1 else q


def _binom(k: int, j: int) -> int:
    """The generalized binomial coefficient C(k, j), for any integer k and j >= 0."""
    return comb(k, j) if k >= 0 else (-1) ** j * comb(j - k - 1, j)


def _packed_mul(a: dict[int, object], b: dict[int, object], limit: int) -> dict[int, object]:
    """Truncated product; with `b` sorted, no pair at or above `limit` is visited."""
    keys = sorted(b)
    coeffs = [b[m] for m in keys]
    out: dict[int, object] = {}
    get = out.get
    for m1, c1 in a.items():
        for i in range(bisect_left(keys, limit - m1)):
            m = m1 + keys[i]
            out[m] = get(m, 0) + c1 * coeffs[i]
    return {m: c for m, c in out.items() if c}


def _combine(coefficients, classes) -> dict[int, object]:
    """sum_i coefficients[i] * classes[i], the classes packed terms; zero terms are dropped."""
    out: dict[int, object] = {}
    get = out.get
    for a, terms in zip(coefficients, classes):
        if a:
            for m, c in terms.items():
                out[m] = get(m, 0) + a * c
    return {m: c for m, c in out.items() if c}


_RANK_ZERO_INVERSE = "cannot invert a rank-0 class in the filtration expansion"


def truncated_filtration(cls: SplitClass, var_aug: dict[str, int], cutoff: int) -> SplitClass:
    """Expansion of a class mod the cutoff-th power of the augmentation ideal.

    Substitutes each variable v -> aug(v) + u_v and drops all terms of total
    u-degree >= cutoff.  Zero result means the class lies in I^cutoff.
    """
    total: dict[Monomial, object] = {}
    get = total.get
    for m, c in cls.terms.items():
        for mono, a in _expansion(m, tuple(var_aug.get(v, 1) for v, _ in m), cutoff):
            total[mono] = get(mono, 0) + a * c
    return SplitClass._of({m: c for m, c in total.items() if c}, cls.space)


@lru_cache(maxsize=1 << 12)
def _expansion(m: Monomial, augs: tuple[int, ...], cutoff: int) -> tuple[tuple[Monomial, object], ...]:
    """The (root monomial, coefficient) pairs of Laurent monomial m below u-degree cutoff.

    augs[i] is the augmentation of m's i-th variable v.  m's variables, in
    name order, each multiply in the binomial series
    (aug + u_v)^e = sum_j C(e, j) aug^(e-j) u_v^j, so each product monomial
    is a concatenation, in name order, and no two products share one.  A
    pure function of its arguments, memoized for the process.
    """
    terms: list[tuple[Monomial, int, object]] = [((), 0, 1)]  # (monomial, u-degree, coefficient)
    for (v, e), aug in zip(m, augs):
        if aug == 0:  # only nonnegative exponents arise for rank-0 reserved symbols
            if e < 0:
                raise EvalError(_RANK_ZERO_INVERSE)
            series: list[object] = [0] * e + [1] if e < cutoff else []
        else:
            coeff: object = aug**e if e >= 0 else 1 if aug == 1 else Fraction(1, aug ** -e)
            series = []
            for j in range(cutoff if e < 0 else min(cutoff, e + 1)):
                series.append(coeff)
                # next generalized binomial coefficient: C(e, j+1)/C(e, j) = (e-j)/(j+1)
                coeff = _quotient(coeff * (e - j), (j + 1) * aug)
        terms = [(mono + ((v, j),) if j else mono, d + j, c * s)
                 for mono, d, c in terms for j, s in enumerate(series[:cutoff - d]) if s]
    return tuple((mono, c) for mono, _, c in terms)


def _terms(k: int, e: Expr, ctx: SplitContext, pk: _Packing) -> dict[int, object]:
    """psi^k(e) in pk's e-coordinates, k = 1 being e itself; memoized in `pk.memo`."""
    key = (k, e)
    hit = pk.memo.get(key)
    if hit is None:
        hit = pk.memo[key] = _rule(k, e, ctx, pk)
    return hit


def _rule(k: int, e: Expr, ctx: SplitContext, pk: _Packing) -> dict[int, object]:
    """The e-coordinate rule of psi^k(e), on the `_terms` of e's operands.

    psi^k is a ring map: it passes sums, negations, constants, tensors and
    powers.  A tensor's int factors multiply one scalar, and the product of
    its other factors starts from the first of them; each of these is still
    evaluated, and may refuse, when the scalar is 0, and the result is a new
    dict, never a factor's memo.  psi^k composes with psi^j into psi^jk and
    with a dual into psi^-k, and ends at a symbol's `adams` class; a pullback
    registered on the context is its argument with each symbol replaced by
    its image (`pull_back`).  theta^m, tau_p = theta^p and det commute with
    psi^k and are multiplicative, so they are `_multiplicative` series in
    the power sums of psi^k of their argument; a power x^j of either sign is
    `_power`'s binomial sum in the powers of y = x - a, y in I, for a base x
    of any rank a != 0.

    Each node refuses where it stands: a symbol leaf (`_roots`), a pullback
    (`pull_back`), theta^m or tau_p of a negative rank (any rank >= 0 is
    taken), and a negative power of a rank-0 base (`_power`).  psi, dual,
    theta, tau and det first refuse an opaque symbol in their argument
    (`_refuse_opaque`), so psi^k, k != 1, never meets one.  No rule reads a
    Laurent class.
    """
    if isinstance(e, Sum):
        out: dict[int, object] = {}
        for t in e.terms:
            for m, c in _terms(k, t, ctx, pk).items():
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}
    if isinstance(e, Neg):
        return {m: -c for m, c in _terms(k, e.arg, ctx, pk).items()}
    if isinstance(e, (IntConst, Unit)):
        value = e.value if isinstance(e, IntConst) else 1
        return {0: value} if value else {}
    if isinstance(e, Tensor):
        scale, out = 1, None
        for f in e.factors:
            if isinstance(f, IntConst):
                scale *= f.value
            else:
                terms = _terms(k, f, ctx, pk)
                out = terms if out is None else _packed_mul(out, terms, pk.limit)
        if out is None or not scale:
            return {0: scale} if scale else {}
        return {m: scale * c for m, c in out.items()}
    if isinstance(e, Power):
        return _power(_terms(k, e.base, ctx, pk), e.exponent, ("y", k, e.base), pk)
    if isinstance(e, (Psi, Dual)):
        what, j = ("psi", k * e.k) if isinstance(e, Psi) else ("dual", -k)
        _refuse_opaque(e.arg, ctx, what)
        return _terms(j, e.arg, ctx, pk)
    if isinstance(e, (Theta, Tau, DetClass)):
        if isinstance(e, DetClass):
            what, g = "det", (1, 1, *[0] * (pk.cutoff - 2))  # det(x) = x = 1 + u on a line
        else:
            what, m = ("theta", e.k) if isinstance(e, Theta) else ("tau", e.p)
            g = tuple(comb(m, j + 1) for j in range(pk.cutoff))  # (x^m - 1)/u
        _refuse_opaque(e.arg, ctx, what)
        sums = _power_sums(k, e.arg, ctx, pk)
        if what != "det":
            _nonnegative_rank(sums[0].get(0, 0), what)
        return _multiplicative(g, sums, pk)
    if isinstance(e, (Line, Bundle)):
        _roots(e, ctx)
        return pk.symbol(e.name) if k == 1 else pk.adams(e.name, k)
    if isinstance(e, Pull):
        return _terms(k, pull_back(e.morphism, e.arg, ctx), ctx, pk)
    raise EvalError(f"unknown expression node {e!r}")


def _power_sums(k: int, e: Expr, ctx: SplitContext, pk: _Packing) -> list[dict[int, object]]:
    """P_j(psi^k e) = sum_l C(j, l) (-1)^(j-l) psi^(lk)(e) for j < cutoff, psi^0(e) the rank.

    Each root x of e has augmentation 1 (`_refuse_opaque`), and u = x^k - 1
    for psi^k e; the rank is the constant term of psi^k e.
    """
    psi = [{}] + [_terms(l * k, e, ctx, pk) for l in range(1, max(pk.cutoff, 2))]
    psi[0] = {0: psi[1].get(0, 0)}
    return [_combine([comb(j, l) if (j - l) % 2 == 0 else -comb(j, l) for l in range(j + 1)], psi)
            for j in range(pk.cutoff)]


def _multiplicative(g: tuple, sums: list[dict[int, object]], pk: _Packing) -> dict[int, object]:
    """prod_i g(u_i) over the roots of the class whose power sums P_j are `sums`, P_0 its rank.

    With u g'(u)/g(u) = sum_j b_j u^j, the logarithm of the product is
    rank * log g(0) + sum_j b_j P_j / j.  Its exponential is built part by
    part in a grading that gives P_j degree j: G_0 = g(0)^rank and, by the
    Euler operator, G_d = (1/d) sum_j b_j P_j G_(d-j).  P_j lies in I^j, so
    G_d lies in I^d.  The power sums of a compound class are not homogeneous,
    so the parts share monomials, and are added.

    The rank is >= 0 unless g(0) = 1 (det), so N_0 = G_0 = g(0)^max(rank, 0)
    and the parts are int numerators G_d = N_d / (d! g(0)^d); with
    B_j = g(0)^j b_j (`_log_derivative`) N_d = sum_j B_j (d-1)!/(d-j)! P_j N_(d-j).
    Their sum is taken over the common denominator c! g(0)^c, c = cutoff - 1,
    and divided once per coefficient.
    """
    r = sums[0].get(0, 0)
    bs = _log_derivative(g, pk)
    g0, c = g[0], pk.cutoff - 1
    parts: list[dict[int, object]] = [{0: g0 ** max(r, 0)}]
    for d in range(1, pk.cutoff):
        acc: dict[int, object] = {}
        weight = 1  # (d-1)!/(d-j)!
        for j in range(1, d + 1):
            if bs[j]:
                bw = bs[j] * weight
                for m, x in _packed_mul(sums[j], parts[d - j], pk.limit).items():
                    acc[m] = acc.get(m, 0) + bw * x
            weight *= d - j
        parts.append({m: x for m, x in acc.items() if x})
    # N_d is weighted c!/d! g(0)^(c-d) in the sum
    total = _combine([factorial(c) // factorial(d) * g0 ** (c - d) for d in range(c + 1)], parts)
    den = factorial(c) * g0 ** c
    return {m: _quotient(x, den) for m, x in total.items()}


def _log_derivative(g: tuple, pk: _Packing) -> list[int]:
    """B_j = g(0)^j b_j, integers, where u g'(u)/g(u) = sum_j b_j u^j; memoized in `pk.memo`.

    From g(0) b_j = j g_j - sum_(0<i<j) g_i b_(j-i):
    B_j = j g_j g(0)^(j-1) - sum_(0<i<j) g_i g(0)^(i-1) B_(j-i).
    """
    bs = pk.memo.get(("b", g))
    if bs is None:
        bs = pk.memo["b", g] = [0] * len(g)
        g0 = g[0]
        for j in range(1, len(g)):
            bs[j] = j * g[j] * g0 ** (j - 1) - \
                sum(g[i] * g0 ** (i - 1) * bs[j - i] for i in range(1, j))
    return bs


def _power(x: dict[int, object], j: int, key: tuple, pk: _Packing) -> dict[int, object]:
    """x^j for every integer j, x = a + y with a its constant term (the rank) and y in I.

    y^i = 0 from i = cutoff on, so x^j = sum_(i<=c) C(j,i) a^(j-i) y^i, with
    c = cutoff - 1, on the powers of y in the table `pk.powers(key)`.  For
    j >= 0 the sum stops at min(j, c).  For j < 0 it takes all c + 1 terms,
    as the int numerators C(j,i) a^(c-i) over a^(c-j), divided once per
    coefficient; a = 0 is a rank-0 class, which has no inverse.
    """
    a, c = x.get(0, 0), pk.cutoff - 1
    if j < 0 and not a:
        raise EvalError(_RANK_ZERO_INVERSE)
    top = min(j, c) if j >= 0 else c
    ys = pk.powers(key, lambda: {m: v for m, v in x.items() if m}, top)
    if j >= 0:
        return _combine([_binom(j, i) * a ** (j - i) for i in range(top + 1)], ys)
    den = a ** (c - j)
    terms = _combine([_binom(j, i) * a ** (c - i) for i in range(top + 1)], ys)
    return {m: _quotient(v, den) for m, v in terms.items()}


def packed_eval(e: Expr, ctx: SplitContext, cutoff: int) -> SplitClass:
    """Evaluate directly in the truncated ring (classes mod I^cutoff); memoized per context.

    The result is keyed by packed e-monomials, and its space is the context's
    `_Packing` for `cutoff`: classes of one packing add, scale and compare like
    any `SplitClass`.  A key's weighted degree is `key >> packing.shift`.

    Every node is built by its e-coordinate rule (`_rule`), on truncated
    operands, since truncation is a ring quotient, and refuses there as
    `eval_expr` does, except that theta and tau of a virtual class of rank
    >= 0 and a negative power of any base of nonzero rank are built, and
    that of two faults in one argument the first the rules meet is named.
    No Laurent class is read.
    """
    key = (e, cutoff)
    hit = ctx._packed_cache.get(key)
    if hit is not None:
        return hit
    pk = ctx._packings.get(cutoff)
    if pk is None:
        pk = ctx._packings[cutoff] = _Packing(ctx.roots, ctx.var_aug, cutoff)
    hit = ctx._packed_cache[key] = SplitClass._of(_terms(1, e, ctx, pk), pk)  # every rule drops zero terms
    return hit


def truncated_eval(e: Expr, ctx: SplitContext, cutoff: int) -> SplitClass:
    """`packed_eval` unpacked into root-variable monomials (classes mod I^cutoff)."""
    cls = packed_eval(e, ctx, cutoff)
    return cls.space.unpack(cls.terms, ctx.space)


def repack(cls: SplitClass, rename: dict[str, str], into: _Packing) -> SplitClass:
    """A packed class with each block b renamed to rename.get(b, b), laid out in `into`.

    The packings share the cutoff, so the field width and the degree field
    stay; the e-fields of each used block move to its renamed block's.
    """
    pk = cls.space
    if pk.cutoff != into.cutoff:
        raise ContextMismatch(f"cannot repack a class from {pk!r} into {into!r}")
    used = 0
    for m in cls.terms:
        used |= m
    moves = []
    for b, roots in pk.blocks.items():
        mask = (1 << (pk.width * len(roots))) - 1
        if (used >> pk.offset[b]) & mask:
            target = rename.get(b, b)
            if len(into.blocks.get(target, ())) != len(roots):
                raise ContextMismatch(f"block {b} of {pk!r} has no block of its rank in {into!r}")
            moves.append((pk.offset[b], into.offset[target], mask))
    terms: dict[int, object] = {}
    for m, c in cls.terms.items():
        out = sum((((m >> at) & mask) << to for at, to, mask in moves), (m >> pk.shift) << into.shift)
        terms[out] = terms.get(out, 0) + c
    return SplitClass(terms, into)


# ---------------------------------------------------------------------------
# The binomial kernel

def binomial_sum(n: int, p: int, base: Expr, top: int) -> Expr:
    """sum_{i<=n+1} C(n+2,i) (-p^n)^i base^(top-i): the tilde's at top n+1, steps (4)-(5)'s at F_*O_X."""
    a = p**n
    return Sum(tuple(Tensor((IntConst(comb(n + 2, i) * (-a) ** i), Power(base, top - i)))
                     for i in range(n + 2)))


def tilde_inverse_expr(n: int, p: int, base: Expr) -> Expr:
    """The finite tilde-inverse (-1)^(n+1) `binomial_sum`(n, p, base, n+1).

    One canonical expression serves the chain's goal, the base-change square,
    the Knudsen-Mumford expansion and, at base y, the binomial witness.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    body = binomial_sum(n, p, base, n + 1)
    return canonicalize(Neg(body) if (n + 1) % 2 else body)


@dataclass
class BinomialWitness:
    """Exact-divisibility witness for y*tilde(y) - p^(n(n+2)), polynomials in y."""

    n: int
    p: int
    ok: bool
    quotient: SplitClass
    remainder: SplitClass
    lhs: SplitClass
    divisor: SplitClass

    def __bool__(self) -> bool:
        return self.ok


def binomial_identity_check(n: int, p: int) -> BinomialWitness:
    """Check y*tilde(n,p,y) - p^(n(n+2)) == (-1)^(n+1) * (y - p^n)^(n+2).

    The divisor is monic of degree n+2 and lhs has degree at most n+2, so one
    division step is exact: the quotient is lhs's y^(n+2) coefficient and the
    remainder lhs - quotient*divisor (any higher term of lhs stays in it),
    each an int list of the coefficients of y^0, y^1, ... read off the
    expansion of the chain's own tilde at base y.
    """
    a, top = p**n, n + 2
    terms = [(_y_degree(m), c) for c, m in expand_top(tilde_inverse_expr(n, p, Line("y")))]
    lhs = [0] * (max([top - 1] + [d for d, _ in terms]) + 2)
    for d, c in terms:
        lhs[d + 1] += c
    lhs[0] -= a**top
    divisor = [comb(top, i) * (-a) ** (top - i) for i in range(top + 1)]
    quot = lhs[top]
    rem = [c - quot * d for c, d in zip(lhs, divisor)] + lhs[top + 1:]
    ok = not any(rem) and quot == (-1) ** (n + 1)
    return BinomialWitness(n, p, ok, *(
        SplitClass._of({(("y", i),) if i else (): c for i, c in enumerate(cs) if c}, None)
        for cs in ([quot], rem, lhs, divisor)))


def _y_degree(m: Expr) -> int:
    """i for the monomial y^i, i >= 0; any other monomial is refused."""
    if m == Unit():
        return 0
    if m == Line("y"):
        return 1
    if isinstance(m, Power) and m.base == Line("y") and m.exponent >= 0:
        return m.exponent
    raise EvalError(f"not a power of y: {m}")
