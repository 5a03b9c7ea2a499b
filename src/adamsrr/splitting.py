"""Splitting-principle evaluator: exact Laurent classes over Chern roots.

A declared bundle of rank r contributes r root variables; evaluation maps the
expression operations to exact polynomial arithmetic (psi^k = k-th power
substitution on roots, theta^k = product of truncated geometric series over
the constituent line monomials, det = product of constituents, dual = monomial
inversion).  `SplitClass` is the package's one exact polynomial class: it also
carries the y-polynomial witness for the binomial identity behind the
tilde-inverse and the classes of the intersection-ring model in `chow`.

The truncated ring (classes mod I^cutoff, I the augmentation ideal) is kept
in e-coordinates: every class the evaluator builds is symmetric in each
bundle's roots, so `packed_eval` holds a bundle as the elementary symmetric
functions e_1..e_r of its u = x - aug(x), e_k of weight k, packed with the
weighted degree into one int per monomial.  Symbols, psi^k, duals and theta^k
of a bundle are built there directly (Fulton & Lang, Riemann-Roch Algebra,
ch. I-III); other leaves are evaluated as Laurent classes, truncated in the
root basis and reduced back by leading terms.  `truncated_eval` and the
printer of a packed class unpack e-monomials into root monomials; the grades
of `picard` name each e-monomial as it is, through `_Packing.text`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, inf
from typing import Callable

from .expr import (
    BUNDLE,
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


def _mono_inv(m: Monomial) -> Monomial:
    return tuple((v, -e) for v, e in m)


def _mono_pow(m: Monomial, k: int) -> Monomial:
    return tuple((v, e * k) for v, e in m) if k else ()


def _is_integral(c) -> bool:
    return isinstance(c, int) or c.denominator == 1


class SplitClass:
    """Laurent polynomial with exact rational coefficients in root variables.

    Coefficients are Fractions or plain ints (exact either way; ints are kept
    unboxed for speed and compare equal to the same Fraction).  `space` is a
    space name, or the `_Packing` whose ints key a truncated class; adding or
    comparing classes of two spaces raises `ContextMismatch`.
    """

    __slots__ = ("terms", "space")

    def __init__(self, terms: dict | None = None, space: object = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self.space = space

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(c, space: str | None = None) -> "SplitClass":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return SplitClass({(): c} if c else {}, space)

    @staticmethod
    def variable(name: str, space: str | None = None) -> "SplitClass":
        return SplitClass({((name, 1),): 1}, space)

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
        return SplitClass(out, space)

    __radd__ = __add__

    def __neg__(self) -> "SplitClass":
        return SplitClass({m: -c for m, c in self.terms.items()}, self.space)

    def __sub__(self, other) -> "SplitClass":
        return self + (-other)

    def __rsub__(self, other) -> "SplitClass":
        return (-self) + other

    def __mul__(self, other) -> "SplitClass":
        if isinstance(other, (int, Fraction)):
            return SplitClass({m: c * other for m, c in self.terms.items()}, self.space)
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
        return SplitClass(out, space)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SplitClass":
        if k < 0:
            return self.monomial_inverse() ** (-k)
        result = SplitClass.constant(1, self.space)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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

    def is_effective(self) -> bool:
        """All coefficients nonnegative integers."""
        return all(c >= 0 and _is_integral(c) for c in self.terms.values())

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_inverse(self) -> "SplitClass":
        if len(self.terms) != 1:
            raise EvalError("inverse requires a single line monomial")
        (m, c), = self.terms.items()
        if c not in (1, -1):
            raise EvalError(f"inverse requires unit coefficient, got {c}")
        return SplitClass({_mono_inv(m): c}, self.space)

    def dual(self) -> "SplitClass":
        return SplitClass({_mono_inv(m): c for m, c in self.terms.items()}, self.space)

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

    def constituents(self) -> list[Monomial]:
        """Line monomials with multiplicity; requires an effective class."""
        if not self.is_effective():
            raise NonEffectiveError(f"class is not effective: {self}")
        out: list[Monomial] = []
        for m in sorted(self.terms):
            out.extend([m] * int(self.terms[m]))
        return out

    def variables(self) -> set[str]:
        return {v for m in self.terms for v, _ in m}

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
        """(monomial text, coefficient) in print order; a packed class prints in root monomials."""
        if isinstance(self.space, _Packing):
            return self.space.unpack(self.terms, None).term_texts()
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
        return self.render()

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
    bundle would explode into p^n roots).  `pull_reducers` map a morphism name
    to the syntactic substitution realizing its pullback into this space.
    """

    table: SymbolTable
    opaque: frozenset[str] = frozenset()
    pull_reducers: dict[str, Callable[[Expr], Expr]] = field(default_factory=dict)

    def __post_init__(self):
        self.space = self.table.space
        self.roots: dict[str, list[str]] = {}
        self.var_aug: dict[str, int] = {}
        self._eval_cache: dict[Expr, SplitClass] = {}
        # the grade variables of det atoms over this upstairs space, kept by picard
        self._chi_symbols: dict[tuple[str, int, int], Monomial] = {}
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

    def root_class(self, name: str) -> SplitClass:
        cls = SplitClass.constant(0, self.space)
        for v in self.roots[name]:
            cls = cls + SplitClass.variable(v, self.space)
        return cls

    def augmentation(self, cls: SplitClass) -> int | Fraction:
        return cls.augmentation(self.var_aug)

    def has_opaque_vars(self, cls: SplitClass) -> bool:
        return any(self.var_aug.get(v, 1) != 1 for v in cls.variables())


def eval_expr(e: Expr, ctx: SplitContext) -> SplitClass:
    """Evaluate a virtual-bundle expression to its canonical split class.

    Composite nodes are memoized per context; expressions are immutable and
    interned, so a lookup reads a stored hash and compares identity, and
    repeated subterms cost one evaluation.
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
    if isinstance(e, Line):
        roots = ctx.roots.get(e.name)
        if roots is None:
            _undeclared(e.name, ctx)
        if len(roots) != 1:
            raise EvalError(f"{e.name!r} on space {ctx.space} has {len(roots)} roots, not one line")
        return SplitClass.variable(roots[0], ctx.space)
    if isinstance(e, Bundle):
        if e.name not in ctx.roots:
            _undeclared(e.name, ctx)
        return ctx.root_class(e.name)
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
    if isinstance(e, Dual):
        cls = eval_expr(e.arg, ctx)
        _no_opaque(ctx, cls, "dual")
        return cls.dual()
    if isinstance(e, Psi):
        cls = eval_expr(e.arg, ctx)
        _no_opaque(ctx, cls, "psi")
        return cls.adams(e.k)
    if isinstance(e, Theta):
        cls = eval_expr(e.arg, ctx)
        _no_opaque(ctx, cls, "theta")
        return theta_class(cls, e.k)
    if isinstance(e, Tau):
        cls = eval_expr(e.arg, ctx)
        _no_opaque(ctx, cls, "tau")
        return tau_of_class(cls, e.p)
    if isinstance(e, DetClass):
        cls = eval_expr(e.arg, ctx)
        _no_opaque(ctx, cls, "det")
        return det_class(cls)
    if isinstance(e, Power):
        base = eval_expr(e.base, ctx)
        if e.exponent < 0 and not base.is_monomial():
            raise EvalError(f"negative power of a non-line class: {e}")
        return base**e.exponent
    if isinstance(e, Pull):
        reducer = ctx.pull_reducers.get(e.morphism)
        if reducer is None:
            raise EvalError(f"no pullback registered for morphism {e.morphism!r} into {ctx.space}")
        return eval_expr(reducer(e.arg), ctx)
    raise EvalError(f"unknown expression node {e!r}")


def _undeclared(name: str, ctx: SplitContext):
    raise EvalError(f"undeclared symbol {name!r} on space {ctx.space}")


def _no_opaque(ctx: SplitContext, cls: SplitClass, what: str) -> None:
    if ctx.has_opaque_vars(cls):
        raise EvalError(f"{what} cannot be applied to an opaque (unsplit) bundle class")


def theta_class(cls: SplitClass, k: int) -> SplitClass:
    """theta^k as a product of 1 + m + ... + m^(k-1) over constituent lines."""
    if not cls.is_effective():
        raise NonEffectiveError(f"theta argument is not effective: {cls}")
    prod = SplitClass.constant(1, cls.space)
    for m in cls.constituents():
        line = SplitClass({m: 1}, cls.space)
        geo = SplitClass.constant(0, cls.space)
        powm = SplitClass.constant(1, cls.space)
        for _ in range(k):
            geo = geo + powm
            powm = powm * line
        prod = prod * geo
    return prod


def tau_of_class(cls: SplitClass, p: int) -> SplitClass:
    """Basis enumeration of the truncated symmetric algebra of a class.

    Sums the monomials prod_j m_j^(i_j) over all exponent vectors 0 <= i_j < p
    indexed by the constituent lines; independent of the theta product route.
    """
    if not cls.is_effective():
        raise NonEffectiveError(f"tau argument is not effective: {cls}")
    lines = cls.constituents()
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


def tau_class(symbol: str, p: int, ctx: SplitContext) -> SplitClass:
    """tau of a declared line/bundle symbol by direct basis enumeration."""
    if symbol not in ctx.roots:
        _undeclared(symbol, ctx)
    cls = ctx.root_class(symbol) if ctx.table.kind(symbol) == BUNDLE \
        else SplitClass.variable(ctx.roots[symbol][0], ctx.space)
    _no_opaque(ctx, cls, "tau")
    return tau_of_class(cls, p)


@dataclass
class Verdict:
    """Outcome of an identity check; `witness` renders the discrepancy."""

    ok: bool
    witness: str = ""

    def __bool__(self) -> bool:
        return self.ok


def tau_equals_theta(symbol: str, p: int, ctx: SplitContext) -> Verdict:
    diff = tau_class(symbol, p, ctx) - eval_expr(
        Theta(p, Bundle(symbol) if ctx.table.kind(symbol) == BUNDLE else Line(symbol)), ctx
    )
    if diff.is_zero():
        return Verdict(True)
    return Verdict(False, str(diff))


def classes_equal(a: SplitClass, b: SplitClass) -> bool:
    return a == b  # raises ContextMismatch for classes of two spaces


# ---------------------------------------------------------------------------
# Truncated augmentation filtration

class _Packing:
    """Packed exponent vectors for the truncated ring over blocks of roots.

    A block is the roots x_1..x_r of one symbol, with u_i = x_i - aug(x_i); a
    line, and an opaque bundle standing for itself, is a block of rank 1.
    Every class the evaluator builds is symmetric in each block's roots, so it
    is kept in e-coordinates: a monomial is one int holding, for each block,
    the exponents of the elementary symmetric functions e_1(u)..e_r(u) in r
    consecutive fields of `width` bits from `offset[block]`, and above all
    fields its weighted degree sum_k k*exp(e_k), which is its u-degree.  A
    product is then `m1 + m2`, kept iff it is below `limit`: a kept product
    has weighted degree at most cutoff - 1, so every exponent is too and no
    field carries, and a dropped one is at or above the limit with or without
    carries (Monagan & Pearce, CASC 2007).

    Blocks lie in the order given, or in name order when the packing is made
    from a list of variable names; each name is then its own block, e_1 = u,
    and the packing is the root basis that `truncated_filtration` works in.
    The same fields hold root monomials: `root_offset` puts root i of a block
    at the block's field i, and the degree field holds the u-degree, so the
    root basis of a packing's root variables is its own layout.  `text` names
    a packed monomial as it is, e_k(u) of a block B of rank >= 2 being
    gamma^k(B - r) (Fulton & Lang, Riemann-Roch Algebra, ch. III).
    `root_terms` is the one change of basis, e-monomial to root monomials: a
    product, in the ring, of each wide block's powers of e_k written in root
    monomials.  `to_roots` unpacks a class through it, and `from_roots`
    reduces a class symmetric in each block's roots back into e-coordinates
    by taking off the `root_terms` of its leading e-monomial, one at a time;
    both only touch the blocks of rank >= 2.  `filtration` expands a Laurent
    class into root monomials through the memoized binomial `series` of each
    variable power and `expanded` of each monomial.  Leaf classes (`adams`,
    `theta`), power sums and the powers of each e_k in root monomials are
    memoized in `memo`.
    """

    __slots__ = ("blocks", "offset", "root_offset", "width", "shift", "limit", "cutoff",
                 "var_aug", "_wide", "_wide_bits", "series", "expanded", "memo")

    def __init__(self, blocks, var_aug: dict[str, int], cutoff: int):
        if not isinstance(blocks, dict):
            blocks = {v: (v,) for v in sorted(blocks)}
        self.blocks = {b: tuple(roots) for b, roots in blocks.items()}
        self.width = max(1, (cutoff - 1).bit_length())
        self.offset: dict[str, int] = {}
        self.root_offset: dict[str, int] = {}
        self._wide: list[tuple[str, int, int, int]] = []  # (block, offset, rank, mask), rank >= 2
        at = self._wide_bits = 0  # the fields of the blocks of rank >= 2
        for b, roots in self.blocks.items():
            self.offset[b] = at
            for i, v in enumerate(roots):
                self.root_offset[v] = at + i * self.width
            if len(roots) > 1:
                mask = (1 << (self.width * len(roots))) - 1
                self._wide.append((b, at, len(roots), mask))
                self._wide_bits |= mask << at
            at += self.width * len(roots)
        self.shift = at
        self.limit = cutoff << self.shift
        self.cutoff = cutoff
        self.var_aug = var_aug
        self.series: dict[tuple[str, int], dict[int, object]] = {}
        self.expanded: dict[Monomial, dict[int, object]] = {(): {0: 1}}
        self.memo: dict[tuple, object] = {}

    def __repr__(self) -> str:
        return f"packing mod I^{self.cutoff} over ({', '.join(self.blocks)})"

    def _e(self, b: str, k: int) -> int:
        """The packed monomial e_k of block b."""
        return (1 << (self.offset[b] + (k - 1) * self.width)) | (k << self.shift)

    def _place(self, at: int, exponents: tuple) -> int:
        """Exponents packed into consecutive fields from offset `at` (no degree field)."""
        return sum(e << (at + i * self.width) for i, e in enumerate(exponents))

    # -- the root basis -------------------------------------------------------
    def fields(self, packed) -> list[tuple[str, int]]:
        """(root variable, offset) of each field some packed root monomial uses."""
        mask = (1 << self.width) - 1
        used = 0
        for m in packed:
            used |= m
        return [(v, at) for v, at in self.root_offset.items() if (used >> at) & mask]

    def monomial(self, m: int, fields=None) -> Monomial:
        """The root-variable monomial of packed root monomial `m`, read from `fields` (default: all)."""
        mask = (1 << self.width) - 1
        return tuple((v, e) for v, at in fields or self.root_offset.items() if (e := (m >> at) & mask))

    def text(self, m: int) -> str:
        """Packed monomial m in print, factors in field order, joined by `*`; "1" when empty.

        A block of rank 1 prints as its root (`L`, `E.1`), e_k of a wider
        block B as `gamma^k(B)`; either takes `^a` for an exponent a > 1.
        """
        mask = (1 << self.width) - 1
        return monomial_text(tuple(
            (v if len(roots) == 1 else f"gamma^{i}({b})", a)
            for b, roots in self.blocks.items()
            for i, v in enumerate(roots, 1) if (a := (m >> self.root_offset[v]) & mask)))

    def unpack(self, packed: dict[int, object], space: object) -> SplitClass:
        """The class of packed terms in root-variable monomials."""
        packed = self.to_roots(packed)
        fields = self.fields(packed)
        return SplitClass({self.monomial(m, fields): c for m, c in packed.items()}, space)

    def expand(self, m: Monomial) -> dict[int, object]:
        """Truncated expansion of a Laurent monomial in root monomials, one variable at a time."""
        hit = self.expanded.get(m)
        if hit is not None:
            return hit
        last = m[-1]
        series = self.series.get(last)
        if series is None:
            series = self.series[last] = _binomial_series(self, *last)
        out = self.expanded[m] = series if len(m) == 1 else \
            _packed_mul(self.expand(m[:-1]), series, self.limit)
        return out

    def filtration(self, cls: SplitClass) -> dict[int, object]:
        total: dict[int, object] = {}
        for m, c in cls.terms.items():
            for mono, coeff in self.expand(m).items():
                total[mono] = total.get(mono, 0) + coeff * c
        return {m: c for m, c in total.items() if c}

    # -- e-coordinates and the root basis --------------------------------------
    def to_roots(self, packed: dict[int, object]) -> dict[int, object]:
        """Packed terms unpacked into root monomials, block by block."""
        wide_bits = self._wide_bits
        if not any(m & wide_bits for m in packed):
            return packed  # the layouts agree off the blocks of rank >= 2
        out: dict[int, object] = {}
        for m, c in packed.items():
            for x, k in self.root_terms(m).items():
                out[x] = out.get(x, 0) + c * k
        return {x: c for x, c in out.items() if c}

    def root_terms(self, m: int) -> dict[int, object]:
        """The root monomials that e-monomial m unpacks into, with coefficients.

        The product, in the truncated ring, of m's fields off the blocks of
        rank >= 2 and of each wide block's powers of e_k written in root
        monomials; m has degree below the cutoff, so no term is dropped.
        """
        mask = (1 << self.width) - 1
        rest, factors = m & ~self._wide_bits, []
        for b, at, r, _ in self._wide:
            for k in range(1, r + 1):
                if a := (m >> (at + (k - 1) * self.width)) & mask:
                    rest -= (k * a) << self.shift
                    factors.append(self._e_power(b, k, a))
        out = {rest: 1}
        for factor in factors:
            out = _packed_mul(out, factor, self.limit)
        return out

    def _e_power(self, b: str, k: int, a: int) -> dict[int, object]:
        """e_k^a of block b in root monomials: the sum over k-sets of its roots, to the a."""
        key = ("e", b, k, a)
        hit = self.memo.get(key)
        if hit is None:
            if a > 1:
                hit = _packed_mul(self._e_power(b, k, a - 1), self._e_power(b, k, 1), self.limit)
            else:
                at = self.offset[b]
                hit = {sum(1 << (at + i * self.width) for i in s) | (k << self.shift): 1
                       for s in itertools.combinations(range(len(self.blocks[b])), k)}
            self.memo[key] = hit
        return hit

    def from_roots(self, packed: dict[int, object]) -> dict[int, object]:
        """A root-basis class symmetric in each block's roots, in e-coordinates.

        Packed ints order monomials by degree, then field by field from the
        top, and a product of monomials keeps that order.  So the largest key
        of a class symmetric in each block has exponents v_1 <= ... <= v_r in
        the fields of each block of rank r, and it is the largest root term,
        with coefficient 1, of e_1^a_1 ... e_r^a_r with a_k = v_(r-k+1) -
        v_(r-k) (v_0 = 0).  Taking c times that e-monomial's `root_terms` off
        and repeating ends at zero exactly when the class is symmetric (the
        fundamental theorem of symmetric polynomials); a largest key of any
        other shape raises EvalError.
        """
        wide_bits = self._wide_bits
        if not any(m & wide_bits for m in packed):
            return packed
        width, mask = self.width, (1 << self.width) - 1
        rest = dict(packed)
        heap = [-m for m in rest]  # every key of `rest` not yet taken, negated
        heapify(heap)
        out: dict[int, object] = {}
        while heap:
            x = -heappop(heap)
            c = rest.pop(x)
            if not c:
                continue
            e = x & ~wide_bits
            for _, at, r, _ in self._wide:
                v = [0] + [(x >> (at + i * width)) & mask for i in range(r)]
                if any(v[i] > v[i + 1] for i in range(1, r)):
                    raise EvalError("class is not symmetric in the roots of its bundles")
                e |= self._place(at, [v[r - k + 1] - v[r - k] for k in range(1, r + 1)])
            out[e] = c
            for y, k in self.root_terms(e).items():
                if y != x:  # every other root term is below x, so not taken yet
                    if y not in rest:
                        heappush(heap, -y)
                    rest[y] = rest.get(y, 0) - c * k
        return out

    # -- leaves ------------------------------------------------------------------
    def symbol(self, b: str) -> dict[int, object]:
        """The symbol of block b: the sum of its roots, sum_i aug(x_i) + e_1."""
        roots = self.blocks[b]
        terms = {0: sum(self.var_aug.get(v, 1) for v in roots)}
        if roots and self.cutoff > 1:
            terms[self._e(b, 1)] = 1
        return {m: c for m, c in terms.items() if c}

    def power_sums(self, b: str) -> list[dict[int, object]]:
        """P_j = sum_i u_i^j of block b for j < cutoff (P_0 left out), by Newton's identities."""
        key = ("P", b)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        r = len(self.blocks[b])
        sums: list[dict[int, object]] = [{}]
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
        """psi^k of block b's symbol (roots of augmentation 1): r + sum_j C(k, j) P_j."""
        key = ("psi", b, k)
        hit = self.memo.get(key)
        if hit is None:
            terms = {0: len(self.blocks[b])}
            for j, pj in enumerate(self.power_sums(b)):
                cj = _binom(k, j)
                if j and cj:
                    for m, c in pj.items():
                        terms[m] = terms.get(m, 0) + cj * c
            hit = self.memo[key] = {m: c for m, c in terms.items() if c}
        return hit

    def theta(self, b: str, k: int) -> dict[int, object]:
        """theta^k (k >= 1) of block b's symbol: prod_i g(u_i), g(u) = sum_j C(k, j+1) u^j.

        With u g'(u)/g(u) = sum_j b_j u^j, the Euler operator gives the part of
        degree d of the product G as (1/d) sum_j b_j P_j G_(d-j), from
        G_0 = k^r: the logarithm of G is sum_i log g(u_i), a series in the
        power sums, and this is its exponential, degree by degree.
        """
        key = ("theta", b, k)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        g = [comb(k, j + 1) for j in range(self.cutoff)]
        bs = [Fraction(0)] * self.cutoff
        for j in range(1, self.cutoff):
            bs[j] = Fraction(j * g[j] - sum(g[i] * bs[j - i] for i in range(1, j)), g[0])
        sums = self.power_sums(b)
        parts: list[dict[int, object]] = [{0: k ** len(self.blocks[b])}]
        for d in range(1, self.cutoff):
            acc: dict[int, object] = {}
            for j in range(1, d + 1):
                if bs[j]:
                    for m, c in _packed_mul(sums[j], parts[d - j], self.limit).items():
                        acc[m] = acc.get(m, 0) + bs[j] * c
            parts.append({m: _exact(c / d) for m, c in acc.items() if c})
        hit = self.memo[key] = {m: c for part in parts for m, c in part.items()}
        return hit


def _exact(c):
    """An integral Fraction as an int; anything else as it is."""
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


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


def _binomial_series(pk: _Packing, v: str, e: int) -> dict[int, object]:
    """Packed terms of (aug + u_v)^e below u-degree cutoff (e may be negative)."""
    aug = pk.var_aug.get(v, 1)
    unit = (1 << pk.root_offset[v]) | (1 << pk.shift)  # u_v itself
    if aug == 0:
        # only nonnegative exponents arise for rank-0 reserved symbols
        if e < 0:
            raise EvalError("cannot invert a rank-0 class in the filtration expansion")
        return {e * unit: 1} if e < pk.cutoff else {}
    out: dict[int, object] = {}
    if e >= 0:
        coeff: object = aug**e
    elif aug == 1:
        coeff = 1
    else:
        coeff = Fraction(1, aug ** (-e))
    j = 0
    while j < pk.cutoff:
        if coeff:
            out[j * unit] = coeff
        # next generalized binomial coefficient: C(e, j+1)/C(e, j) = (e-j)/(j+1)
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


def truncated_filtration(cls: SplitClass, var_aug: dict[str, int], cutoff: int) -> SplitClass:
    """Expansion of a class mod the cutoff-th power of the augmentation ideal.

    Substitutes each variable v -> aug(v) + u_v and drops all terms of total
    u-degree >= cutoff.  Zero result means the class lies in I^cutoff.
    """
    pk = _Packing(cls.variables(), var_aug, cutoff)  # no other variable can occur
    return pk.unpack(pk.filtration(cls), cls.space)


class _NoRule(Exception):
    """No e-coordinate rule applies to a node: it takes the Laurent fallback."""


def _is_symbol(e: Expr, ctx: SplitContext) -> bool:
    """A declared symbol whose class is the sum of its block's roots."""
    return isinstance(e, (Line, Bundle)) and e.name in ctx.roots and \
        (isinstance(e, Bundle) or len(ctx.roots[e.name]) == 1)


def _split_symbol(e: Expr, ctx: SplitContext) -> str | None:
    """The symbol e is, through registered pullbacks, if psi, dual and theta act on it by e-rules.

    They do when each of its roots has augmentation 1, which is when the
    Laurent route lets them act at all.
    """
    while isinstance(e, Pull) and e.morphism in ctx.pull_reducers:
        e = ctx.pull_reducers[e.morphism](e.arg)
    if _is_symbol(e, ctx) and all(ctx.var_aug[v] == 1 for v in ctx.roots[e.name]):
        return e.name
    return None


def _ring_terms(e: Expr, pk: _Packing, child: Callable[[Expr], dict]) -> dict | None:
    """Packed terms of a ring node from `child` of its operands; None for any other node.

    The ring nodes are sums, negations, constants, tensors and powers >= 0.
    """
    if isinstance(e, Sum):
        out: dict[int, object] = {}
        for t in e.terms:
            for m, c in child(t).items():
                out[m] = out.get(m, 0) + c
        return out
    if isinstance(e, Neg):
        return {m: -c for m, c in child(e.arg).items()}
    if isinstance(e, (IntConst, Unit)):
        value = e.value if isinstance(e, IntConst) else 1
        return {0: value} if value else {}
    if isinstance(e, Tensor):
        out = {0: 1}
        for f in e.factors:
            out = _packed_mul(out, child(f), pk.limit)
            if not out:
                break
        return out
    if isinstance(e, Power) and e.exponent >= 0:
        out, square, k = {0: 1}, child(e.base), e.exponent
        while k:
            if k & 1:
                out = _packed_mul(out, square, pk.limit)
            k >>= 1
            if k:
                square = _packed_mul(square, square, pk.limit)
        return out
    return None


def _adams_terms(k: int, e: Expr, ctx: SplitContext, pk: _Packing) -> dict:
    """psi^k(e), moved down to split symbols: psi^k is a ring map, and dual is psi^-1.

    Raises _NoRule at a node it does not pass (theta, tau, det, a negative
    power, an unregistered pullback, an unsplit symbol).
    """
    if isinstance(e, Pull):
        reducer = ctx.pull_reducers.get(e.morphism)
        if reducer is None:
            raise _NoRule
        return _adams_terms(k, reducer(e.arg), ctx, pk)
    if isinstance(e, Psi):
        return _adams_terms(k * e.k, e.arg, ctx, pk)
    if isinstance(e, Dual):
        return _adams_terms(-k, e.arg, ctx, pk)
    if isinstance(e, (Line, Bundle)):
        block = _split_symbol(e, ctx)
        if block is None:
            raise _NoRule
        return pk.adams(block, k)
    out = _ring_terms(e, pk, lambda x: _adams_terms(k, x, ctx, pk))
    if out is None:
        raise _NoRule
    return out


def _operator_leaf(e: Psi | Dual | Theta, ctx: SplitContext, pk: _Packing) -> dict | None:
    """psi^k, dual or theta^k of e's argument by the e-rules, or None where none applies."""
    k = -1 if isinstance(e, Dual) else e.k
    try:
        if isinstance(e, Theta):
            block = _split_symbol(e.arg, ctx)
            return pk.theta(block, k) if block is not None and k >= 1 else None
        return _adams_terms(k, e.arg, ctx, pk)
    except (_NoRule, ExprError):
        return None  # the Laurent route raises whatever error the node has


def _packed_eval(e: Expr, ctx: SplitContext, cutoff: int) -> SplitClass:
    """Evaluate directly in the truncated ring (classes mod I^cutoff); memoized per context.

    The result is keyed by packed e-monomials, and its space is the context's
    `_Packing` for `cutoff`: classes of one packing add, scale and compare like
    any `SplitClass`.  A key's weighted degree is `key >> packing.shift`.

    Truncation is a ring quotient, so sums, tensors and nonnegative powers are
    computed on already-truncated operands, and a pullback along a morphism
    with a registered reducer is truncated through its reduced argument (which
    `eval_expr` evaluates it to by definition).  Declared symbols, and psi^k,
    duals and theta^k of split symbols, are built in e-coordinates by their
    rules; psi^k and duals of other arguments are moved down to split symbols
    first.  Only the nodes with no rule (tau, det, negative powers, theta of
    a compound argument, unregistered pullbacks) fall back to a full Laurent
    evaluation, truncated in the root basis and reduced into e-coordinates;
    they raise what `eval_expr` raises.
    """
    key = (e, cutoff)
    hit = ctx._packed_cache.get(key)
    if hit is not None:
        return hit
    pk = ctx._packings.get(cutoff)
    if pk is None:
        pk = ctx._packings[cutoff] = _Packing(ctx.roots, ctx.var_aug, cutoff)
    out = _ring_terms(e, pk, lambda x: _packed_eval(x, ctx, cutoff).terms)
    if out is None:
        if isinstance(e, Pull) and e.morphism in ctx.pull_reducers:
            out = _packed_eval(ctx.pull_reducers[e.morphism](e.arg), ctx, cutoff).terms
        elif _is_symbol(e, ctx):
            out = pk.symbol(e.name)
        elif isinstance(e, (Psi, Dual, Theta)):
            out = _operator_leaf(e, ctx, pk)
    if out is None:
        out = pk.from_roots(pk.filtration(eval_expr(e, ctx)))
    hit = ctx._packed_cache[key] = SplitClass(out, pk)
    return hit


packed_eval = _packed_eval  # the public name; the recursion calls the private one


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

def tilde_theta_inverse(n: int, p: int, x):
    """Finite substitute for the inverse Bott class.

    Returns (-1)^(n+1) * sum_{i=0}^{n+1} C(n+2,i) x^(n+1-i) (-p^n)^i, with
    exact coefficients; x may be a SplitClass (a class, or the variable y of
    the binomial witness), or anything with ring operations against ints.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a = p**n
    total = None
    for i in range(n + 2):
        term = x ** (n + 1 - i) * (comb(n + 2, i) * (-a) ** i)
        total = term if total is None else total + term
    return total * ((-1) ** (n + 1))


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
    remainder lhs - quotient*divisor (any higher term of lhs stays in it).
    """
    y = SplitClass.variable("y")
    lhs = y * tilde_theta_inverse(n, p, y) - p ** (n * (n + 2))
    divisor = (y - p**n) ** (n + 2)
    quot = SplitClass.constant(lhs.terms.get((("y", n + 2),), 0))
    rem = lhs - quot * divisor
    ok = rem.is_zero() and quot == (-1) ** (n + 1)
    return BinomialWitness(n, p, ok, quot, rem, lhs, divisor)
