"""Splitting-principle evaluator: exact Laurent classes over Chern roots.

A declared bundle of rank r contributes r root variables; evaluation maps the
expression operations to exact polynomial arithmetic (psi^k = k-th power
substitution on roots, theta^k = product of truncated geometric series over
the constituent line monomials, det = product of constituents, dual = monomial
inversion).  `SplitClass` is the package's one exact polynomial class: it also
carries the y-polynomial witness for the binomial identity behind the
tilde-inverse and the classes of the intersection-ring model in `chow`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
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

    def augmentation(self, var_aug: dict[str, int] | None = None) -> Fraction:
        """Value with every root set to 1 (or to its declared augmentation)."""
        if not var_aug:
            return Fraction(sum(self.terms.values()))
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(1)
            for v, e in m:
                val *= Fraction(var_aug.get(v, 1)) ** e
            total += c * val
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
        """(monomial text, coefficient) in print order."""
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

    def augmentation(self, cls: SplitClass) -> Fraction:
        return cls.augmentation(self.var_aug)

    def has_opaque_vars(self, cls: SplitClass) -> bool:
        return any(self.var_aug.get(v, 1) != 1 for v in cls.variables())


def eval_expr(e: Expr, ctx: SplitContext) -> SplitClass:
    """Evaluate a virtual-bundle expression to its canonical split class.

    Composite nodes are memoized per context (expressions are immutable and
    hash structurally), so repeated subterms cost one evaluation.
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
        return SplitClass.variable(ctx.roots[e.name][0], ctx.space) if e.name in ctx.roots \
            else _undeclared(e.name, ctx)
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
    total = SplitClass.constant(0, cls.space)
    for exps in itertools.product(range(p), repeat=len(lines)):
        mono: Monomial = ()
        for m, i in zip(lines, exps):
            mono = _mono_mul(mono, _mono_pow(m, i))
        total = total + SplitClass({mono: 1}, cls.space)
    return total


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
    """Packed exponent vectors for the truncated ring over one variable order.

    A monomial in the u-variables (u = x - aug(x)) with total degree below
    `cutoff` is one int: exponent i in bits [i*width, (i+1)*width), with the
    variables in name order, and the total degree above all of them.  A
    product is then `m1 + m2`, kept iff it is below `limit`: a kept product
    has every exponent <= cutoff - 1, so no field carries, and a dropped one
    is at or above the limit with or without carries (Monagan & Pearce,
    CASC 2007).  `series` and `expanded` memoize the binomial series and the
    expansion of each Laurent monomial.
    """

    __slots__ = ("offset", "width", "shift", "limit", "cutoff", "var_aug", "series", "expanded")

    def __init__(self, variables, var_aug: dict[str, int], cutoff: int):
        self.width = max(1, (cutoff - 1).bit_length())
        self.offset = {v: i * self.width for i, v in enumerate(sorted(variables))}
        self.shift = self.width * len(self.offset)
        self.limit = cutoff << self.shift
        self.cutoff = cutoff
        self.var_aug = var_aug
        self.series: dict[tuple[str, int], dict[int, object]] = {}
        self.expanded: dict[Monomial, dict[int, object]] = {(): {0: 1}}

    def __repr__(self) -> str:
        return f"packing mod I^{self.cutoff} over ({', '.join(self.offset)})"

    def fields(self, packed) -> list[tuple[str, int]]:
        """(variable, offset) of each exponent field some packed monomial of `packed` uses."""
        mask = (1 << self.width) - 1
        used = 0
        for m in packed:
            used |= m
        return [(v, at) for v, at in self.offset.items() if (used >> at) & mask]

    def monomial(self, m: int, fields=None) -> Monomial:
        """The root-variable monomial of packed `m`, read from `fields` (default: all)."""
        mask = (1 << self.width) - 1
        return tuple((v, e) for v, at in fields or self.offset.items() if (e := (m >> at) & mask))

    def unpack(self, packed: dict[int, object], space: object) -> SplitClass:
        fields = self.fields(packed)
        return SplitClass({self.monomial(m, fields): c for m, c in packed.items()}, space)

    def expand(self, m: Monomial) -> dict[int, object]:
        """Truncated expansion of a Laurent monomial, built one variable at a time."""
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
    unit = (1 << pk.offset[v]) | (1 << pk.shift)  # u_v itself
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


def _packed_eval(e: Expr, ctx: SplitContext, cutoff: int) -> SplitClass:
    """Evaluate directly in the truncated ring (classes mod I^cutoff); memoized per context.

    The result is keyed by packed monomials, and its space is the context's
    `_Packing` for `cutoff`: classes of one packing add, scale and compare like
    any `SplitClass`.  A key's total u-degree is `key >> packing.shift`.

    Truncation is a ring quotient, so sums, tensors and nonnegative powers are
    computed on already-truncated operands, and a pullback along a morphism
    with a registered reducer is truncated through its reduced argument (which
    `eval_expr` evaluates it to by definition).  Only operator leaves (theta,
    psi, duals, symbols) and unregistered pullbacks fall back to a full
    evaluation.  This keeps high tensor powers of rank-zero differences, and
    the products a pullback distributes into, from ever being expanded.
    """
    key = (e, cutoff)
    hit = ctx._packed_cache.get(key)
    if hit is not None:
        return hit
    pk = ctx._packings.get(cutoff)
    if pk is None:
        pk = ctx._packings[cutoff] = _Packing(ctx.var_aug, ctx.var_aug, cutoff)
    if isinstance(e, Sum):
        out: dict[int, object] = {}
        for t in e.terms:
            for m, c in _packed_eval(t, ctx, cutoff).terms.items():
                out[m] = out.get(m, 0) + c
    elif isinstance(e, Neg):
        out = {m: -c for m, c in _packed_eval(e.arg, ctx, cutoff).terms.items()}
    elif isinstance(e, (IntConst, Unit)):
        value = e.value if isinstance(e, IntConst) else 1
        out = {0: value} if value else {}
    elif isinstance(e, Tensor):
        out = {0: 1}
        for f in e.factors:
            out = _packed_mul(out, _packed_eval(f, ctx, cutoff).terms, pk.limit)
            if not out:
                break
    elif isinstance(e, Power) and e.exponent >= 0:
        out = {0: 1}
        square = _packed_eval(e.base, ctx, cutoff).terms
        k = e.exponent
        while k:
            if k & 1:
                out = _packed_mul(out, square, pk.limit)
            k >>= 1
            if k:
                square = _packed_mul(square, square, pk.limit)
    elif isinstance(e, Pull) and e.morphism in ctx.pull_reducers:
        out = _packed_eval(ctx.pull_reducers[e.morphism](e.arg), ctx, cutoff).terms
    else:
        out = pk.filtration(eval_expr(e, ctx))
    hit = ctx._packed_cache[key] = SplitClass(out, pk)
    return hit


packed_eval = _packed_eval  # the public name; the recursion calls the private one


def truncated_eval(e: Expr, ctx: SplitContext, cutoff: int) -> SplitClass:
    """`packed_eval` unpacked into root-variable monomials (classes mod I^cutoff)."""
    cls = packed_eval(e, ctx, cutoff)
    return cls.space.unpack(cls.terms, ctx.space)


def repack(cls: SplitClass, rename: dict[str, str], into: _Packing) -> SplitClass:
    """A packed class with each variable v renamed to rename.get(v, v), laid out in `into`.

    The packings share the cutoff: the degree field stays, each used field moves.
    """
    pk = cls.space
    if pk.cutoff != into.cutoff:
        raise ContextMismatch(f"cannot repack a class from {pk!r} into {into!r}")
    mask = (1 << pk.width) - 1
    moves = [(at, into.offset[rename.get(v, v)]) for v, at in pk.fields(cls.terms)]
    terms: dict[int, object] = {}
    for m, c in cls.terms.items():
        out = sum((((m >> at) & mask) << to for at, to in moves), (m >> pk.shift) << into.shift)
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
