"""Truncated intersection-ring model: Chern character, Todd class, pushforward.

Classes are graded polynomials with exact rational coefficients in declared
degree-1 symbols, truncated above a working degree D.  The degree-lowering
pushforward sends a monomial m of degree >= n to the free symbol f_!(m); no
relations between pushed monomials are assumed, so identities checked here
hold coefficient-by-coefficient.

The built-in relative-curve model (n = 1, symbols l = c1(L), w = c1(omega),
relative tangent omega^(-1)) carries the degree-one Riemann-Roch consequences:
the 18/6/-6 determinant identity and the 6k^2-6k+1 pluricanonical exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as E
from . import splitting as S


class ChowError(E.ExprError):
    pass


class ChowElt:
    """Graded polynomial over Q in degree-1 symbols, truncated above D."""

    __slots__ = ("terms", "top")

    def __init__(self, terms: dict[S.Monomial, Fraction] | None = None, top: int = 2):
        self.top = top
        self.terms = {m: c for m, c in (terms or {}).items() if c and _deg(m) <= top}

    @staticmethod
    def constant(c, top: int) -> "ChowElt":
        c = Fraction(c)
        return ChowElt({(): c} if c else {}, top)

    @staticmethod
    def symbol(name: str, top: int) -> "ChowElt":
        return ChowElt({((name, 1),): Fraction(1)}, top)

    def _join_top(self, other: "ChowElt") -> int:
        if self.top != other.top:
            raise ChowError(f"mixing truncation degrees {self.top} and {other.top}")
        return self.top

    def _coerce(self, other) -> "ChowElt":
        if isinstance(other, ChowElt):
            return other
        if isinstance(other, (int, Fraction)):
            return ChowElt.constant(other, self.top)
        return NotImplemented

    def __add__(self, other) -> "ChowElt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        top = self._join_top(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, Fraction(0)) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return ChowElt(out, top)

    __radd__ = __add__

    def __neg__(self) -> "ChowElt":
        return ChowElt({m: -c for m, c in self.terms.items()}, self.top)

    def __sub__(self, other) -> "ChowElt":
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other) -> "ChowElt":
        return (-self) + other

    def __mul__(self, other) -> "ChowElt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        top = self._join_top(other)
        out: dict[S.Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            d1 = _deg(m1)
            for m2, c2 in other.terms.items():
                if d1 + _deg(m2) > top:
                    continue
                m = S._mono_mul(m1, m2)
                nc = out.get(m, Fraction(0)) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return ChowElt(out, top)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChowElt":
        if k < 0:
            return self.inverse() ** (-k)
        result = ChowElt.constant(1, self.top)
        for _ in range(k):
            result = result * self
        return result

    def inverse(self) -> "ChowElt":
        """Multiplicative inverse of a unit (nonzero constant term) series."""
        c0 = self.terms.get((), Fraction(0))
        if not c0:
            raise ChowError("cannot invert: zero constant term")
        # Newton-style: iterate inv <- inv * (2 - self*inv); degree doubles.
        inv = ChowElt.constant(Fraction(1) / c0, self.top)
        for _ in range(self.top.bit_length() + 1):
            inv = inv * (ChowElt.constant(2, self.top) - self * inv)
        return inv

    def component(self, degree: int) -> "ChowElt":
        return ChowElt({m: c for m, c in self.terms.items() if _deg(m) == degree}, self.top)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.top, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return _render_terms(self.terms) or "0"

    def __repr__(self) -> str:
        return f"ChowElt({self}, top={self.top})"


def _deg(m: S.Monomial) -> int:
    return sum(e for _, e in m)


def _render_terms(terms: dict[S.Monomial, Fraction]) -> str:
    parts = []
    for m in sorted(terms, key=lambda m: (_deg(m), m)):
        c = terms[m]
        body = "*".join(f"{v}^{e}" if e != 1 else v for v, e in m)
        if not m:
            text = str(abs(c))
        elif abs(c) == 1:
            text = body
        else:
            text = f"{abs(c)}*{body}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


class PushedElt:
    """Rational combination of pushforward symbols f_!(m), deg = deg(m) - n."""

    __slots__ = ("terms", "rel_dim")

    def __init__(self, terms: dict[S.Monomial, Fraction] | None = None, rel_dim: int = 1):
        self.rel_dim = rel_dim
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def __add__(self, other: "PushedElt") -> "PushedElt":
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, Fraction(0)) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return PushedElt(out, self.rel_dim)

    def __neg__(self) -> "PushedElt":
        return PushedElt({m: -c for m, c in self.terms.items()}, self.rel_dim)

    def __sub__(self, other: "PushedElt") -> "PushedElt":
        return self + (-other)

    def scale(self, c) -> "PushedElt":
        c = Fraction(c)
        return PushedElt({m: v * c for m, v in self.terms.items()}, self.rel_dim)

    def component(self, degree: int) -> "PushedElt":
        return PushedElt({m: c for m, c in self.terms.items()
                          if _deg(m) - self.rel_dim == degree}, self.rel_dim)

    def coefficient(self, m: S.Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, PushedElt):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (_deg(m), m)):
            c = self.terms[m]
            body = "*".join(f"{v}^{e}" if e != 1 else v for v, e in m) or "1"
            text = f"f_!({body})"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            if not parts:
                parts.append(f"{mag}{text}" if c > 0 else f"-{mag}{text}")
            else:
                parts.append(f"+ {mag}{text}" if c > 0 else f"- {mag}{text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PushedElt({self})"

    def to_json(self) -> dict:
        out = {}
        for m, c in sorted(self.terms.items(), key=lambda kv: (_deg(kv[0]), kv[0])):
            body = "*".join(f"{v}^{e}" if e != 1 else v for v, e in m) or "1"
            out[body] = str(c)
        return out


# ---------------------------------------------------------------------------
# Chern character and Todd class

def _exp_series(x: ChowElt) -> ChowElt:
    """exp(x) truncated at the working degree; requires zero constant term."""
    if x.terms.get((), Fraction(0)):
        raise ChowError("exp needs a nilpotent (positive-degree) argument")
    total = ChowElt.constant(1, x.top)
    power = ChowElt.constant(1, x.top)
    fact = 1
    for k in range(1, x.top + 1):
        power = power * x
        fact *= k
        total = total + power * Fraction(1, fact)
    return total


def _todd_series(x: ChowElt) -> ChowElt:
    """x / (1 - e^(-x)) truncated: 1 + x/2 + x^2/12 - x^4/720 + ..."""
    # denominator (1 - e^(-x))/x = 1 - x/2 + x^2/6 - ...
    denom = ChowElt.constant(1, x.top)
    power = ChowElt.constant(1, x.top)
    fact = 1
    for k in range(1, x.top + 1):
        power = power * (-x)
        fact *= k + 1
        denom = denom + power * Fraction(1, fact)
    return denom.inverse()


def _c1_of_monomial(m: S.Monomial, assign: dict[str, str], top: int) -> ChowElt:
    """First Chern class of a line monomial: sum of e * c1(root)."""
    total = ChowElt.constant(0, top)
    for v, e in m:
        if v not in assign:
            raise ChowError(f"no first-Chern symbol assigned to root {v!r}")
        total = total + ChowElt.symbol(assign[v], top) * e
    return total


def chern_character(e: E.Expr, table: E.SymbolTable, assign: dict[str, str],
                    top: int) -> ChowElt:
    """ch(e): exp(c1) on each constituent line monomial, extended linearly.

    `assign` maps root variables (line symbol names, or "E.i" for bundle
    roots) to degree-1 symbols.
    """
    cls = S.eval_expr(e, S.SplitContext(table))
    total = ChowElt.constant(0, top)
    for m, c in cls.terms.items():
        total = total + _exp_series(_c1_of_monomial(m, assign, top)) * c
    return total


def todd(tangent: E.Expr, table: E.SymbolTable, assign: dict[str, str], top: int) -> ChowElt:
    """Todd class of a tangent class, multiplicative over its line pieces."""
    cls = S.eval_expr(tangent, S.SplitContext(table))
    total = ChowElt.constant(1, top)
    for m, c in cls.terms.items():
        if c.denominator != 1:
            raise ChowError(f"Todd class of a non-integral class: {cls}")
        piece = _todd_series(_c1_of_monomial(m, assign, top))
        total = total * piece ** int(c)
    return total


def pushforward(x: ChowElt, rel_dim: int) -> PushedElt:
    """Linear degree-lowering pushforward; degrees below n are annihilated."""
    out = {m: c for m, c in x.terms.items() if _deg(m) >= rel_dim}
    return PushedElt(out, rel_dim)


def c1_det_rf(e: E.Expr, table: E.SymbolTable, assign: dict[str, str],
              tangent: E.Expr, rel_dim: int, top: int | None = None) -> PushedElt:
    """Degree-1 part of f_!(ch(e) * td(T_f)): the first Chern class of det Rf_*."""
    if top is None:
        top = rel_dim + 1
    total = chern_character(e, table, assign, top) * todd(tangent, table, assign, top)
    return pushforward(total, rel_dim).component(1)


# ---------------------------------------------------------------------------
# Relative-curve model (n = 1)

@dataclass
class CurveModel:
    """Fixed n=1 setup: line L with c1 = l, canonical line omega with c1 = w."""

    table: E.SymbolTable
    assign: dict[str, str]
    tangent: E.Expr

    @staticmethod
    def standard() -> "CurveModel":
        t = E.SymbolTable(space="X")
        t.declare_line("L")
        t.declare_line("omega")
        return CurveModel(t, {"L": "l", "omega": "w"}, E.Dual(E.Line("omega")))

    def c1_det_rf(self, e: E.Expr, top: int | None = None) -> PushedElt:
        return c1_det_rf(e, self.table, self.assign, self.tangent, rel_dim=1, top=top)


@dataclass
class DeligneVerdict:
    ok: bool
    residual: PushedElt
    lhs: PushedElt
    rhs: PushedElt

    def __bool__(self) -> bool:
        return self.ok


def deligne_residual(exponents: tuple[int, int, int, int] = (18, 18, 6, -6),
                     top: int | None = None) -> DeligneVerdict:
    """Residual of a*c1(det Rf L) - [b*c1(det Rf O) + c*c1(det Rf L^2 w^-1) + d*c1(det Rf L w^-1)].

    With the canonical exponents (18, 18, 6, -6) the residual is exactly zero.
    """
    a, b, c, d = exponents
    model = CurveModel.standard()
    L = E.Line("L")
    omega_inv = E.Dual(E.Line("omega"))
    lhs = model.c1_det_rf(L, top).scale(a)
    rhs = (model.c1_det_rf(E.UNIT, top).scale(b)
           + model.c1_det_rf(E.Tensor((E.Power(L, 2), omega_inv)), top).scale(c)
           + model.c1_det_rf(E.Tensor((L, omega_inv)), top).scale(d))
    residual = lhs - rhs
    return DeligneVerdict(residual.is_zero(), residual, lhs, rhs)


def mumford_exponent(k: int, top: int | None = None) -> Fraction:
    """Ratio of the f_!(w^2) coefficients of c1 det Rf_*(omega^k) and (omega).

    Equals the pluricanonical exponent 6k^2 - 6k + 1 for every k >= 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    model = CurveModel.standard()
    omega = E.Line("omega")
    w2: S.Monomial = (("w", 2),)
    num = model.c1_det_rf(E.Power(omega, k), top).coefficient(w2)
    den = model.c1_det_rf(omega, top).coefficient(w2)
    return num / den
