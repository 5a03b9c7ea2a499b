"""Truncated intersection-ring model: Chern character, Todd class, pushforward.

Classes are `SplitClass` polynomials with exact rational coefficients in
declared degree-1 symbols.  The series functions take the working degree D
as an argument and drop every term above it after each product: truncation
is a ring quotient (Fulton & Lang, Riemann-Roch Algebra, 1985).  `c1_det_rf`
works in degree n+1, where c1 det Rf_* lives.  The
degree-lowering pushforward sends a monomial m of degree >= n to the free
symbol f_!(m), kept as a `SplitClass` keyed by m; no relations between pushed
monomials are assumed, so identities checked here hold
coefficient-by-coefficient.

The built-in relative-curve model (n = 1, symbols l = c1(L), w = c1(omega),
relative tangent omega^(-1)) carries the degree-one Riemann-Roch consequences:
the 18/6/-6 determinant identity and the 6k^2-6k+1 pluricanonical exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as E
from . import splitting as S
from .splitting import SplitClass


class ChowError(E.ExprError):
    pass


def _mul(a: SplitClass, b: SplitClass, top: int) -> SplitClass:
    """Product in the ring truncated above degree `top` (a ring quotient)."""
    return (a * b).degrees(high=top + 1)


def _power(x: SplitClass, k: int, top: int) -> SplitClass:
    if k < 0:
        x, k = _inverse(x, top), -k
    out = SplitClass.constant(1)
    for _ in range(k):
        out = _mul(out, x, top)
    return out


def _inverse(x: SplitClass, top: int) -> SplitClass:
    """Multiplicative inverse of a unit (nonzero constant term) series."""
    c0 = x.terms.get((), 0)
    if not c0:
        raise ChowError("cannot invert: zero constant term")
    # Newton-style: iterate inv <- inv * (2 - x*inv); the precision doubles.
    inv = SplitClass.constant(Fraction(1) / c0)
    for _ in range(top.bit_length() + 1):
        inv = _mul(inv, 2 - _mul(x, inv, top), top)
    return inv


# ---------------------------------------------------------------------------
# Chern character and Todd class

def _exp_series(x: SplitClass, top: int) -> SplitClass:
    """exp(x) truncated at the working degree; requires zero constant term."""
    if x.terms.get((), 0):
        raise ChowError("exp needs a nilpotent (positive-degree) argument")
    total = power = SplitClass.constant(1)
    fact = 1
    for k in range(1, top + 1):
        power = _mul(power, x, top)
        fact *= k
        total = total + power * Fraction(1, fact)
    return total


def _todd_series(x: SplitClass, top: int) -> SplitClass:
    """x / (1 - e^(-x)) truncated: 1 + x/2 + x^2/12 - x^4/720 + ..."""
    # denominator (1 - e^(-x))/x = 1 - x/2 + x^2/6 - ...
    denom = power = SplitClass.constant(1)
    fact = 1
    for k in range(1, top + 1):
        power = _mul(power, -x, top)
        fact *= k + 1
        denom = denom + power * Fraction(1, fact)
    return _inverse(denom, top)


def _c1_of_monomial(m: S.Monomial, assign: dict[str, str]) -> SplitClass:
    """First Chern class of a line monomial: sum of e * c1(root)."""
    total = SplitClass.constant(0)
    for v, e in m:
        if v not in assign:
            raise ChowError(f"no first-Chern symbol assigned to root {v!r}")
        total = total + SplitClass.variable(assign[v]) * e
    return total


def chern_character(e: E.Expr, table: E.SymbolTable, assign: dict[str, str],
                    top: int) -> SplitClass:
    """ch(e): exp(c1) on each constituent line monomial, extended linearly.

    `assign` maps root variables (line symbol names, or "E.i" for bundle
    roots) to degree-1 symbols.
    """
    cls = S.eval_expr(e, S.SplitContext(table))
    total = SplitClass.constant(0)
    for m, c in cls.terms.items():
        total = total + _exp_series(_c1_of_monomial(m, assign), top) * c
    return total


def todd(tangent: E.Expr, table: E.SymbolTable, assign: dict[str, str],
         top: int) -> SplitClass:
    """Todd class of a tangent class, multiplicative over its line pieces.

    A negative multiplicity (a negated line) takes the series inverse.
    """
    cls = S.eval_expr(tangent, S.SplitContext(table))
    total = SplitClass.constant(1)
    for m, c in cls.terms.items():
        if c.denominator != 1:
            raise ChowError(f"Todd class of a non-integral class: {cls}")
        piece = _todd_series(_c1_of_monomial(m, assign), top)
        total = _mul(total, _power(piece, int(c), top), top)
    return total


def pushforward(x: SplitClass, rel_dim: int) -> SplitClass:
    """Linear degree-lowering pushforward; degrees below n are annihilated.

    The result is keyed by the pushed monomial m (the free symbol f_!(m), of
    degree deg(m) - n); `render("f_!")` prints it that way.
    """
    return x.degrees(low=rel_dim)


def c1_det_rf(e: E.Expr, table: E.SymbolTable, assign: dict[str, str],
              tangent: E.Expr, rel_dim: int) -> SplitClass:
    """Degree-1 part of f_!(ch(e) * td(T_f)): the first Chern class of det Rf_*.

    It lives in degree n+1 upstairs, so n+1 is the working degree.
    """
    top = rel_dim + 1
    total = _mul(chern_character(e, table, assign, top), todd(tangent, table, assign, top), top)
    return pushforward(total, rel_dim).degrees(rel_dim + 1, rel_dim + 2)


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

    def c1_det_rf(self, e: E.Expr) -> SplitClass:
        return c1_det_rf(e, self.table, self.assign, self.tangent, rel_dim=1)


@dataclass
class DeligneVerdict:
    ok: bool
    residual: SplitClass
    lhs: SplitClass
    rhs: SplitClass

    def __bool__(self) -> bool:
        return self.ok


def deligne_residual(exponents: tuple[int, int, int, int] = (18, 18, 6, -6)) -> DeligneVerdict:
    """Residual of a*c1(det Rf L) - [b*c1(det Rf O) + c*c1(det Rf L^2 w^-1) + d*c1(det Rf L w^-1)].

    With the canonical exponents (18, 18, 6, -6) the residual is exactly zero.
    """
    a, b, c, d = exponents
    model = CurveModel.standard()
    L = E.Line("L")
    omega_inv = E.Dual(E.Line("omega"))
    lhs = model.c1_det_rf(L) * a
    rhs = (model.c1_det_rf(E.UNIT) * b
           + model.c1_det_rf(E.Tensor((E.Power(L, 2), omega_inv))) * c
           + model.c1_det_rf(E.Tensor((L, omega_inv))) * d)
    residual = lhs - rhs
    return DeligneVerdict(residual.is_zero(), residual, lhs, rhs)


def mumford_exponent(k: int) -> Fraction:
    """Ratio of the f_!(w^2) coefficients of c1 det Rf_*(omega^k) and (omega).

    Equals the pluricanonical exponent 6k^2 - 6k + 1 for every k >= 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    model = CurveModel.standard()
    omega = E.Line("omega")
    w2: S.Monomial = (("w", 2),)
    num = model.c1_det_rf(E.Power(omega, k)).terms.get(w2, 0)
    den = model.c1_det_rf(omega).terms.get(w2, 0)
    return Fraction(num) / den
