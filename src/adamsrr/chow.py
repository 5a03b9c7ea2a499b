"""Truncated intersection-ring model: Chern character, Todd class, pushforward.

Classes have exact rational coefficients in declared degree-1 symbols, in the
ring truncated above a working degree D (a ring quotient; Fulton & Lang,
Riemann-Roch Algebra, 1985) on `splitting`'s packed kernel, which forms no
product above D (Monagan & Pearce, CASC 2007).  Inside, a class is int
numerators over one int denominator, so the kernel sees ints only: exp, Todd
and inverse Todd are sums over the packing's shared table of the powers of
c1(m), with the numerators D!/k!, the B_k^+/k! over their lcm, and
(-1)^k (D+1)!/(k+1)!; a piece raised to a multiplicity takes its denominator
to that power.  Each public class is divided once per coefficient at the
end.  `c1_det_rf` works in degree n+1, where c1 det Rf_* lives, and forms
only the products of that degree.  The pushforward sends a monomial m of
degree >= n to the free symbol f_!(m), keyed by m; no relations between
pushed monomials are assumed, so identities checked here hold
coefficient-by-coefficient.

The built-in relative-curve model (n = 1, symbols l = c1(L), w = c1(omega),
relative tangent omega^(-1)) carries the degree-one Riemann-Roch consequences:
the 18/6/-6 determinant identity and the 6k^2-6k+1 pluricanonical exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from . import expr as E
from . import splitting as S
from .splitting import SplitClass


class ChowError(E.ExprError):
    pass


def _ring(assign: dict[str, str], top: int) -> S._Packing:
    """The layout of the ring over the degree-1 symbols of `assign`, truncated above `top`."""
    return S._Packing({v: (v,) for v in sorted(set(assign.values()))}, {}, top + 1)


def _exp_coefficients(top: int) -> tuple[list[int], int]:
    """e^x = sum x^k/k! for k <= top: the numerators top!/k! over top!."""
    den = factorial(top)
    return [den // factorial(k) for k in range(top + 1)], den


def _inverse_todd_coefficients(top: int) -> tuple[list[int], int]:
    """(1 - e^(-x))/x = sum (-1)^k x^k/(k+1)! for k <= top: (-1)^k (top+1)!/(k+1)! over (top+1)!."""
    den = factorial(top + 1)
    return [(-1) ** k * (den // factorial(k + 1)) for k in range(top + 1)], den


def _todd_coefficients(top: int) -> tuple[list[int], int]:
    """x/(1 - e^(-x)) = sum B_k^+ x^k/k! for k <= top: numerators over the lcm of B_k^+/k!.

    The series inverse of (1 - e^(-x))/x = S(x)/f, S in ints and f = S(0):
    f/S(x) = sum_k R_k x^k / f^k with R_0 = 1, R_k = -sum_(0<i<=k) S_i f^(i-1) R_(k-i).
    """
    s, f = _inverse_todd_coefficients(top)
    r = [1]
    for k in range(1, top + 1):
        r.append(-sum(s[i] * f ** (i - 1) * r[k - i] for i in range(1, k + 1)))
    nums = [rk * f ** (top - k) for k, rk in enumerate(r)]
    g = gcd(f ** top, *nums)
    return [c // g for c in nums], f ** top // g


def _series(coefficients: list[int], m: S.Monomial, assign: dict[str, str], pk: S._Packing) -> dict:
    """sum_k coefficients[k] * x^k, x = c1(m) = sum of e * c1(root) over m, on m's powers table."""
    x: dict[int, int] = {}
    for v, e in m:
        if v not in assign:
            raise ChowError(f"no first-Chern symbol assigned to root {v!r}")
        symbol = pk._e(assign[v], 1)
        x[symbol] = x.get(symbol, 0) + e
    return S._combine(coefficients, pk.powers(("c1", m), lambda: x, len(coefficients) - 1))


def _ch(e: E.Expr, ctx: S.SplitContext, assign: dict[str, str], pk: S._Packing) -> tuple[dict, int]:
    """ch(e) as int numerators over one denominator."""
    exp, den = _exp_coefficients(pk.cutoff - 1)
    total: dict[int, int] = {}
    for m, c in S.eval_expr(e, ctx).terms.items():
        for x, a in _series(exp, m, assign, pk).items():
            total[x] = total.get(x, 0) + a * c
    return total, den


def _todd(tangent: E.Expr, ctx: S.SplitContext, assign: dict[str, str],
          pk: S._Packing) -> tuple[dict, int]:
    """td(tangent) as int numerators over one denominator: a piece to the |c| takes den^|c|."""
    total: dict[int, int] = {0: 1}
    den = 1
    for m, c in S.eval_expr(tangent, ctx).terms.items():
        # td(x) for a line, 1/td(x) = (1 - e^(-x))/x for a negated one
        base, d = (_todd_coefficients if c > 0 else _inverse_todd_coefficients)(pk.cutoff - 1)
        piece = _series(base, m, assign, pk)
        for _ in range(abs(c)):  # c is an integer
            total = S._packed_mul(total, piece, pk.limit)
        den *= d ** abs(c)
    return total, den


def _unpack(fraction: tuple[dict, int], pk: S._Packing) -> SplitClass:
    """The class of int numerators over a denominator, divided once per coefficient."""
    terms, den = fraction
    return pk.unpack({m: S._quotient(c, den) for m, c in terms.items()}, None)


def chern_character(e: E.Expr, table: E.SymbolTable, assign: dict[str, str],
                    top: int) -> SplitClass:
    """ch(e): exp(c1) on each constituent line monomial, extended linearly.

    `assign` maps root variables (line symbol names, or "E.i" for bundle
    roots) to degree-1 symbols.
    """
    pk = _ring(assign, top)
    return _unpack(_ch(e, S.SplitContext(table), assign, pk), pk)


def todd(tangent: E.Expr, table: E.SymbolTable, assign: dict[str, str], top: int) -> SplitClass:
    """Todd class of a tangent class, multiplicative over its line pieces.

    A negative multiplicity (a negated line) takes the inverse Todd series.
    """
    pk = _ring(assign, top)
    return _unpack(_todd(tangent, S.SplitContext(table), assign, pk), pk)


def _c1_det_rf(ch: tuple[dict, int], td: tuple[dict, int], pk: S._Packing) -> SplitClass:
    """f_! of the part of ch * td in the working degree n+1, keyed by the pushed monomials.

    Only the pairs whose degrees sum to n+1 are formed, and the sum of their
    products is divided once by the two denominators' product.
    """
    (a, den_ch), (b, den_td) = ch, td
    top = pk.cutoff - 1
    by_degree: dict[int, list[tuple[int, int]]] = {}
    for m, c in b.items():
        by_degree.setdefault(m >> pk.shift, []).append((m, c))
    out: dict[int, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in by_degree.get(top - (m1 >> pk.shift), ()):
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return _unpack((out, den_ch * den_td), pk)


def c1_det_rf(e: E.Expr, table: E.SymbolTable, assign: dict[str, str],
              tangent: E.Expr, rel_dim: int) -> SplitClass:
    """Degree-1 part of f_!(ch(e) * td(T_f)): the first Chern class of det Rf_*.

    It lives in degree n+1 upstairs, so n+1 is the working degree.
    """
    pk = _ring(assign, rel_dim + 1)
    ctx = S.SplitContext(table)
    return _c1_det_rf(_ch(e, ctx, assign, pk), _todd(tangent, ctx, assign, pk), pk)


# ---------------------------------------------------------------------------
# Relative-curve model (n = 1)

@dataclass
class CurveModel:
    """Fixed n=1 setup: line L with c1 = l, canonical line omega with c1 = w.

    The tangent's Todd class and the split context are built once, for every
    `c1_det_rf` of the model.
    """

    table: E.SymbolTable
    assign: dict[str, str]
    tangent: E.Expr

    def __post_init__(self):
        self._pk = _ring(self.assign, 2)
        self._ctx = S.SplitContext(self.table)
        self._td = _todd(self.tangent, self._ctx, self.assign, self._pk)

    @staticmethod
    def standard() -> "CurveModel":
        t = E.SymbolTable(space="X")
        t.declare_line("L")
        t.declare_line("omega")
        return CurveModel(t, {"L": "l", "omega": "w"}, E.Dual(E.Line("omega")))

    def c1_det_rf(self, e: E.Expr) -> SplitClass:
        return _c1_det_rf(_ch(e, self._ctx, self.assign, self._pk), self._td, self._pk)


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
