"""The packed kernel on int numerators over one denominator.

The series of the truncated ring (`_multiplicative`, `_log_derivative`, and
`_power` at exponent -1) are compared with the Fraction versions they
replace, term by term and by type; `_power` is compared with the squaring
and Horner inverse it replaces, and watched for products it need not form;
and the kernel's routines (`_packed_mul`, `_power`, `_combine`) are watched
for a coefficient that is not an int on the chain, the square, KM and the
Chow ring.
"""

import sys
from fractions import Fraction
from math import comb

import pytest

from adamsrr import chow as C
from adamsrr import expr as E
from adamsrr import rewrite as R
from adamsrr import splitting as S

# ---------------------------------------------------------------------------
# Fraction references: each part and coefficient a Fraction, reduced to an int
# where integral


def _ref_exact(c):
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


def _ref_quotient(c, d):
    return c // d if isinstance(c, int) and not c % d else _ref_exact(Fraction(c, d))


def _ref_log_derivative(g):
    bs = [0] * len(g)
    for j in range(1, len(g)):
        bs[j] = _ref_quotient(j * g[j] - sum(g[i] * bs[j - i] for i in range(1, j)), g[0])
    return bs


def _ref_multiplicative(g, sums, pk):
    rank = sums[0].get(0, 0)
    bs = _ref_log_derivative(g)
    parts = [{0: g[0] ** rank if rank >= 0 else _ref_quotient(1, g[0] ** -rank)}]
    total = dict(parts[0])
    for d in range(1, pk.cutoff):
        acc = {}
        for j in range(1, d + 1):
            if bs[j]:
                for m, c in S._packed_mul(sums[j], parts[d - j], pk.limit).items():
                    acc[m] = acc.get(m, 0) + bs[j] * c
        parts.append({m: _ref_quotient(c, d) for m, c in acc.items() if c})
        for m, c in parts[d].items():
            total[m] = total.get(m, 0) + c
    return {m: _ref_exact(c) for m, c in total.items() if c}


def _ref_horner(coefficients, x, limit):
    out = {}
    for c in reversed(coefficients):
        out = S._packed_mul(out, x, limit)
        if c:
            out[0] = c
    return out


def _ref_inverse(x, pk):
    a = x[0]
    return _ref_horner([_ref_quotient((-1) ** j, a ** (j + 1)) for j in range(pk.cutoff)],
                       {m: c for m, c in x.items() if m}, pk.limit)


# the squaring and the Horner inverse that `_power` replaced, kept as its reference

def _ref_packed_pow(x, k, limit):
    out = {0: 1}
    while k:
        if k & 1:
            out = S._packed_mul(out, x, limit)
        k >>= 1
        if k:
            x = S._packed_mul(x, x, limit)
    return out


def _ref_int_inverse(x, pk):
    """Horner's rule on the ints (-1)^j a^(c-j), c = cutoff - 1, and one division by a^(c+1)."""
    a = x.get(0, 0)
    if not a:
        raise S.EvalError(S._RANK_ZERO_INVERSE)
    c = pk.cutoff - 1
    terms = _ref_horner([(-1) ** j * a ** (c - j) for j in range(pk.cutoff)],
                        {m: v for m, v in x.items() if m}, pk.limit)
    return {m: S._quotient(v, a ** (c + 1)) for m, v in terms.items()}


def _ref_power(x, j, pk):
    if j >= 0:
        return _ref_packed_pow(x, j, pk.limit)
    power = _ref_packed_pow(_ref_int_inverse(x, pk), -j, pk.limit)
    return {m: _ref_exact(c) for m, c in power.items()}


def _typed(terms):
    return {m: (c, type(c)) for m, c in terms.items()}


def _series_g(what, m, cutoff):
    """The g of `_rule`: (x^m - 1)/u for theta^m and tau_m, x = 1 + u for det."""
    if what == "det":
        return (1, 1, *[0] * (cutoff - 2))
    return tuple(comb(m, j + 1) for j in range(cutoff))


def _table():
    t = E.SymbolTable(space="X")
    t.declare_line("L")
    t.declare_line("M")
    t.declare_bundle("E", 2)
    t.declare_bundle("F", 2)
    t.declare_bundle("FsO", 8)
    return t


L, M, B = E.Line("L"), E.Line("M"), E.Bundle("E")

# one class of each rank -2..3, with compound power sums among them
RANKED = {-2: E.Neg(E.Sum((L, E.Psi(2, M)))), -1: E.Neg(E.Tensor((L, E.Dual(M)))),
          0: E.Sum((L, E.Neg(E.Psi(3, M)))), 1: E.Tensor((L, M)), 2: E.Sum((B, E.Neg(L), M)),
          3: E.Sum((E.Tensor((B, L)), M))}


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_log_derivative_is_the_scaled_fraction_series(cutoff):
    pk = S._Packing({}, {}, cutoff)
    for what, m in [("theta", k) for k in (2, 3, 5, 7)] + [("det", 1)]:
        g = _series_g(what, m, cutoff)
        bs = S._log_derivative(g, pk)
        assert all(type(b) is int for b in bs), (what, m)
        assert bs == [g[0] ** j * b for j, b in enumerate(_ref_log_derivative(g))], (what, m)


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_multiplicative_agrees_with_the_fraction_series(cutoff):
    ctx = S.SplitContext(_table())
    pk = S._Packing(ctx.roots, ctx.var_aug, cutoff)
    for rank, e in RANKED.items():
        sums = S._power_sums(1, e, ctx, pk)
        assert sums[0] == ({0: rank} if rank else {})
        # theta of a negative rank is refused before `_multiplicative`; det takes any rank
        thetas = [("theta", k) for k in (2, 3, 5, 7)] if rank >= 0 else []
        for what, m in thetas + [("det", 1)]:
            g = _series_g(what, m, cutoff)
            got = S._multiplicative(g, sums, pk)
            assert _typed(got) == _typed(_ref_multiplicative(g, sums, pk)), (what, m, rank)
            if what == "det":  # g(0) = 1: every denominator is 1
                assert all(type(c) is int for c in got.values()), rank


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_inverse_agrees_with_the_fraction_series(cutoff):
    ctx = S.SplitContext(_table(), opaque=frozenset({"FsO"}))
    pk = S._Packing(ctx.roots, ctx.var_aug, cutoff)
    p_n = 8  # FsO, opaque, of rank p^n = 2^3
    cases = {1: E.Tensor((L, E.Psi(2, M))), -1: E.Neg(E.Tensor((L, E.Dual(M)))),
             2: E.Sum((L, E.Tensor((M, E.Dual(L))))), -2: E.Neg(B), p_n: E.Bundle("FsO")}
    for a, e in cases.items():
        x = S._terms(1, e, ctx, pk)
        assert x[0] == a
        got = S._power(x, -1, ("y", 1, e), pk)
        assert _typed(got) == _typed(_ref_inverse(x, pk)), a
        assert (a in (1, -1)) == all(type(c) is int for c in got.values()), a
        # x * (1/x) = 1 in the truncated ring
        assert S._packed_mul(x, got, pk.limit) == {0: 1}, a


# one base of each kind, with its constant term a: a line, a dual line, a rank-2
# bundle, a dense tensor of theta classes, a rank-0 class and an opaque F_*O of rank p^n
POWER_BASES = {"line": (L, 1), "dual line": (E.Dual(M), 1), "rank 2": (B, 2),
               "theta tensor": (E.Tensor((E.Theta(3, B), E.Dual(E.Theta(3, E.Bundle("F"))))), 81),
               "rank 0": (E.Sum((B, E.IntConst(-2))), 0), "FsO": (E.Bundle("FsO"), 8)}


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_power_agrees_with_squaring_and_the_horner_inverse(cutoff):
    """x^j by the binomial rule, against the squaring of x or of its Horner inverse.

    `packed_eval` builds every power of a base of nonzero rank, and refuses a
    negative power of a rank-0 base as `_power` does.
    """
    ctx = S.SplitContext(_table(), opaque=frozenset({"FsO"}))
    pk = S._Packing(ctx.roots, ctx.var_aug, cutoff)
    for name, (base, a) in POWER_BASES.items():
        x = S._terms(1, base, ctx, pk)
        assert x.get(0, 0) == a, name
        for j in [*range(-6, 13), 40, 100000]:
            if j == 100000 and name == "theta tensor" and cutoff > 3:
                continue  # the reference's squarings of its 10^5-digit coefficients take 7-60 s
            if j < 0 and not a:
                for evaluate in (lambda: S._power(x, j, ("y", 1, base), pk),
                                 lambda: S.packed_eval(E.Power(base, j), ctx, cutoff)):
                    with pytest.raises(S.EvalError, match=S._RANK_ZERO_INVERSE):
                        evaluate()
                continue
            want = _typed(_ref_power(x, j, pk))
            assert _typed(S._power(x, j, ("y", 1, base), pk)) == want, (name, j)
            assert _typed(S.packed_eval(E.Power(base, j), ctx, cutoff).terms) == want, (name, j)


@pytest.fixture
def counted_products(monkeypatch):
    """Patch `_packed_mul` to count its calls."""
    count = [0]
    mul = S._packed_mul

    def counted(a, b, limit):
        count[0] += 1
        return mul(a, b, limit)

    monkeypatch.setattr(S, "_packed_mul", counted)
    return count


@pytest.mark.parametrize("j", [2, 3])
def test_a_low_power_forms_no_more_products_than_squaring(counted_products, j):
    """x^j of a dense class grows the powers of y to y^j: j - 1 products, squaring's j at most."""
    ctx = S.SplitContext(_table())
    x = E.Tensor((E.Theta(3, B), E.Dual(E.Theta(3, E.Bundle("F")))))
    S.packed_eval(x, ctx, 10)
    before = counted_products[0]
    S.packed_eval(E.Power(x, j), ctx, 10)
    assert counted_products[0] - before <= j


def test_a_high_power_of_a_line_is_a_few_products_and_does_not_recurse(counted_products):
    """x^5000 at cutoff 5 takes y^2..y^4, under the default recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    ctx = S.SplitContext(_table())
    S.packed_eval(L, ctx, 5)
    before = counted_products[0]
    got = S.packed_eval(E.Power(L, 5000), ctx, 5)
    assert counted_products[0] - before <= 4
    pk = got.space
    assert got.terms == {i * pk._e("L", 1): comb(5000, i) for i in range(5)}


# ---------------------------------------------------------------------------
# No Fraction reaches the kernel's products


@pytest.fixture
def int_only_kernel(monkeypatch):
    """Patch `_packed_mul`, `_power` and `_combine` to assert int coefficients."""
    seen = {"_packed_mul": 0, "_power": 0, "_combine": 0}

    def ints(*dicts):
        for d in dicts:
            for c in d.values():
                assert type(c) is int, f"{type(c).__name__} coefficient {c} in the kernel"

    mul, power, combine = S._packed_mul, S._power, S._combine

    def checked_mul(a, b, limit):
        seen["_packed_mul"] += 1
        ints(a, b)
        out = mul(a, b, limit)
        ints(out)
        return out

    def checked_power(x, j, key, pk):
        seen["_power"] += 1
        ints(x)
        out = power(x, j, key, pk)
        ints(out)
        return out

    def checked_combine(coefficients, classes):
        seen["_combine"] += 1
        pairs = list(zip(coefficients, classes))
        ints({i: a for i, (a, _) in enumerate(pairs)}, *(terms for _, terms in pairs))
        out = combine([a for a, _ in pairs], [terms for _, terms in pairs])
        ints(out)
        return out

    monkeypatch.setattr(S, "_packed_mul", checked_mul)
    monkeypatch.setattr(S, "_power", checked_power)
    monkeypatch.setattr(S, "_combine", checked_combine)
    return seen


def test_the_chow_ring_runs_on_ints(int_only_kernel):
    assert C.deligne_residual().ok
    assert [C.mumford_exponent(k) for k in range(11)] == [6 * k * k - 6 * k + 1 for k in range(11)]
    table = E.SymbolTable(space="X")
    table.declare_line("L")
    table.declare_line("M")
    assign = {"L": "l", "M": "m"}
    e = E.Sum((E.Tensor((E.Power(L, 2), E.Dual(M))), E.Neg(M), E.UNIT))
    tangent = E.Sum((L, L, E.Neg(E.Dual(M)), E.Neg(L)))
    for top in range(7):
        C.chern_character(e, table, assign, top)
        C.todd(tangent, table, assign, top)
    # each series is a `_combine` over the powers of c1, built by `_packed_mul`
    assert int_only_kernel["_packed_mul"] and int_only_kernel["_combine"], int_only_kernel


@pytest.mark.parametrize("n, p, symbols", [(3, 3, {"L": 1}), (2, 5, {"E": 2})])
def test_the_chain_runs_on_ints(int_only_kernel, n, p, symbols):
    assert R.verify_arr_identity(n, p, R.geom_default_expr(symbols), symbols).verified
    assert all(int_only_kernel[f] for f in ("_packed_mul", "_power", "_combine")), int_only_kernel


def test_the_square_and_km_run_on_ints(int_only_kernel):
    assert R.verify_base_change(2, 3).verified
    assert R.knudsen_mumford_expansion(3, 2).verified
    assert all(int_only_kernel[f] for f in ("_packed_mul", "_power", "_combine")), int_only_kernel
