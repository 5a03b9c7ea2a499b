"""Property tests of the augmentation: exact in ints, equal to the Fraction formula.

The augmentation sets every root to 1, and an opaque bundle's generator to its
rank; only a negative power of such a generator leaves the integers.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamsrr import expr as E
from adamsrr import suite as SU
from adamsrr.rewrite import PUSHED_STRUCTURE
from adamsrr.splitting import SplitClass, SplitContext, eval_expr


def fraction_augmentation(cls: SplitClass, var_aug: dict[str, int]) -> Fraction:
    """The reference formula: every power of every augmentation taken in Fractions."""
    total = Fraction(0)
    for m, c in cls.terms.items():
        val = Fraction(1)
        for v, e in m:
            val *= Fraction(var_aug.get(v, 1)) ** e
        total += c * val
    return total


def opaque_context() -> SplitContext:
    t = E.SymbolTable(space="X'")
    t.declare_line("L")
    t.declare_bundle("E", 2)
    t.declare_bundle(PUSHED_STRUCTURE, 4)
    return SplitContext(t, opaque=frozenset({PUSHED_STRUCTURE}))


LAW = SplitContext(SU.law_table())
OPAQUE = opaque_context()


def classes(ctx: SplitContext, coefficients) -> st.SearchStrategy:
    monomials = st.dictionaries(st.sampled_from(sorted(ctx.var_aug)),
                                st.integers(-3, 3).filter(bool), max_size=3)
    return st.dictionaries(monomials.map(lambda d: tuple(sorted(d.items()))),
                           coefficients, max_size=6).map(lambda t: SplitClass(t, ctx.space))


integers = st.integers(-20, 20)
rationals = integers | st.fractions(-5, 5, max_denominator=6)


@pytest.mark.parametrize("ctx", [LAW, OPAQUE], ids=["law-table", "opaque"])
@settings(deadline=None)
@given(data=st.data())
def test_augmentation_equals_the_fraction_formula(ctx, data):
    cls = data.draw(classes(ctx, rationals))
    assert ctx.augmentation(cls) == fraction_augmentation(cls, ctx.var_aug)
    assert cls.augmentation() == fraction_augmentation(cls, {})


@settings(deadline=None)
@given(classes(LAW, integers))
def test_augmentation_of_integral_law_classes_is_an_int(cls):
    assert type(LAW.augmentation(cls)) is int
    assert LAW.augmentation(cls) == fraction_augmentation(cls, LAW.var_aug)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_augmentation_of_evaluated_law_expressions(seed):
    e = SU.random_expr(random.Random(seed))
    cls = eval_expr(e, LAW)
    aug = LAW.augmentation(cls)
    assert aug == fraction_augmentation(cls, LAW.var_aug) == E.rank(e, LAW.table)
    assert str(aug) == str(fraction_augmentation(cls, LAW.var_aug))


def test_negative_power_of_an_opaque_generator_is_a_fraction():
    inverse = SplitClass({((PUSHED_STRUCTURE, -1),): 3}, OPAQUE.space)
    assert OPAQUE.augmentation(inverse) == Fraction(3, 4)
