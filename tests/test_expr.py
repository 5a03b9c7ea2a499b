"""Expression language: parser, printer, canonical forms, rank homomorphism."""

import copy
import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamsrr import expr as E
from adamsrr import rewrite as R
from adamsrr import suite as SU
from adamsrr.expr import (
    Bundle, Dual, IntConst, Line, Neg, ParseError, Power, Psi, RankError, Sum,
    SymbolTable, SymbolError, Tensor, Theta, UNIT, canonicalize, parse, print_expr, rank,
)


@pytest.fixture
def table():
    t = SymbolTable()
    t.declare_line("L")
    t.declare_line("M")
    t.declare_bundle("E", 2)
    t.declare_bundle("H0", 2)
    t.declare_bundle("H1", 2)
    t.declare_bundle("H", 3)
    return t


def test_parse_theta_of_line(table):
    assert parse("theta(2, L)", table) == Theta(2, Line("L"))


def test_parse_tensor_with_adams_and_dual(table):
    got = parse("psi(3, E) (x) dual(L)", table)
    assert got == canonicalize(Tensor((Psi(3, Bundle("E")), Dual(Line("L")))))
    assert isinstance(got, Tensor)
    assert set(got.factors) == {Psi(3, Bundle("E")), Dual(Line("L"))}


def test_parse_accepts_non_effective_theta_argument(table):
    # effectivity is a semantic check made by the evaluator, not the parser
    got = parse("theta(2, E - L)", table)
    assert got == Theta(2, Sum((Bundle("E"), Neg(Line("L")))))


def test_parse_reports_position_on_syntax_error(table):
    with pytest.raises(ParseError) as err:
        parse("theta(2, L", table)
    assert err.value.position == 10


def test_parse_rejects_undeclared_symbol(table):
    with pytest.raises(ParseError, match="undeclared symbol 'Z'"):
        parse("Z (x) L", table)


def test_parse_power_and_unary_minus(table):
    assert parse("(H0 - H1)^3", table) == Power(Sum((Bundle("H0"), Neg(Bundle("H1")))), 3)
    assert parse("-L + M", table) == Sum((Line("M"), Neg(Line("L"))))
    assert parse("L^-2", table) == Power(Line("L"), -2)


def test_print_theta(table):
    assert print_expr(Theta(2, Line("L"))) == "theta(2, L)"


def test_print_sorts_tensor_operands():
    assert print_expr(Tensor((Line("B"), Line("A")))) == "A (x) B"


def test_print_negated_unit():
    assert print_expr(Sum((Neg(UNIT), Line("L")))) == "L - 1"


def test_print_is_deterministic_on_equal_asts(table):
    a = Sum((Line("L"), Tensor((Line("M"), Bundle("E")))))
    b = Sum((Tensor((Bundle("E"), Line("M"))), Line("L")))
    assert canonicalize(a) == canonicalize(b)
    assert print_expr(a) == print_expr(b)


# a tensor factor that is itself a tensor with a constant
NESTED_CONSTANTS = Tensor((Tensor((IntConst(2), Line("B"))), Tensor((IntConst(3), Bundle("E")))))


def test_parse_print_roundtrip_on_random_expressions():
    rng = random.Random(20240)
    t = SU.law_table()
    for e in [NESTED_CONSTANTS] + [SU.random_expr(rng) for _ in range(300)]:
        text = print_expr(e)
        assert parse(text, t) == canonicalize(e), text


def test_parse_refuses_nesting_beyond_the_limit(table):
    deep = E.MAX_NESTING
    assert parse("(" * deep + "L" + ")" * deep, table) == Line("L")
    assert isinstance(parse("dual(" * deep + "L" + ")" * deep, table), Dual)
    for head in ("(", "dual("):
        with pytest.raises(ParseError, match="nest deeper"):
            parse(head * (deep + 1) + "L" + ")" * (deep + 1), table)


def test_parse_refuses_power_chains_beyond_the_limit(table):
    assert parse("L" + "^1" * E.MAX_NESTING, table) == Line("L")
    with pytest.raises(ParseError, match="powers chain longer"):
        parse("L" + "^1" * (E.MAX_NESTING + 1), table)


def test_parse_refuses_trees_deeper_than_the_limit(table):
    # the deepest tree parentheses and chains allow together still prints;
    # one power more is refused
    deep = E.MAX_NESTING
    widest = "dual(" * deep + "L" + "^1" * (E.MAX_DEPTH - deep - 1) + ")" * deep
    e = parse(widest, table)
    assert parse(print_expr(e), table) == e
    with pytest.raises(ParseError, match="nests deeper"):
        parse(widest.replace("L", "L^1"), table)
    with pytest.raises(ParseError, match="nests deeper"):
        parse("(" * 60 + "L" + ("^1" * 20 + ")") * 60, table)


# one node of every type, each with a non-trivial child where it has one
EVERY_NODE = [
    Line("L"), Bundle("E"), UNIT, IntConst(3), Sum((Line("L"), Neg(Bundle("E")))),
    Neg(Line("L")), Tensor((IntConst(2), Line("L"), Bundle("E"))), Dual(Bundle("E")),
    Psi(2, Line("L")), Theta(3, Bundle("E")), E.Tau(2, Line("L")), E.DetClass(Bundle("E")),
    Power(Sum((Line("L"), UNIT)), 2), E.Pull("F", Psi(2, Bundle("E"))),
]


def test_map_children_identity_on_every_node_type():
    node_types = {c for c in E.Expr.__subclasses__() if c.__module__ == E.__name__}
    assert {type(e) for e in EVERY_NODE} == node_types
    assert len(node_types) == 14
    for e in EVERY_NODE:
        assert E.map_children(e, lambda x: x) == e


def test_map_children_applies_fn_to_direct_children_only():
    def swap(x):
        return Line("M") if x == Line("L") else x

    assert E.map_children(Line("L"), swap) == Line("L")  # a leaf comes back as it is
    assert E.map_children(Neg(Line("L")), swap) == Neg(Line("M"))
    assert E.map_children(E.Pull("F", Line("L")), swap) == E.Pull("F", Line("M"))
    assert E.map_children(Dual(Neg(Line("L"))), swap) == Dual(Neg(Line("L")))


def test_map_children_rejects_an_unknown_node():
    class Unknown(E.Expr):
        pass

    with pytest.raises(E.ExprError, match="unknown expression node"):
        E.map_children(Unknown(), lambda x: x)
    with pytest.raises(E.ExprError, match="unknown expression node"):
        canonicalize(Unknown())
    with pytest.raises(E.ExprError, match="unknown expression node"):
        canonicalize(Tensor((Line("L"), Unknown())))


def test_nodes_keep_their_memos_in_slots():
    # a per-instance __dict__ would cost every node about 100 bytes more
    rng = random.Random(7)
    for e in EVERY_NODE + [SU.random_expr(rng) for _ in range(50)]:
        print_expr(e)
        hash(e)
        for node in _nodes(e) + _nodes(canonicalize(e)):
            assert not hasattr(node, "__dict__"), type(node).__name__


# ---------------------------------------------------------------------------
# Interned nodes: memoized hash, canonical form and text against recomputation

def _nodes(e):
    out = [e]
    E.map_children(e, lambda c: out.extend(_nodes(c)) or c)
    return out


def _rebuild(e):
    """e built again node by node through the constructors."""
    def again(v):
        if isinstance(v, E.Expr):
            return _rebuild(v)
        if isinstance(v, tuple):
            return tuple(again(x) for x in v)
        return v
    return type(e)(*(again(getattr(e, f.name)) for f in dataclasses.fields(e)))


def _key_hash(e):
    return hash((type(e), *(getattr(e, f.name) for f in dataclasses.fields(e))))


def _check_memos(warm):
    """A rebuild of an interned node is the node itself, so the cold copy of each
    memo is its recomputation through the uncached `_canonical_form` and
    `_print_expr_text`."""
    assert _rebuild(warm) is warm
    canon = canonicalize(warm)
    assert canonicalize(canon) is canon
    for node in _nodes(warm) + _nodes(canon):
        assert hash(node) == _key_hash(node)
        if node._canon is E._CANONICAL:
            assert E._canonical_form(node) is node
        elif node._canon is not None:
            assert node._canon is E._canonical_form(node)
        if node._text is not None:
            assert node._text == E._print_expr_text(node)


def test_memos_agree_with_cold_copies_on_random_expressions():
    rng = random.Random(31337)
    draws = [NESTED_CONSTANTS] + [SU.random_expr(rng) for _ in range(2000)]
    # trees sharing subtrees with the draws and with each other, over every node type
    shared = []
    for a, b in zip(draws, draws[1:]):
        shared += [Sum((a, Neg(b))), Tensor((b, a)), Power(Sum((a, b)), 2),
                   E.Pull("F", Tensor((a, Dual(b))))]
    trees = draws + shared
    for e in trees:  # fill every memo first
        hash(e)
        print_expr(e)
    for e in trees:
        _check_memos(e)


def test_memos_agree_with_cold_copies_on_chain_forms(monkeypatch):
    seen = {}
    canonical = E.canonicalize

    def record(e):
        seen.setdefault(id(e), e)
        return canonical(e)

    monkeypatch.setattr(E, "canonicalize", record)
    assert R.verify_arr_identity(2, 3).verified
    monkeypatch.undo()
    # nodes are interned, so this counts distinct trees: 90 for this chain
    forms = list({id(n): n for e in seen.values() for n in _nodes(e)}.values())
    assert len(forms) > 80
    assert any(isinstance(e, E.Pull) for e in forms)
    assert any(isinstance(e, Power) for e in forms)
    for e in forms:
        _check_memos(e)


def test_equal_constructions_are_one_object(table):
    for e in EVERY_NODE:
        assert _rebuild(e) is e
        assert E.map_children(e, _rebuild) is e
        assert parse(print_expr(e), table) is canonicalize(e)
        assert canonicalize(_rebuild(e)) is canonicalize(e)
        for other in EVERY_NODE:
            assert (other == e) is (other is e)
    assert parse("psi(2, L) + L", table) is parse("L + psi(2, L)", table)
    assert E.map_children(Neg(Line("L")), lambda x: Line("M")) is parse("-M", table)


def test_int_fields_refuse_bools_and_other_numbers():
    leaf = Line("IntFieldProbe")
    for build in (lambda v: Psi(v, leaf), lambda v: Theta(v, leaf),
                  lambda v: E.Tau(v, leaf), lambda v: Power(leaf, v)):
        for bad in (True, 2.0, "2"):
            with pytest.raises(E.ExprError, match="must be an int"):
                build(bad)
    for bad in (2.5, "3", None):
        with pytest.raises(E.ExprError, match="must be an int"):
            IntConst(bad)
    # a value equal to the int of a live node finds that node, whose field stays an int
    two = Psi(2, leaf)
    assert Psi(2.0, leaf) is two and type(two.k) is int
    assert print_expr(two) == "psi(2, IntFieldProbe)"


def test_copy_and_pickle_return_the_interned_node():
    for e in EVERY_NODE + [NESTED_CONSTANTS]:
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e
    with pytest.raises(dataclasses.FrozenInstanceError):
        Line("L").name = "M"


def test_the_table_holds_nodes_weakly():
    # a verdict's nodes die with it by reference counting alone, and one sweep
    # drops their entries, those of children held only by dead keys included
    def live_entries():
        E._sweep()
        assert all(ref() is not None for ref in E._table.values())
        return len(E._table)

    gc.collect()
    gc.disable()
    try:
        before = live_entries()
        assert R.verify_arr_identity(2, 3, symbols={"E": 2}).verified
        assert R.verify_arr_identity(3, 2).verified
        assert R.verify_base_change(1, 2).verified
        assert len(E._table) > before + 100
        assert live_entries() == before
    finally:
        gc.enable()


@pytest.mark.parametrize("text,canonical", [
    ("0^1 + L", "L"),
    ("L - 0^1", "L"),
    ("(0 (x) M)^1 + L", "L"),
    ("-(0^1)", "0"),
])
def test_a_zero_base_under_exponent_one_leaves_no_term(table, text, canonical):
    e = parse(text, table)
    assert print_expr(e) == canonical
    assert parse(print_expr(e), table) == e


def test_canonicalize_is_idempotent():
    rng = random.Random(99)
    for e in [NESTED_CONSTANTS] + [SU.random_expr(rng) for _ in range(200)]:
        c = canonicalize(e)
        assert canonicalize(c) == c


def test_rank_of_theta_power_bundle(table):
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            t = SymbolTable()
            t.declare_bundle("W", n)
            assert rank(Theta(p, Bundle("W")), t) == p**n


def test_rank_virtual_difference(table):
    assert rank(Sum((Bundle("E"), Neg(Line("L")))), table) == 1


def test_rank_zero_difference_tensor(table):
    e = Tensor((Sum((Bundle("H0"), Neg(Bundle("H1")))), Bundle("H")))
    assert rank(e, table) == 0


def test_rank_rejects_non_effective_theta_argument(table):
    with pytest.raises(RankError):
        rank(Theta(2, Sum((Bundle("E"), Neg(Line("L"))))), table)


def test_rank_is_a_ring_homomorphism():
    rng = random.Random(4517)
    t = SU.law_table()
    for _ in range(150):
        a, b = SU.random_expr(rng, 2), SU.random_expr(rng, 2)
        assert rank(Sum((a, b)), t) == rank(a, t) + rank(b, t)
        assert rank(Tensor((a, b)), t) == rank(a, t) * rank(b, t)


def test_rank_special_cases(table):
    assert rank(UNIT, table) == 1
    assert rank(IntConst(5), table) == 5
    assert rank(Dual(Bundle("E")), table) == 2
    assert rank(E.DetClass(Bundle("E")), table) == 1
    assert rank(Power(Line("L"), -3), table) == 1


def test_symbol_table_rejects_bad_declarations():
    t = SymbolTable()
    t.declare_bundle("E", 2)
    t.declare_bundle("E", 2)  # same redeclaration is fine
    with pytest.raises(SymbolError):
        t.declare_bundle("E", 3)
    with pytest.raises(SymbolError):
        t.declare_bundle("F", 0)
    with pytest.raises(SymbolError):
        t.declare_line("1bad")


def test_reserved_omega_symbol():
    t = SymbolTable(rel_dim=2)
    assert t.rank(SymbolTable.OMEGA) == 2
    t0 = SymbolTable(rel_dim=0)
    assert t0.rank(SymbolTable.OMEGA) == 0


# ---------------------------------------------------------------------------
# Canonical forms of trees wider than suite.random_expr

WIDE_TABLE = SU.law_table()
WIDE_LEAVES = (Line("A"), Line("B"), Bundle("E"), Bundle("F"), UNIT)
# leaves first, so hypothesis shrinks towards them
WIDE_KINDS = ("leaf", "int", "sum", "neg", "tensor", "power",
              "dual", "psi", "theta", "tau", "det", "pull")


def wide_expr(choose, depth=4):
    """A tree over every node type, drawn by `choose(options)`, which returns one option.

    Unlike `suite.random_expr` it draws negative and zero constants, nested
    negations, powers with exponents -2..3 of negated, zero and unit bases,
    tensors of two or three factors (constants and tensors among them) and
    pullbacks; theta and tau arguments need not be effective.
    """
    kind = choose(WIDE_KINDS if depth > 0 else WIDE_KINDS[:2])
    if kind == "leaf":
        return choose(WIDE_LEAVES)
    if kind == "int":
        return IntConst(choose(range(-2, 3)))

    def sub():
        return wide_expr(choose, depth - 1)

    if kind == "sum":
        return Sum(tuple(sub() for _ in range(choose((2, 3)))))
    if kind == "tensor":
        return Tensor(tuple(sub() for _ in range(choose((2, 3)))))
    if kind == "neg":
        return Neg(sub())
    if kind == "power":
        base = choose(("zero", "unit", "negated", "tree"))
        base = {"tree": sub, "negated": lambda: Neg(sub()),
                "zero": lambda: IntConst(0), "unit": lambda: UNIT}[base]()
        return Power(base, choose((1, 0, -1, 2, -2, 3)))
    if kind in ("psi", "theta", "tau"):
        return {"psi": Psi, "theta": Theta, "tau": E.Tau}[kind](choose((1, 2, 3)), sub())
    if kind == "pull":
        return E.Pull("f", sub())
    return {"dual": Dual, "det": E.DetClass}[kind](sub())


def wide_corpus(seed, count):
    rng = random.Random(seed)
    return [wide_expr(rng.choice) for _ in range(count)]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_wide_trees_print_parse_and_canonicalize_consistently(data):
    e = wide_expr(lambda options: data.draw(st.sampled_from(options)))
    canon = canonicalize(e)
    text = print_expr(e)
    assert parse(text, WIDE_TABLE) == canon
    assert print_expr(parse(text, WIDE_TABLE)) == text
    assert canonicalize(canon) is canon
