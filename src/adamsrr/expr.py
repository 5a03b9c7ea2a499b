"""Virtual bundle expression language: AST, symbol tables, parser, printer, rank.

Expressions are formal combinations of line/bundle symbols under sum, tensor,
dual, integer powers and the operations psi^k (Adams), theta^k (Bott class),
tau_p (truncated symmetric algebra), det (top exterior class) and pullback
along a named morphism.  Values are immutable and interned, so equal trees
are one object; the canonical printer and the parser are mutually inverse on
canonical forms.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from sys import getrefcount
from typing import Callable


class ExprError(Exception):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SymbolError(ExprError):
    pass


class RankError(ExprError):
    pass


# ---------------------------------------------------------------------------
# Symbol tables

LINE = "line"
BUNDLE = "bundle"


class SymbolTable:
    """Declared symbols of one space: name -> (kind, rank).

    Lines always have rank 1.  `rel_dim` reserves the relative-differentials
    symbol (rank = rel_dim; rank 0 is allowed only for that reserved symbol,
    standing for the zero sheaf when the relative dimension is 0).
    """

    OMEGA = "Omega_f"

    def __init__(self, rel_dim: int | None = None, space: str = "X"):
        self.space = space
        self.rel_dim = rel_dim
        self.entries: dict[str, tuple[str, int]] = {}
        if rel_dim is not None:
            if rel_dim < 0:
                raise SymbolError("relative dimension must be >= 0")
            self.entries[self.OMEGA] = (BUNDLE, rel_dim)

    def declare_line(self, name: str) -> None:
        self._declare(name, LINE, 1)

    def declare_bundle(self, name: str, rank: int) -> None:
        if rank < 1:
            raise SymbolError(f"bundle {name!r} must have rank >= 1, got {rank}")
        self._declare(name, BUNDLE, rank)

    def reserve_bundle(self, name: str, rank: int) -> None:
        """Register an internal bundle symbol; rank 0 allowed (zero sheaf)."""
        if rank < 0:
            raise SymbolError(f"bundle {name!r} must have rank >= 0, got {rank}")
        self._declare(name, BUNDLE, rank)

    def _declare(self, name: str, kind: str, rank: int) -> None:
        if not name or not _is_name(name):
            raise SymbolError(f"bad symbol name {name!r}")
        if name in self.entries:
            if self.entries[name] != (kind, rank):
                raise SymbolError(
                    f"symbol {name!r} redeclared as {kind} rank {rank}, "
                    f"was {self.entries[name][0]} rank {self.entries[name][1]}"
                )
            return
        self.entries[name] = (kind, rank)

    def kind(self, name: str) -> str:
        return self._lookup(name)[0]

    def symbol(self, name: str) -> "Expr":
        """The declared symbol as an expression: its `Line`, or its `Bundle`."""
        return (Line if self.kind(name) == LINE else Bundle)(name)

    def rank(self, name: str) -> int:
        return self._lookup(name)[1]

    def _lookup(self, name: str) -> tuple[str, int]:
        try:
            return self.entries[name]
        except KeyError:
            raise SymbolError(f"undeclared symbol {name!r} on space {self.space}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self) -> list[str]:
        return sorted(self.entries)


def _is_name(s: str) -> bool:
    return s[0].isalpha() or s[0] == "_" if s else False


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True, eq=False, init=False)
class Expr:
    """An immutable expression node, interned: equal trees are one object.

    Each node class keeps its own intern table (`_table`), holding its nodes
    strongly, so constructing a node whose fields equal those of a node in
    the table returns that node.  A class of one field keys its table by the
    field itself (the name, the int, the child node or the tuple of children),
    a class of two by the pair, and one of none by `()`.  Equality is therefore
    identity, and so is the hash (`object.__hash__`), which costs no Python
    call in the memos and tables keyed by nodes.  Each node also keeps, once
    computed, its canonical form, its printed text and, on a canonical node,
    its multilinear expansion (`expand_top`), so they are paid once per
    distinct tree.  These three memos live in slots
    that are not dataclass fields, so repr never sees them.  A node never
    holds itself: a canonical node marks `_canon` with `_CANONICAL`, and a
    node that is its own one monomial marks `_expansion` with `_ATOMIC`,
    so trees hold no reference cycle, which no sweep could drop.
    """

    __slots__ = ("_canon", "_text", "_expansion", "__weakref__")
    _fields = ()  # the dataclass field names, in order; `_node` sets them
    _int_fields = ()  # the positions of the int-valued fields among them

    def __init_subclass__(cls, **kwargs):  # every subclass, decorated or not, interns apart
        super().__init_subclass__(**kwargs)
        cls._table = {}
        _tables.append(cls._table)

    def __new__(cls):  # a class without fields; `_node` gives the others `_new1` or `_new2`
        return cls._table.get(()) or _intern(cls, (), ())

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __str__(self) -> str:
        return print_expr(self)


def _new1(cls, a):
    return cls._table.get(a) or _intern(cls, a, (a,))


def _new2(cls, a, b):
    key = (a, b)
    return cls._table.get(key) or _intern(cls, key, key)


_CANONICAL = object()  # the `_canon` of a node that is its own canonical form
_ATOMIC = object()  # the `_expansion` of a node that is its own one monomial

# One table per node class, `cls._table`: its key (see `Expr`) -> the node, held
# strongly, so a verdict's nodes and their memos carry over to the next verdict.
# An entry whose node nothing else holds stays until `_sweep` drops it, once the
# tables together have doubled since the last sweep (and hold _SWEEP_FLOOR).
_tables: list[dict] = []
_SWEEP_FLOOR = 4096
_sweep_at = _SWEEP_FLOOR
_entries = 0  # the entries of all tables together


def _intern(cls, key, fields: tuple) -> Expr:
    """Make the node of `fields`, whose entry `key` is missing, and enter it.

    An int field refuses a bool or any other non-int value.  A value equal
    to the int field of a node in the table (`2.0`, `True`) finds that node
    before it gets here, so no node ever holds anything but an int there,
    nor an operator index (`_INDEXED`) below 1.
    """
    global _entries
    for i in cls._int_fields:
        v = fields[i]
        if type(v) is not int:
            raise ExprError(f"{cls.__name__}.{cls._fields[i]} must be an int, got {v!r}")
    if cls in _INDEXED and fields[0] < 1:
        raise ExprError(f"{cls.__name__.lower()} index must be >= 1, got {fields[0]}")
    node = object.__new__(cls)
    for name, v in zip(cls._fields, fields):
        object.__setattr__(node, name, v)
    object.__setattr__(node, "_canon", None)
    object.__setattr__(node, "_text", None)
    object.__setattr__(node, "_expansion", None)
    cls._table[key] = node
    _entries += 1
    if _entries >= _sweep_at:
        _sweep()
    return node


def _sweep() -> None:
    """Drop the entries of nodes that only their entry holds, pass after pass until none is left.

    A dropped node releases its children, its key's and its memos' nodes, which may go in turn.
    """
    global _sweep_at, _entries
    while sum(map(_drop_dead, _tables)):
        pass
    _entries = sum(map(len, _tables))
    _sweep_at = max(_SWEEP_FLOOR, 2 * _entries)


def _drop_dead(table: dict) -> int:
    dead = [key for key, node in table.items() if getrefcount(node) == _ALONE]
    for key in dead:
        del table[key]
    return len(dead)


# what `getrefcount` reads in `_drop_dead`'s loop (with its name, argument and cached item
# pair) for a node its entry alone holds, found by that very loop over probes only a dict holds
_ALONE = 1
while not _drop_dead({None: object()}):
    _ALONE += 1


def _node(cls):
    """A frozen dataclass node of at most two fields, built through its class's intern table."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    fields = dataclasses.fields(cls)
    cls._fields = tuple(f.name for f in fields)
    cls._int_fields = tuple(i for i, f in enumerate(fields) if f.type in ("int", int))
    if fields:
        cls.__new__ = (_new1, _new2)[len(fields) - 1]
    return cls


@_node
class Line(Expr):
    __slots__ = ("name",)
    name: str


@_node
class Bundle(Expr):
    __slots__ = ("name",)
    name: str


@_node
class Unit(Expr):
    __slots__ = ()


@_node
class IntConst(Expr):
    __slots__ = ("value",)
    value: int


@_node
class Sum(Expr):
    __slots__ = ("terms",)
    terms: tuple[Expr, ...]


@_node
class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr


@_node
class Tensor(Expr):
    __slots__ = ("factors",)
    factors: tuple[Expr, ...]


@_node
class Dual(Expr):
    __slots__ = ("arg",)
    arg: Expr


@_node
class Psi(Expr):
    __slots__ = ("k", "arg")
    k: int
    arg: Expr


@_node
class Theta(Expr):
    __slots__ = ("k", "arg")
    k: int
    arg: Expr


@_node
class Tau(Expr):
    __slots__ = ("p", "arg")
    p: int
    arg: Expr


@_node
class DetClass(Expr):
    __slots__ = ("arg",)
    arg: Expr


@_node
class Power(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int


@_node
class Pull(Expr):
    """Pullback of `arg` along the morphism named `morphism`."""

    __slots__ = ("morphism", "arg")
    morphism: str
    arg: Expr


_INDEXED = (Psi, Theta, Tau)  # the operators whose first field, an index, `_intern` refuses below 1
UNIT = Unit()
ZERO = IntConst(0)


def map_children(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild `e` with `fn` applied to each direct child; leaves come back as they are."""
    if isinstance(e, (Line, Bundle, Unit, IntConst)):
        return e
    if isinstance(e, (Neg, Dual, DetClass)):
        return type(e)(fn(e.arg))
    if isinstance(e, (Psi, Theta)):
        return type(e)(e.k, fn(e.arg))
    if isinstance(e, Sum):
        return Sum(tuple(fn(t) for t in e.terms))
    if isinstance(e, Tensor):
        return Tensor(tuple(fn(f) for f in e.factors))
    if isinstance(e, Power):
        return Power(fn(e.base), e.exponent)
    if isinstance(e, Tau):
        return Tau(e.p, fn(e.arg))
    if isinstance(e, Pull):
        return Pull(e.morphism, fn(e.arg))
    raise ExprError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Canonical form

def canonicalize(e: Expr) -> Expr:
    """Flatten sums/tensors, push signs to term level, sort operands.

    One walk, `_signed_terms`, collects the canonical terms of e's sum level
    with their signs; they are sorted by printed text, the negated ones last.
    No zero term survives: a zero constant, a tensor with a zero factor and
    a power of a zero base under exponent 1 contribute nothing.  The result
    is the unique form the printer emits; parse(print(e)) equals
    canonicalize(e) for every well-formed e.  It is computed once per node
    and kept on the node, and the result is marked as its own canonical form.
    """
    canon = e._canon
    if canon is None:
        canon = _canonical_form(e)
        if canon is not e:
            object.__setattr__(e, "_canon", canon)
        object.__setattr__(canon, "_canon", _CANONICAL)
        return canon
    return e if canon is _CANONICAL else canon


def _canonical_form(e: Expr) -> Expr:
    pos: list[Expr] = []
    neg: list[Expr] = []
    _signed_terms(e, pos, neg)
    pos.sort(key=_print)
    neg.sort(key=_print)
    terms = pos + [Neg(t) for t in neg]
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _signed_terms(e: Expr, pos: list[Expr], neg: list[Expr]) -> None:
    """Append each canonical sum-level term of e to `pos`, or to `neg` if it is negated."""
    if isinstance(e, Sum):
        for t in e.terms:
            _signed_terms(t, pos, neg)
    elif isinstance(e, Neg):
        _signed_terms(e.arg, neg, pos)
    elif isinstance(e, IntConst):
        if e.value < 0:
            neg.append(UNIT if e.value == -1 else IntConst(-e.value))
        elif e.value:
            pos.append(UNIT if e.value == 1 else e)
    elif isinstance(e, Tensor):
        factors: list[Expr] = []
        const = 1
        for f in e.factors:
            f = canonicalize(f)
            if isinstance(f, Neg):
                pos, neg = neg, pos
                f = f.arg
            if isinstance(f, IntConst):  # canonical, so not negative: -k is Neg(k)
                if f.value == 0:
                    return
                const *= f.value
            elif isinstance(f, Tensor):
                # a canonical tensor carries its positive constant first
                for g in f.factors:
                    if isinstance(g, IntConst):
                        const *= g.value
                    else:
                        factors.append(g)
            elif not isinstance(f, Unit):
                factors.append(f)
        factors.sort(key=_print)
        if const != 1:
            factors.insert(0, IntConst(const))
        if len(factors) > 1:
            pos.append(Tensor(tuple(factors)))
        elif not factors:
            pos.append(UNIT)
        elif isinstance(factors[0], Sum):
            _signed_terms(factors[0], pos, neg)
        else:
            pos.append(factors[0])
    elif isinstance(e, Power) and e.exponent == 0:
        pos.append(UNIT)
    elif isinstance(e, Power):
        base = canonicalize(e.base)
        if isinstance(base, Neg):
            if e.exponent % 2:
                pos, neg = neg, pos
            base = base.arg
        if e.exponent == 1:  # walked again: a sum base flattens, a zero one adds nothing
            _signed_terms(base, pos, neg)
        else:
            pos.append(UNIT if isinstance(base, Unit) else Power(base, e.exponent))
    else:
        pos.append(map_children(e, canonicalize))


# ---------------------------------------------------------------------------
# Printer

def print_expr(e: Expr) -> str:
    """Canonical text: sorted operands, deterministic parenthesization."""
    return _print(canonicalize(e))


def _print(e: Expr) -> str:
    """The text of a canonical node, computed once and kept on the node."""
    text = e._text
    if text is None:
        text = _print_expr_text(e)
        object.__setattr__(e, "_text", text)
    return text


def _print_expr_text(e: Expr) -> str:
    if isinstance(e, Sum):
        out = []
        for i, t in enumerate(e.terms):
            if isinstance(t, Neg):
                out.append("- " if i else "-")
                out.append(_print_term(t.arg))
            else:
                if i:
                    out.append("+ ")
                out.append(_print_term(t))
            out.append(" ")
        return "".join(out).strip()
    if isinstance(e, Neg):
        return "-" + _print_term(e.arg)
    return _print_term(e)


def _print_term(e: Expr) -> str:
    if isinstance(e, Tensor):
        return " (x) ".join(_print_factor(f) for f in e.factors)
    return _print_factor(e)


def _print_factor(e: Expr) -> str:
    if isinstance(e, Power):
        return f"{_print_primary(e.base)}^{e.exponent}"
    return _print_primary(e)


def _print_primary(e: Expr) -> str:
    if isinstance(e, Line) or isinstance(e, Bundle):
        return e.name
    if isinstance(e, Unit):
        return "1"
    if isinstance(e, IntConst):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, Dual):
        return f"dual({_print(e.arg)})"
    if isinstance(e, DetClass):
        return f"det({_print(e.arg)})"
    if isinstance(e, Psi):
        return f"psi({e.k}, {_print(e.arg)})"
    if isinstance(e, Theta):
        return f"theta({e.k}, {_print(e.arg)})"
    if isinstance(e, Tau):
        return f"tau({e.p}, {_print(e.arg)})"
    if isinstance(e, Pull):
        return f"pull({e.morphism}, {_print(e.arg)})"
    if isinstance(e, (Sum, Neg, Tensor, Power)):
        return f"({_print(e)})"
    raise ExprError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Multilinear expansion

def expand_top(e: Expr) -> tuple[tuple[int, Expr], ...]:
    """Top-level multilinear expansion of canonicalize(e) into (integer coeff, tensor monomial).

    Sums distribute; integer constants and signs become coefficients; powers
    and operator terms stay atomic so factored shapes survive.  Each tensor
    monomial's factors are sorted by printed text.  The expansion is a pure
    function of the canonical node, so it is computed once and kept there.
    """
    e = canonicalize(e)
    terms = e._expansion
    if terms is None:
        terms = _expansion(e)
        object.__setattr__(e, "_expansion", _ATOMIC if terms == ((1, e),) else terms)
        return terms
    return ((1, e),) if terms is _ATOMIC else terms


def _expansion(e: Expr) -> tuple[tuple[int, Expr], ...]:
    if isinstance(e, Sum):
        return tuple(cm for t in e.terms for cm in expand_top(t))
    if isinstance(e, Neg):
        return tuple((-c, m) for c, m in expand_top(e.arg))
    if isinstance(e, IntConst):
        return ((e.value, UNIT),) if e.value else ()
    if not isinstance(e, Tensor):
        return ((1, e),)
    acc: list[tuple[int, list[Expr]]] = [(1, [])]
    for f in e.factors:
        acc = [(c0 * c1, facs + _factors_of(m)) for c0, facs in acc for c1, m in expand_top(f)]
    out = []
    for c, facs in acc:
        if c == 0:
            continue
        facs.sort(key=print_expr)
        if not facs:
            out.append((c, UNIT))
        elif len(facs) == 1:
            out.append((c, facs[0]))
        else:
            out.append((c, Tensor(tuple(facs))))
    return tuple(out)


def _factors_of(m: Expr) -> list[Expr]:
    if isinstance(m, Tensor):
        return list(m.factors)
    return [] if isinstance(m, Unit) else [m]


# ---------------------------------------------------------------------------
# Parser (recursive descent)

_KEYWORD_OPS = {"dual", "psi", "theta", "tau", "det", "pull"}
# deepest parentheses and longest `^` chain `parse` accepts, well below the recursion limit
MAX_NESTING = 100
# longest integer literal `parse` accepts, the interpreter's default limit on int(str)
MAX_DIGITS = 4300
# deepest tree `parse` builds: canonicalize and print_expr recurse once per level
MAX_DEPTH = 2 * MAX_NESTING


# one group per token kind, none for whitespace: INT is a run of ASCII digits, a NAME
# must also pass `_is_name`, and any other character is BAD
_TOKEN = re.compile(r"\s+|(?P<TENSOR>\(x\))|(?P<INT>[0-9]+)|(?P<NAME>\w+)|(?P<OP>[-+^(),;])"
                    r"|(?P<BAD>.)", re.S)


class _Tokens:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        depth = 0
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            value = m.group()
            if kind == "OP":
                if value == "(":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", m.start())
                elif value == ")":
                    depth -= 1
                kind = value
            elif kind == "BAD" or kind == "NAME" and not _is_name(value):
                raise ParseError(f"unexpected character {value[0]!r}", m.start())
            elif kind == "INT" and len(value) > MAX_DIGITS:
                raise ParseError(f"integer longer than {MAX_DIGITS} digits", m.start())
            self.tokens.append((kind, value, m.start()))
        self.tokens.append(("EOF", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            wanted = {"INT": "an integer", "NAME": "a name"}.get(kind, repr(kind))
            raise ParseError(f"expected {wanted}, found {_shown(tok)}", tok[2])
        return tok


def _shown(tok: tuple[str, str, int]) -> str:
    return "end of input" if tok[0] == "EOF" else repr(tok[1])


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse the expression DSL against a symbol table.

    Grammar: expr := ["-"] term (("+"|"-") term)*; term := factor ("(x)"
    factor)*; factor := primary ["^" ["-"] INT]; primary := INT | NAME |
    dual/psi/theta/tau/det/pull call | "(" expr ")".  Parentheses nesting
    deeper than MAX_NESTING are refused before the descent starts, and so
    is a chain of more than MAX_NESTING powers on one factor.  A tree deeper
    than MAX_DEPTH nodes (parentheses and chains together) is refused where
    it grows past it, so every parsed tree can be canonicalized and printed.
    """
    toks = _Tokens(text)
    e, _ = _parse_expr(toks, table)
    _expect_end(toks)
    return canonicalize(e)


def parse_det_line(text: str, table: SymbolTable) -> list[tuple[str, Expr, int]]:
    """Parse a tensor word of det atoms: one (morphism, argument, exponent) per factor.

    Grammar: line := atom ("(x)" atom)*; atom := "det_rf" "(" NAME "," expr
    ")" ["^" ["-"] INT].  Arguments follow `parse`'s grammar and limits, and
    error positions count from the start of `text`.
    """
    toks = _Tokens(text)
    out = []
    while True:
        tok = toks.next()
        if tok[:2] != ("NAME", "det_rf"):
            raise ParseError(f"expected 'det_rf', found {_shown(tok)}", tok[2])
        toks.expect("(")
        name = toks.expect("NAME")[1]
        toks.expect(",")
        arg, _ = _parse_expr(toks, table)
        toks.expect(")")
        exponent = _parse_exponent(toks) if toks.peek()[0] == "^" else 1
        out.append((name, canonicalize(arg), exponent))
        if toks.peek()[0] != "TENSOR":
            break
        toks.next()
    _expect_end(toks)
    return out


def name_tokens(text: str) -> tuple[list[str], set[str]]:
    """The NAME tokens of `text` in order, and the set of those that name a morphism.

    A morphism name is the NAME right after `det_rf (` or `pull (`.  Scans as
    `parse` does, so input that it refuses for its characters or its
    parentheses nesting is refused here already.
    """
    toks = _Tokens(text).tokens
    morphisms = {name for (_, op, _), (paren, _, _), (kind, name, _)
                 in zip(toks, toks[1:], toks[2:])
                 if op in ("det_rf", "pull") and paren == "(" and kind == "NAME"}
    return [value for kind, value, _ in toks if kind == "NAME"], morphisms


def _expect_end(toks: _Tokens) -> None:
    tok = toks.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])


# Each _parse_* returns the node and its depth (nodes on its longest path to a leaf).

def _deeper(depth: int, toks: _Tokens) -> int:
    """Depth of a node built over a child of `depth`; refuses past MAX_DEPTH."""
    if depth >= MAX_DEPTH:
        raise ParseError(f"expression nests deeper than {MAX_DEPTH}", toks.peek()[2])
    return depth + 1


def _parse_expr(toks: _Tokens, table: SymbolTable) -> tuple[Expr, int]:
    terms: list[Expr] = []
    depth = 0
    op = toks.next()[0] if toks.peek()[0] == "-" else "+"
    while True:
        t, d = _parse_term(toks, table)
        if op == "-":
            t, d = Neg(t), _deeper(d, toks)
        terms.append(t)
        depth = max(depth, d)
        if toks.peek()[0] not in ("+", "-"):
            break
        op = toks.next()[0]
    if len(terms) == 1:
        return terms[0], depth
    return Sum(tuple(terms)), _deeper(depth, toks)


def _parse_term(toks: _Tokens, table: SymbolTable) -> tuple[Expr, int]:
    f, depth = _parse_factor(toks, table)
    factors = [f]
    while toks.peek()[0] == "TENSOR":
        toks.next()
        f, d = _parse_factor(toks, table)
        factors.append(f)
        depth = max(depth, d)
    if len(factors) == 1:
        return f, depth
    return Tensor(tuple(factors)), _deeper(depth, toks)


def _parse_factor(toks: _Tokens, table: SymbolTable) -> tuple[Expr, int]:
    e, depth = _parse_primary(toks, table)
    chain = 0
    while toks.peek()[0] == "^":
        chain += 1
        if chain > MAX_NESTING:
            raise ParseError(f"powers chain longer than {MAX_NESTING}", toks.peek()[2])
        depth = _deeper(depth, toks)
        e = Power(e, _parse_exponent(toks))
    return e, depth


def _parse_exponent(toks: _Tokens) -> int:
    """'^' ['-'] INT, the '^' not yet consumed."""
    toks.next()
    sign = 1
    if toks.peek()[0] == "-":
        toks.next()
        sign = -1
    return sign * int(toks.expect("INT")[1])


def _parse_primary(toks: _Tokens, table: SymbolTable) -> tuple[Expr, int]:
    tok = toks.next()
    kind, value, pos = tok
    if kind == "INT":
        return IntConst(int(value)), 1
    if kind == "(":
        inner = _parse_expr(toks, table)
        toks.expect(")")
        return inner
    if kind == "NAME":
        if value in _KEYWORD_OPS:
            e, depth = _parse_call(value, toks, table, pos)
            return e, _deeper(depth, toks)
        if value == "O":
            return UNIT, 1
        if value not in table:
            raise ParseError(f"undeclared symbol {value!r}", pos)
        return table.symbol(value), 1
    if kind == "EOF":
        raise ParseError("unexpected end of input", pos)
    raise ParseError(f"unexpected token {value!r}", pos)


def _parse_call(head: str, toks: _Tokens, table: SymbolTable, pos: int) -> tuple[Expr, int]:
    """An operator call and the depth of its argument."""
    toks.expect("(")
    if head in ("psi", "theta", "tau"):
        k = int(toks.expect("INT")[1])
        toks.expect(",")
        arg, depth = _parse_expr(toks, table)
        toks.expect(")")
        if k < 1:
            raise ParseError(f"{head} index must be >= 1", pos)
        ctor = {"psi": Psi, "theta": Theta, "tau": Tau}[head]
        return ctor(k, arg), depth
    if head == "pull":
        name = toks.expect("NAME")[1]
        toks.expect(",")
        arg, depth = _parse_expr(toks, table)
        toks.expect(")")
        return Pull(name, arg), depth
    arg, depth = _parse_expr(toks, table)
    toks.expect(")")
    return (Dual(arg) if head == "dual" else DetClass(arg)), depth


# ---------------------------------------------------------------------------
# Rank homomorphism

def rank(e: Expr, table: SymbolTable) -> int:
    """Virtual rank: additive on sums, multiplicative on tensors.

    Read off the syntax alone: rank(theta^k(E)) = k^rank(E) and
    rank(tau_p(E)) = p^rank(E), for any argument E of rank >= 0.
    """
    if isinstance(e, (Line, Unit)):
        return 1
    if isinstance(e, Bundle):
        return table.rank(e.name)
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, Sum):
        return sum(rank(t, table) for t in e.terms)
    if isinstance(e, Neg):
        return -rank(e.arg, table)
    if isinstance(e, Tensor):
        r = 1
        for f in e.factors:
            r *= rank(f, table)
        return r
    if isinstance(e, (Dual, Psi)):
        return rank(e.arg, table)
    if isinstance(e, (Theta, Tau)):
        k = e.k if isinstance(e, Theta) else e.p
        r = rank(e.arg, table)
        if r < 0:
            raise RankError(f"negative rank {r} under theta/tau")
        return k**r
    if isinstance(e, DetClass):
        return 1
    if isinstance(e, Power):
        if e.exponent >= 0:
            return rank(e.base, table) ** e.exponent
        r = rank(e.base, table)
        if r not in (1, -1):
            raise RankError(f"negative power of a class of rank {r}")
        return 1 if r == 1 or e.exponent % 2 == 0 else -1
    if isinstance(e, Pull):
        raise RankError(f"no table registered for pullback along {e.morphism!r}")
    raise ExprError(f"unknown expression node {e!r}")

