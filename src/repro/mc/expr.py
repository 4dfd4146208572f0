"""Boolean expressions over finite-domain state variables.

The model checker (our NuXmv substitute) represents a system state as a
mapping from variable names to values drawn from small finite domains
(enum labels, bounded integers, booleans).  Guards of transition commands
and atomic propositions of LTL formulas are expressions from this module;
:func:`emit` spells one as Python source for the model compiler
(:mod:`repro.mc.model`).

A small concrete syntax is provided so properties read like the paper's,
e.g.::

    ue_state = UE_REGISTERED & mac_valid = 1
    sqn_accepted -> received_sqn > last_sqn

Grammar (precedence low to high): ``<->``, ``->``, ``|``, ``&``, ``!``,
comparison (``= != < <= > >=``), atoms (identifiers, integers, ``true``,
``false``, parenthesised expressions).  Identifiers on the right-hand side
of comparisons are treated as enum literals unless they are declared
variables — the parser takes the variable set to disambiguate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Set, Tuple, Union

Value = Union[str, int, bool]
State = Mapping[str, Value]


class ExprError(Exception):
    """Raised on malformed expressions or evaluation against bad states."""


class Expr:
    """Base class for expression nodes. Nodes are immutable and hashable."""

    def evaluate(self, state: State) -> bool:
        raise NotImplementedError

    def variables(self) -> Set[str]:
        raise NotImplementedError

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Expr") -> "Expr":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)

    def implies(self, other: "Expr") -> "Expr":
        return Or(Not(self), other)


@dataclass(frozen=True)
class Const(Expr):
    """A boolean constant."""

    value: bool

    def evaluate(self, state: State) -> bool:
        return self.value

    def variables(self) -> Set[str]:
        return set()

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Const(True)
FALSE = Const(False)

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Compare(Expr):
    """``variable <op> literal`` or ``variable <op> variable``."""

    left: str
    op: str
    right: Value
    right_is_var: bool = False

    def __post_init__(self):
        if self.op not in _OPS:
            raise ExprError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, state: State) -> bool:
        if self.left not in state:
            raise ExprError(f"variable {self.left!r} absent from state")
        left_value = state[self.left]
        if self.right_is_var:
            if self.right not in state:
                raise ExprError(f"variable {self.right!r} absent from state")
            right_value = state[self.right]
        else:
            right_value = self.right
        try:
            return _OPS[self.op](left_value, right_value)
        except TypeError as exc:
            raise ExprError(
                f"incomparable values {left_value!r} {self.op} "
                f"{right_value!r}") from exc

    def variables(self) -> Set[str]:
        names = {self.left}
        if self.right_is_var:
            names.add(str(self.right))
        return names

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def evaluate(self, state: State) -> bool:
        return not self.operand.evaluate(state)

    def variables(self) -> Set[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"!({self.operand})"


class _NaryExpr(Expr):
    """Shared behaviour of conjunction/disjunction."""

    symbol = "?"
    operands: Tuple[Expr, ...]

    def variables(self) -> Set[str]:
        names: Set[str] = set()
        for operand in self.operands:
            names |= operand.variables()
        return names

    def __str__(self) -> str:
        return "(" + f" {self.symbol} ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class And(_NaryExpr):
    operands: Tuple[Expr, ...]
    symbol = "&"

    def __init__(self, *operands: Expr):
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, state: State) -> bool:
        return all(operand.evaluate(state) for operand in self.operands)


@dataclass(frozen=True)
class Or(_NaryExpr):
    operands: Tuple[Expr, ...]
    symbol = "|"

    def __init__(self, *operands: Expr):
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, state: State) -> bool:
        return any(operand.evaluate(state) for operand in self.operands)


#: Python spelling of each comparison operator, for generated source.
_PY_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">",
           ">=": ">="}


def emit(expr: Expr, slot: Callable[[str], str],
         const: Callable[[Value], str],
         hoisted: Callable[[Expr], Optional[str]] = lambda expr: None
         ) -> str:
    """Python source of ``expr``, for the model compiler.

    ``slot(name)`` spells a variable's value and ``const(value)`` a
    literal; the caller routes literals through a constant namespace, so
    no model-supplied string is ever spliced into source.
    ``hoisted(node)`` names the local already holding a sub-expression's
    value, or returns ``None``.  On well-formed states (every variable
    present, compared values comparable) the emitted expression is truthy
    exactly when :meth:`Expr.evaluate` is.
    """
    local = hoisted(expr)
    if local is not None:
        return local
    if isinstance(expr, Const):
        return const(expr.value)
    if isinstance(expr, Compare):
        right = (slot(str(expr.right)) if expr.right_is_var
                 else const(expr.right))
        return f"{slot(expr.left)} {_PY_OPS[expr.op]} {right}"
    if isinstance(expr, Not):
        return f"not ({emit(expr.operand, slot, const, hoisted)})"
    if isinstance(expr, (And, Or)):
        if not expr.operands:
            return "True" if isinstance(expr, And) else "False"
        joiner = " and " if isinstance(expr, And) else " or "
        return joiner.join(f"({emit(operand, slot, const, hoisted)})"
                           for operand in expr.operands)
    raise ExprError(
        f"cannot compile expression node {type(expr).__name__}")


def var_equals(name: str, value: Value) -> Compare:
    """Shorthand used throughout the property catalog."""
    return Compare(name, "=", value)


def conjoin(exprs: Iterable[Expr]) -> Expr:
    items = [e for e in exprs if e is not TRUE]
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(*items)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op><->|->|<=|>=|!=|[()&|!=<>])|(?P<num>-?\d+)"
    r"|(?P<name>[A-Za-z_][\w.]*))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = match.end()
        if match.group("op"):
            tokens.append(("op", match.group("op")))
        elif match.group("num") is not None:
            tokens.append(("num", int(match.group("num"))))
        else:
            tokens.append(("name", match.group("name")))
    return tokens


class _Parser:
    """Recursive-descent parser for the guard concrete syntax."""

    def __init__(self, tokens, variables: Set[str]):
        self.tokens = tokens
        self.position = 0
        self.variables = variables

    def peek(self):
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return (None, None)

    def advance(self):
        token = self.peek()
        self.position += 1
        return token

    def expect(self, op: str):
        kind, value = self.advance()
        if kind != "op" or value != op:
            raise ExprError(f"expected {op!r}, got {value!r}")

    def parse(self) -> Expr:
        expr = self.parse_iff()
        if self.position != len(self.tokens):
            raise ExprError(f"trailing tokens: {self.tokens[self.position:]}")
        return expr

    def parse_iff(self) -> Expr:
        left = self.parse_implies()
        while self.peek() == ("op", "<->"):
            self.advance()
            right = self.parse_implies()
            left = Or(And(left, right), And(Not(left), Not(right)))
        return left

    def parse_implies(self) -> Expr:
        left = self.parse_or()
        if self.peek() == ("op", "->"):
            self.advance()
            right = self.parse_implies()
            return left.implies(right)
        return left

    def parse_or(self) -> Expr:
        operands = [self.parse_and()]
        while self.peek() == ("op", "|"):
            self.advance()
            operands.append(self.parse_and())
        return operands[0] if len(operands) == 1 else Or(*operands)

    def parse_and(self) -> Expr:
        operands = [self.parse_not()]
        while self.peek() == ("op", "&"):
            self.advance()
            operands.append(self.parse_not())
        return operands[0] if len(operands) == 1 else And(*operands)

    def parse_not(self) -> Expr:
        if self.peek() == ("op", "!"):
            self.advance()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, value = self.advance()
        if kind == "op" and value == "(":
            inner = self.parse_iff()
            self.expect(")")
            return inner
        if kind == "name" and value in ("true", "TRUE"):
            return TRUE
        if kind == "name" and value in ("false", "FALSE"):
            return FALSE
        if kind == "name":
            return self.parse_comparison(value)
        raise ExprError(f"unexpected token {value!r}")

    def parse_comparison(self, left: str) -> Expr:
        kind, op = self.peek()
        if kind == "op" and op in _OPS:
            self.advance()
            rkind, rvalue = self.advance()
            if rkind == "num":
                return Compare(left, op, rvalue)
            if rkind == "name":
                is_var = rvalue in self.variables
                return Compare(left, op, rvalue, right_is_var=is_var)
            raise ExprError(f"bad comparison right-hand side {rvalue!r}")
        # A bare identifier is a boolean variable tested for truth.
        return Compare(left, "=", True)


def parse_expr(text: str, variables: Iterable[str] = ()) -> Expr:
    """Parse the concrete guard syntax into an :class:`Expr`.

    ``variables`` lists the declared state variables so that identifiers on
    a comparison's right-hand side can be classified as variable references
    rather than enum literals.
    """
    return _Parser(_tokenize(text), set(variables)).parse()
