"""Linear temporal logic formulas over state-variable atoms.

Properties in the paper are rich temporal properties ("safety, liveliness,
correspondence").  We support full propositional LTL with ``X`` (next),
``U`` (until), ``R`` (release), ``F`` (eventually) and ``G`` (globally),
interpreted over infinite executions of the threat-instrumented model.

Construction can be programmatic (:func:`G`, :func:`F`, ...) or textual
via :func:`parse_ltl`, e.g.::

    G (ue_state = UE_REGISTERED_INIT & auth_accepted = 1
       -> received_sqn > last_accepted_sqn)

Formulas are converted to negation normal form before Büchi translation
(:mod:`repro.mc.buchi`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Set

from .expr import Expr, ExprError, parse_expr


class LTLError(Exception):
    """Raised for malformed temporal formulas."""


class Formula:
    """Base class of LTL formula nodes; immutable and hashable."""

    def negate(self) -> "Formula":
        """Logical negation, pushed one level (used for NNF)."""
        raise NotImplementedError

    def atoms(self) -> Set[Expr]:
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(Formula):
    """A state predicate (an :class:`repro.mc.expr.Expr`)."""

    expr: Expr
    negated: bool = False

    def evaluate(self, state) -> bool:
        value = self.expr.evaluate(state)
        return (not value) if self.negated else value

    def negate(self) -> "Formula":
        return Atom(self.expr, not self.negated)

    def atoms(self) -> Set[Expr]:
        return {self.expr}

    def __str__(self) -> str:
        return f"!({self.expr})" if self.negated else str(self.expr)


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool

    def negate(self) -> "Formula":
        return BoolConst(not self.value)

    def atoms(self) -> Set[Expr]:
        return set()

    def __str__(self) -> str:
        return "true" if self.value else "false"


LTL_TRUE = BoolConst(True)
LTL_FALSE = BoolConst(False)


@dataclass(frozen=True)
class BinOp(Formula):
    """Binary node: ``and``, ``or``, ``U`` (until), ``R`` (release)."""

    op: str
    left: Formula
    right: Formula

    _DUAL = {"and": "or", "or": "and", "U": "R", "R": "U"}

    def __post_init__(self):
        if self.op not in self._DUAL:
            raise LTLError(f"unknown binary operator {self.op!r}")

    def negate(self) -> "Formula":
        return BinOp(self._DUAL[self.op], self.left.negate(),
                     self.right.negate())

    def atoms(self) -> Set[Expr]:
        return self.left.atoms() | self.right.atoms()

    def __str__(self) -> str:
        symbol = {"and": "&", "or": "|", "U": "U", "R": "R"}[self.op]
        return f"({self.left} {symbol} {self.right})"


@dataclass(frozen=True)
class UnOp(Formula):
    """Unary node: ``X`` (next) — G/F are encoded via U/R at construction."""

    op: str
    operand: Formula

    def __post_init__(self):
        if self.op != "X":
            raise LTLError(f"unknown unary operator {self.op!r}")

    def negate(self) -> "Formula":
        return UnOp("X", self.operand.negate())

    def atoms(self) -> Set[Expr]:
        return self.operand.atoms()

    def __str__(self) -> str:
        return f"X ({self.operand})"


# ---------------------------------------------------------------------------
# Constructors (already in negation normal form by construction)
# ---------------------------------------------------------------------------
def atom(expr_or_text, variables: Iterable[str] = ()) -> Atom:
    """Build an atom from an :class:`Expr` or from guard-syntax text."""
    if isinstance(expr_or_text, str):
        return Atom(parse_expr(expr_or_text, variables))
    if isinstance(expr_or_text, Expr):
        return Atom(expr_or_text)
    raise LTLError(f"cannot build atom from {expr_or_text!r}")


def Not_(formula: Formula) -> Formula:  # noqa: N802 - mirrors LTL syntax
    return formula.negate()


def And_(left: Formula, right: Formula) -> Formula:  # noqa: N802
    return BinOp("and", left, right)


def Or_(left: Formula, right: Formula) -> Formula:  # noqa: N802
    return BinOp("or", left, right)


def Implies(left: Formula, right: Formula) -> Formula:
    return BinOp("or", left.negate(), right)


def X(formula: Formula) -> Formula:  # noqa: N802
    return UnOp("X", formula)


def U(left: Formula, right: Formula) -> Formula:  # noqa: N802
    return BinOp("U", left, right)


def R(left: Formula, right: Formula) -> Formula:  # noqa: N802
    return BinOp("R", left, right)


def F(formula: Formula) -> Formula:  # noqa: N802
    """Eventually: ``F p  ==  true U p``."""
    return BinOp("U", LTL_TRUE, formula)


def G(formula: Formula) -> Formula:  # noqa: N802
    """Globally: ``G p  ==  false R p``."""
    return BinOp("R", LTL_FALSE, formula)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
_TEMPORAL_TOKEN_RE = re.compile(
    r"\s*(?:(?P<cmp>!=|<=|>=)|(?P<op><->|->|U\b|R\b|[()&|!])"
    r"|(?P<unary>[GFX])\b|(?P<rest>[^()&|!\s]+))")


class _LTLParser:
    """Parser for the textual LTL syntax.

    Maximal non-operator runs are handed to the guard parser, so atoms may
    contain comparisons without extra quoting.
    """

    def __init__(self, text: str, variables: Set[str]):
        self.tokens = self._tokenize(text)
        self.position = 0
        self.variables = variables

    @staticmethod
    def _tokenize(text: str):
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TEMPORAL_TOKEN_RE.match(text, pos)
            if not match or match.end() == pos:
                if text[pos:].strip():
                    raise LTLError(f"cannot tokenize {text[pos:]!r}")
                break
            pos = match.end()
            if match.group("cmp"):
                # comparison operators belong to atoms, not the LTL layer
                tokens.append(("word", match.group("cmp")))
            elif match.group("op"):
                tokens.append(("op", match.group("op").strip()))
            elif match.group("unary"):
                tokens.append(("unary", match.group("unary")))
            else:
                tokens.append(("word", match.group("rest")))
        return tokens

    def peek(self):
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return (None, None)

    def advance(self):
        token = self.peek()
        self.position += 1
        return token

    def parse(self) -> Formula:
        formula = self.parse_implies()
        if self.position != len(self.tokens):
            raise LTLError(f"trailing tokens: {self.tokens[self.position:]}")
        return formula

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        kind, value = self.peek()
        if (kind, value) == ("op", "->"):
            self.advance()
            return Implies(left, self.parse_implies())
        if (kind, value) == ("op", "<->"):
            self.advance()
            right = self.parse_implies()
            return Or_(And_(left, right),
                       And_(left.negate(), right.negate()))
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek() == ("op", "|"):
            self.advance()
            left = Or_(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_until()
        while self.peek() == ("op", "&"):
            self.advance()
            left = And_(left, self.parse_until())
        return left

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        while True:
            kind, value = self.peek()
            if (kind, value) == ("op", "U"):
                self.advance()
                left = U(left, self.parse_unary())
            elif (kind, value) == ("op", "R"):
                self.advance()
                left = R(left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Formula:
        kind, value = self.peek()
        if kind == "unary":
            self.advance()
            operand = self.parse_unary()
            return {"G": G, "F": F, "X": X}[value](operand)
        if (kind, value) == ("op", "!"):
            self.advance()
            return self.parse_unary().negate()
        if (kind, value) == ("op", "("):
            self.advance()
            inner = self.parse_implies()
            if self.advance() != ("op", ")"):
                raise LTLError("unbalanced parenthesis")
            return inner
        return self.parse_atom_run()

    def parse_atom_run(self) -> Formula:
        """Consume a run of words/comparison operators as one guard atom."""
        pieces = []
        while True:
            kind, value = self.peek()
            if kind == "word":
                pieces.append(value)
                self.advance()
            elif kind == "op" and value == "(" and pieces:
                break
            else:
                break
        if not pieces:
            raise LTLError(f"expected atom, got {self.peek()!r}")
        text = " ".join(pieces)
        if text in ("true", "TRUE"):
            return LTL_TRUE
        if text in ("false", "FALSE"):
            return LTL_FALSE
        try:
            return Atom(parse_expr(text, self.variables))
        except ExprError as exc:
            raise LTLError(f"bad atom {text!r}: {exc}") from exc


def parse_ltl(text: str, variables: Iterable[str] = ()) -> Formula:
    """Parse textual LTL (atoms in the guard syntax) into a formula."""
    return _LTLParser(text, set(variables)).parse()


def closure_size(formula: Formula) -> int:
    """Number of distinct subformulas — a cheap complexity proxy for RQ3."""
    seen: Set[Formula] = set()

    def walk(node: Formula):
        if node in seen:
            return
        seen.add(node)
        if isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnOp):
            walk(node.operand)

    walk(formula)
    return len(seen)
