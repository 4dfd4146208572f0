"""Finite-state transition system description (our SMV-like language).

The paper's model generator "outputs a SMV description of the model"; here
the equivalent target is a guarded-command transition system: finite-domain
variables, a set of initial assignments, and labelled commands
``guard -> updates``.  Non-determinism comes from (a) several commands being
enabled in the same state — this is how the Dolev-Yao adversary's
drop/pass/modify choice is encoded — and (b) :class:`Choice` updates.

Update right-hand sides may be literals, :class:`Ref` (copy a current
variable value), :class:`Plus` (bounded increment, for counters such as the
NAS sequence number), or :class:`Choice` over any of these.

The explicit-state checker (:mod:`repro.mc.checker`) does not interpret
these models: on first expansion each model compiles itself into one
generated Python function from state-key tuple to ``(label, successor
key)`` list (:func:`compile_successors`), the explicit-state counterpart of
NuXmv's compiled transition relation.  Commands fire in declaration order,
:class:`Choice` updates expand first-choice-outermost, every right-hand
side reads the pre-state, and the deterministic stutter rule (a state with
no enabled command loops to itself) keeps all executions infinite, as LTL
semantics requires.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple, Union)

from .. import obs
from .expr import And, Compare, Expr, Not, Or, Value, emit

Key = Tuple[Value, ...]
SuccessorFunction = Callable[[Key], List[Tuple[str, Key]]]


class ModelError(Exception):
    """Raised for ill-formed models (unknown variables, domain violations)."""


@dataclass(frozen=True)
class Variable:
    """A state variable with an explicit finite domain."""

    name: str
    domain: Tuple[Value, ...]

    def __post_init__(self):
        if not self.domain:
            raise ModelError(f"variable {self.name!r} has empty domain")
        object.__setattr__(self, "_members", frozenset(self.domain))

    def validate(self, value: Value) -> None:
        if value not in self._members:
            raise ModelError(
                f"value {value!r} outside domain of {self.name!r}")


@dataclass(frozen=True)
class Ref:
    """Update RHS: the *current* value of another variable."""

    variable: str


@dataclass(frozen=True)
class Plus:
    """Update RHS: ``min(current + amount, ceiling)`` of an int variable.

    Saturating rather than wrapping: protocol counters in the extracted
    models are abstracted to small saturating integers.
    """

    variable: str
    amount: int = 1
    ceiling: Optional[int] = None


@dataclass(frozen=True)
class Choice:
    """Update RHS: a non-deterministic choice among alternatives."""

    options: Tuple[Union[Value, Ref, Plus], ...]

    def __init__(self, *options):
        if not options:
            raise ModelError("Choice requires at least one option")
        object.__setattr__(self, "options", tuple(options))


UpdateRHS = Union[Value, Ref, Plus, Choice]


@dataclass(frozen=True)
class Command:
    """A labelled guarded command ``label: guard -> updates``."""

    label: str
    guard: Expr
    updates: Mapping[str, UpdateRHS]

    def __post_init__(self):
        object.__setattr__(self, "updates", dict(self.updates))


@dataclass
class Model:
    """A guarded-command transition system."""

    name: str
    variables: List[Variable]
    init: Dict[str, Value]
    commands: List[Command] = field(default_factory=list)
    fairness: List[Expr] = field(default_factory=list)

    def __post_init__(self):
        self._by_name = {v.name: v for v in self.variables}
        if len(self._by_name) != len(self.variables):
            raise ModelError("duplicate variable names")
        for name, value in self.init.items():
            self.variable(name).validate(value)
        missing = set(self._by_name) - set(self.init)
        if missing:
            raise ModelError(f"variables without initial value: {missing}")
        self._order = tuple(sorted(self._by_name))
        self._slots = {name: index for index, name in enumerate(self._order)}
        self._successors: Optional[SuccessorFunction] = None
        self._graph = None
        self._fingerprint: Optional[str] = None

    def __getstate__(self):
        # The compiled successor function is a closure (unpicklable), and
        # the interned state graph holds compiled literal predicates; the
        # engine rebuilds both lazily on first use after transfer.
        state = dict(self.__dict__)
        state["_successors"] = None
        state["_graph"] = None
        return state

    # ------------------------------------------------------------------
    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return self._order

    def add_command(self, label: str, guard: Expr,
                    updates: Mapping[str, UpdateRHS]) -> Command:
        for name in updates:
            self.variable(name)  # existence check
        command = Command(label, guard, updates)
        self.commands.append(command)
        self._successors = None
        self._graph = None
        self._fingerprint = None
        return command

    # ------------------------------------------------------------------
    # Derived, cached views
    # ------------------------------------------------------------------
    def graph(self):
        """The interned :class:`~repro.mc.graph.StateGraph` of this model.

        Built lazily and cached on the instance, so every property (and
        every CEGAR iteration) checked against the same instrumented
        model shares one state-id table, one successor expansion and one
        set of literal truth columns.  ``add_command`` invalidates.
        """
        if self._graph is None:
            from .graph import StateGraph
            self._graph = StateGraph(self)
        return self._graph

    def fingerprint(self) -> str:
        """Content hash of the transition system (not the instance).

        Digests variables/domains, initial assignments, the command list
        (order included — it fixes successor enumeration order and hence
        counterexample shape) and fairness constraints, but *not* the
        model name: the same instrumented system built under different
        display names must hit the same persistent verdict-cache entry.
        """
        if self._fingerprint is None:
            import hashlib
            digest = hashlib.sha256()
            for variable in sorted(self.variables, key=lambda v: v.name):
                digest.update(
                    f"var {variable.name}={variable.domain!r}\n".encode())
            for name in sorted(self.init):
                digest.update(f"init {name}={self.init[name]!r}\n".encode())
            for command in self.commands:
                updates = sorted((k, repr(v))
                                 for k, v in command.updates.items())
                digest.update(f"cmd {command.label}|{command.guard}"
                              f"|{updates!r}\n".encode())
            for constraint in self.fairness:
                digest.update(f"fair {constraint}\n".encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Execution semantics
    # ------------------------------------------------------------------
    def key(self, state: Mapping[str, Value]) -> Key:
        """Hashable canonical form of a state dict."""
        return tuple(state[name] for name in self._order)

    def unkey(self, key: Key) -> Dict[str, Value]:
        return dict(zip(self._order, key))

    def initial_state(self) -> Dict[str, Value]:
        return dict(self.init)

    def successor_items(self, key: Key) -> List[Tuple[str, Key]]:
        """``(label, successor key)`` pairs for the state with this key.

        Runs the model's compiled successor function, generated on the
        first call (and again after ``add_command``).  Not memoised
        here: :meth:`graph` caches each state's expansion once for every
        property checked against this model.
        """
        successors = self._successors
        if successors is None:
            with obs.span("mc.compile", model=self.name):
                successors = self._successors = compile_successors(self)
            obs.count("mc.models_compiled")
        return successors(key)

    def successors(
        self, state: Mapping[str, Value]
    ) -> Iterator[Tuple[str, Dict[str, Value]]]:
        """Yield ``(command label, successor state)`` pairs (dict form of
        :meth:`successor_items`).

        A deadlocked state stutters (self-loop labelled ``"stutter"``) so
        that every maximal execution is infinite.
        """
        for label, key in self.successor_items(self.key(state)):
            yield label, self.unkey(key)

    def predicate(self, expr: Expr) -> Callable[[Key], bool]:
        """``expr`` compiled to a test on this model's state-key tuples.

        Generated by the same emitter as the successor function; used for
        literal truth columns and invariant checks, so the checker never
        builds a state dict except to print a counterexample.
        """
        source = _Source()
        test = emit(expr, lambda name: f"key[{self._slot(name)}]",
                    source.const)
        source.line(1, "def predicate(key):")
        source.line(2, f"return {test}")
        source.line(1, "return predicate")
        return source.build()

    def _slot(self, name: str) -> int:
        try:
            return self._slots[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def state_count_bound(self) -> int:
        """Product of domain sizes — upper bound used in scalability stats."""
        bound = 1
        for variable in self.variables:
            bound *= len(variable.domain)
        return bound

    def validate_expression(self, expr: Expr) -> None:
        """Check that ``expr`` only mentions declared variables."""
        unknown = expr.variables() - set(self._by_name)
        if unknown:
            raise ModelError(f"expression uses unknown variables: {unknown}")


# ---------------------------------------------------------------------------
# The model compiler
# ---------------------------------------------------------------------------
#: ``Choice`` updates per command: each becomes a nested ``for`` loop, and
#: CPython rejects more than 20 nested blocks in one function.
_MAX_CHOICES = 16


@functools.lru_cache(maxsize=256)
def _code(source: str):
    # Sources hold no model data (constants are bound at run time), so
    # structurally equal models and predicates share one code object.
    return compile(source, "<repro.mc compiled model>", "exec")


class _Source:
    """Generated source lines plus the constant namespace they read.

    Every model-supplied value (labels, enum values, domains, the
    :class:`Variable` objects used for run-time checks) is bound to a
    ``c<i>`` name; plain ``int``/``bool`` literals are spelled inline.
    The generated module defines ``bind(consts)``, which unpacks the
    namespace into closure cells and returns the inner function.
    """

    def __init__(self):
        self.lines: List[str] = []
        self.consts: List[object] = []
        self._names: Dict[object, str] = {}

    def const(self, value: object) -> str:
        if type(value) is bool or type(value) is int:
            return repr(value)
        # Equal strings may share a name; anything else is bound by
        # identity (1 == True, so value-keyed sharing could swap them).
        token = value if type(value) is str else id(value)
        name = self._names.get(token)
        if name is None:
            name = self._names[token] = f"c{len(self.consts)}"
            self.consts.append(value)
        return name

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def build(self) -> Callable:
        names = "".join(f"c{index}, " for index in range(len(self.consts)))
        header = ["def bind(consts):"]
        if names:
            header.append(f"    {names}= consts")
        namespace: Dict[str, object] = {"__builtins__": {}}
        exec(_code("\n".join(header + self.lines) + "\n"),  # noqa: S102
             namespace)
        return namespace["bind"](tuple(self.consts))


def _value(rhs, key: Key, slots: Mapping[str, int],
           variable: Variable) -> Value:
    """Resolve one update right-hand side against the pre-state ``key``
    and check it against the target's domain.

    The generated code's path for :class:`Ref`, :class:`Plus` and
    out-of-domain literals; in-domain literals are checked at compile
    time and spelled inline.
    """
    if isinstance(rhs, Ref):
        value = key[slots[rhs.variable]]
    elif isinstance(rhs, Plus):
        current = key[slots[rhs.variable]]
        if not isinstance(current, int) or isinstance(current, bool):
            raise ModelError(f"Plus on non-integer variable {rhs.variable!r}")
        value = current + rhs.amount
        if rhs.ceiling is not None:
            value = min(value, rhs.ceiling)
    else:
        value = rhs
    variable.validate(value)
    return value


def _conjuncts(guard: Expr) -> Tuple[Expr, ...]:
    return guard.operands if isinstance(guard, And) else (guard,)


def _dispatch_variable(commands: List[Command]) -> Optional[str]:
    """The variable of the most common top-level ``var = const``
    conjunct (``turn`` in a threat-instrumented model)."""
    counts: Counter = Counter()
    for command in commands:
        # Deduplicated in conjunct order, so ties break the same way in
        # every process.
        counts.update(list(dict.fromkeys(
            part.left for part in _conjuncts(command.guard)
            if _is_dispatch_test(part))))
    return counts.most_common(1)[0][0] if counts else None


def _is_dispatch_test(expr: Expr, variable: Optional[str] = None) -> bool:
    return (isinstance(expr, Compare) and expr.op == "="
            and not expr.right_is_var
            and (variable is None or expr.left == variable))


def _split_guard(guard: Expr, variable: Optional[str]):
    """``(dispatch test, residual guard)``: the first top-level conjunct
    ``variable = const`` (``None`` if there is none, and the residual is
    then the whole guard) and the other conjuncts (``None`` if none)."""
    parts = _conjuncts(guard)
    for index, part in enumerate(parts):
        if variable is not None and _is_dispatch_test(part, variable):
            rest = parts[:index] + parts[index + 1:]
            residual = (None if not rest
                        else rest[0] if len(rest) == 1 else And(*rest))
            return part, residual
    return None, guard


def _children(expr: Expr) -> Tuple[Expr, ...]:
    if isinstance(expr, Not):
        return (expr.operand,)
    if isinstance(expr, (And, Or)):
        return expr.operands
    return ()


def _worth_a_local(expr: Expr) -> bool:
    """Compound nodes only: a comparison (or its negation) is as cheap to
    repeat as to store."""
    if isinstance(expr, Not):
        expr = expr.operand
    return isinstance(expr, (And, Or, Not))


class _Nodes:
    """Structural ids of guard nodes, computed once per node object
    (hashing a frozen expression walks its whole subtree every time)."""

    def __init__(self):
        #: id(node) -> (structural id, node); the node is kept alive so
        #: its id() cannot be reused
        self._by_object: Dict[int, Tuple[int, Expr]] = {}
        self._by_shape: Dict[object, int] = {}

    def __call__(self, expr: Expr) -> int:
        entry = self._by_object.get(id(expr))
        if entry is None:
            shape = (expr if not isinstance(expr, (And, Or, Not))
                     else (type(expr), tuple(self(child) for child
                                             in _children(expr))))
            node = self._by_shape.setdefault(shape, len(self._by_shape))
            entry = self._by_object[id(expr)] = (node, expr)
        return entry[0]


class _SuccessorEmitter:
    """Writes one model's successor function into a :class:`_Source`."""

    def __init__(self, model: Model):
        self.model = model
        self.source = _Source()
        self.slot_of = model._slot
        self.nodes = _Nodes()

    def slot(self, name: str) -> str:
        return f"s{self.slot_of(name)}"

    def build(self) -> SuccessorFunction:
        model, source = self.model, self.source
        source.line(1, "def successors(key):")
        if model.variable_names:
            locals_ = "".join(f"s{index}, " for index
                              in range(len(model.variable_names)))
            source.line(2, f"{locals_}= key")
        source.line(2, "out = []")
        source.line(2, "append = out.append")

        variable = _dispatch_variable(model.commands)
        buckets: Dict[Value, List[Tuple[Command, Optional[Expr]]]] = {}
        free: List[Tuple[Command, Optional[Expr]]] = []
        for command in model.commands:
            test, residual = _split_guard(command.guard, variable)
            if test is None:
                for members in buckets.values():
                    members.append((command, residual))
                free.append((command, residual))
            else:
                # A new bucket starts with the dispatch-free commands
                # declared so far, keeping declaration order.
                buckets.setdefault(test.right, list(free)).append(
                    (command, residual))

        if buckets:
            test_slot = self.slot(variable)
            keyword = "if"
            for value, members in buckets.items():
                source.line(2, f"{keyword} {test_slot} == "
                               f"{source.const(value)}:")
                self._bucket(members, 3)
                keyword = "elif"
            if free:
                source.line(2, "else:")
                self._bucket(free, 3)
        else:
            self._bucket(free, 2)
        source.line(2, "return out or [('stutter', key)]")
        source.line(1, "return successors")
        return source.build()

    # ------------------------------------------------------------------
    def _bucket(self, members: List[Tuple[Command, Optional[Expr]]],
                indent: int) -> None:
        nodes = self.nodes
        counts: Counter = Counter()

        def visit(expr: Expr) -> None:
            # A repeated node's own children are counted once.
            node = nodes(expr)
            counts[node] += 1
            if counts[node] == 1:
                for child in _children(expr):
                    visit(child)

        for _, residual in members:
            if residual is not None:
                visit(residual)
        shared = {node for node, count in counts.items() if count > 1}
        locals_: Dict[int, str] = {}

        def hoisted(expr: Expr) -> Optional[str]:
            return locals_.get(nodes(expr))

        def hoist(expr: Expr) -> None:
            # Each shared compound sub-expression goes to a local before
            # its first use, inner ones first.
            node = nodes(expr)
            if node in locals_:
                return
            for child in _children(expr):
                hoist(child)
            if node in shared and _worth_a_local(expr):
                name = f"h{len(locals_)}"
                self.source.line(indent, f"{name} = " + emit(
                    expr, self.slot, self.source.const, hoisted))
                locals_[node] = name

        start = len(self.source.lines)
        for command, residual in members:
            body = indent
            if residual is not None:
                hoist(residual)
                self.source.line(indent, "if " + emit(
                    residual, self.slot, self.source.const, hoisted) + ":")
                body += 1
            self._command(command, body)
        if len(self.source.lines) == start:
            self.source.line(indent, "pass")

    def _command(self, command: Command, indent: int) -> None:
        """Successor construction for one enabled command: plain updates
        in declaration order, then one loop per :class:`Choice`."""
        model, source = self.model, self.source
        values: Dict[int, str] = {}
        choices = []
        for name, rhs in command.updates.items():
            if isinstance(rhs, Choice):
                choices.append((name, rhs))
                continue
            slot = self.slot_of(name)
            if _is_admitted_literal(rhs, model.variable(name)):
                values[slot] = source.const(rhs)
            else:
                values[slot] = f"t{slot}"
                source.line(indent, f"t{slot} = "
                            + self._checked(source.const(rhs), name))
        if len(choices) > _MAX_CHOICES:
            raise ModelError(
                f"command {command.label!r} has {len(choices)} Choice "
                f"updates; at most {_MAX_CHOICES} are supported")
        for name, choice in choices:
            slot = self.slot_of(name)
            variable = model.variable(name)
            options = source.const(choice.options)
            if not all(_is_admitted_literal(option, variable)
                       for option in choice.options):
                # Lazy, so option errors surface in expansion order.
                options = (f"({self._checked('option', name)} "
                           f"for option in {options})")
            source.line(indent, f"for x{slot} in {options}:")
            values[slot] = f"x{slot}"
            indent += 1
        width = len(model.variable_names)
        parts = [values.get(index, f"s{index}") for index in range(width)]
        successor = "(" + ", ".join(parts) + ("," if width == 1 else "") + ")"
        source.line(indent,
                    f"append(({source.const(command.label)}, {successor}))")

    def _checked(self, rhs: str, name: str) -> str:
        """Source of a :func:`_value` call resolving the right-hand side
        spelled ``rhs`` for variable ``name``."""
        source = self.source
        return (f"{source.const(_value)}({rhs}, key, "
                f"{source.const(self.model._slots)}, "
                f"{source.const(self.model.variable(name))})")


def _is_admitted_literal(rhs, variable: Variable) -> bool:
    return (not isinstance(rhs, (Ref, Plus, Choice))
            and rhs in variable._members)


def compile_successors(model: Model) -> SuccessorFunction:
    """Compile ``model`` into one ``key -> [(label, successor key)]``
    function.

    Shape of the generated code: the key is unpacked into locals once;
    commands are bucketed by their top-level ``var = const`` conjunct on
    the most common such variable (an ``if``/``elif`` chain, buckets in
    command order, commands without that conjunct in every bucket);
    within a bucket each guard sub-expression shared by several commands
    (the skip commands negate the disjunction of all UE/MME guards) is
    computed once into a local; successor tuples are built directly.

    Semantics equal the guarded-command reading of the model: commands in
    declaration order, :class:`Choice` expanded first-choice-outermost,
    right-hand sides read the pre-state, :class:`Plus` saturates, and
    a state with no successor stutters.  A literal outside its domain
    raises :class:`ModelError` only when its command fires; :class:`Ref`
    and :class:`Plus` results are checked when computed.
    """
    return _SuccessorEmitter(model).build()
