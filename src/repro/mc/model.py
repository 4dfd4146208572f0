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

The explicit-state checker (:mod:`repro.mc.checker`) interprets these
models; the deterministic stutter rule (a state with no enabled command
loops to itself) keeps all executions infinite, as LTL semantics requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, Mapping, Optional, Tuple,
                    Union)

from .expr import Expr, Value


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


def _resolve(rhs: Union[Value, Ref, Plus], state: Mapping[str, Value]) -> Value:
    if isinstance(rhs, Ref):
        return state[rhs.variable]
    if isinstance(rhs, Plus):
        current = state[rhs.variable]
        if not isinstance(current, int) or isinstance(current, bool):
            raise ModelError(f"Plus on non-integer variable {rhs.variable!r}")
        value = current + rhs.amount
        if rhs.ceiling is not None:
            value = min(value, rhs.ceiling)
        return value
    return rhs


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
        self._compiled_guards: List = []
        self._graph = None
        self._fingerprint: Optional[str] = None

    def __getstate__(self):
        # Compiled guards are closures (unpicklable), and the interned
        # state graph holds compiled literal columns; the engine rebuilds
        # both lazily on first use after transfer.
        state = dict(self.__dict__)
        state["_compiled_guards"] = []
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
    def key(self, state: Mapping[str, Value]) -> Tuple[Value, ...]:
        """Hashable canonical form of a state dict."""
        return tuple(state[name] for name in self._order)

    def unkey(self, key: Tuple[Value, ...]) -> Dict[str, Value]:
        return dict(zip(self._order, key))

    def initial_state(self) -> Dict[str, Value]:
        return dict(self.init)

    def enabled_commands(self, state: Mapping[str, Value]) -> List[Command]:
        if len(self._compiled_guards) != len(self.commands):
            self._compiled_guards = [c.guard.compile()
                                     for c in self.commands]
        return [c for c, guard in zip(self.commands, self._compiled_guards)
                if guard(state)]

    def apply(self, state: Mapping[str, Value],
              command: Command) -> Iterator[Dict[str, Value]]:
        """Yield every successor the command can produce from ``state``."""
        choice_items = [(name, rhs) for name, rhs in command.updates.items()
                        if isinstance(rhs, Choice)]
        plain_items = [(name, rhs) for name, rhs in command.updates.items()
                       if not isinstance(rhs, Choice)]

        base = dict(state)
        for name, rhs in plain_items:
            value = _resolve(rhs, state)
            self.variable(name).validate(value)
            base[name] = value
        if not choice_items:
            yield base
            return

        def expand(index: int, partial: Dict[str, Value]):
            if index == len(choice_items):
                yield dict(partial)
                return
            name, choice = choice_items[index]
            for option in choice.options:
                value = _resolve(option, state)
                self.variable(name).validate(value)
                partial[name] = value
                yield from expand(index + 1, partial)

        yield from expand(0, base)

    def successors(
        self, state: Mapping[str, Value]
    ) -> Iterator[Tuple[str, Dict[str, Value]]]:
        """Yield ``(command label, successor state)`` pairs.

        A deadlocked state stutters (self-loop labelled ``"stutter"``) so
        that every maximal execution is infinite.
        """
        produced = False
        for command in self.enabled_commands(state):
            for successor in self.apply(state, command):
                produced = True
                yield command.label, successor
        if not produced:
            yield "stutter", dict(state)

    def successor_items(
        self, key: Tuple[Value, ...]
    ) -> List[Tuple[str, Tuple[Value, ...]]]:
        """``(label, successor key)`` pairs for the state with this key.

        Not memoised here: :meth:`graph` caches each state's expansion
        once for every property checked against this model.
        """
        state = self.unkey(key)
        return [(label, self.key(successor))
                for label, successor in self.successors(state)]

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
