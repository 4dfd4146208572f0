"""Dict interpreter of guarded-command models: the test oracle.

Production never interprets a model: each one compiles itself into a
generated successor function (:func:`repro.mc.model.compile_successors`).
This module keeps the plain reading of the semantics — evaluate every
guard on a state dict, apply each enabled command, expand ``Choice``
updates depth first — so the compiler can be tested against it.
"""

from typing import Dict, Iterator, List, Mapping, Tuple

from repro.mc.expr import Value
from repro.mc.model import Choice, Command, Model, ModelError, Plus, Ref


def resolve(rhs, state: Mapping[str, Value]) -> Value:
    """The value of a non-``Choice`` right-hand side in ``state``."""
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


def enabled_commands(model: Model,
                     state: Mapping[str, Value]) -> List[Command]:
    return [command for command in model.commands
            if command.guard.evaluate(state)]


def apply(model: Model, state: Mapping[str, Value],
          command: Command) -> Iterator[Dict[str, Value]]:
    """Every successor ``command`` produces from ``state``: plain updates
    first (declaration order), then ``Choice`` updates, first outermost."""
    choice_items = [(name, rhs) for name, rhs in command.updates.items()
                    if isinstance(rhs, Choice)]
    plain_items = [(name, rhs) for name, rhs in command.updates.items()
                   if not isinstance(rhs, Choice)]

    base = dict(state)
    for name, rhs in plain_items:
        value = resolve(rhs, state)
        model.variable(name).validate(value)
        base[name] = value

    def expand(index: int, partial: Dict[str, Value]):
        if index == len(choice_items):
            yield dict(partial)
            return
        name, choice = choice_items[index]
        for option in choice.options:
            value = resolve(option, state)
            model.variable(name).validate(value)
            partial[name] = value
            yield from expand(index + 1, partial)

    yield from expand(0, base)


def successors(model: Model, state: Mapping[str, Value]
               ) -> Iterator[Tuple[str, Dict[str, Value]]]:
    """``(label, successor)`` pairs; a deadlocked state stutters."""
    produced = False
    for command in enabled_commands(model, state):
        for successor in apply(model, state, command):
            produced = True
            yield command.label, successor
    if not produced:
        yield "stutter", dict(state)


def successor_items(model: Model, key: Tuple[Value, ...]
                    ) -> List[Tuple[str, Tuple[Value, ...]]]:
    """The oracle's answer to :meth:`Model.successor_items`."""
    return [(label, model.key(successor))
            for label, successor in successors(model, model.unkey(key))]
