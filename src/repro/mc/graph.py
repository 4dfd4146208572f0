"""Dense-integer interning of a model's reachable state graph.

:class:`StateGraph` is the checker's only view of a model, and it holds
no state dicts:

- every reachable state key is interned once into a dense ``int`` id,
  so product nodes become small ints (``sid * |Q| + q``) instead of
  ``(tuple, int)`` pairs;
- successor lists come from the model's compiled successor function
  (:meth:`~repro.mc.model.Model.successor_items`) and are cached as
  ``(label, successor id)`` tuples — built at most once per model no
  matter how many properties or CEGAR iterations explore it;
- atomic predicates are compiled to key-tuple tests
  (:meth:`~repro.mc.model.Model.predicate`) and evaluated at most once
  per ``(literal, state)`` via per-literal truth columns (one growable
  list per literal, indexed by state id).

State dicts are built only on request (:meth:`StateGraph.state`), when a
counterexample trace is assembled.

A graph is owned by its :class:`~repro.mc.model.Model` (see
``Model.graph()``) so all checks against the same instrumented model
share one interning table, one successor expansion and one set of truth
columns.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .expr import Not
from .ltl import Atom

Key = Tuple


class StateGraph:
    """Lazily expanded, integer-interned view of a model's state graph."""

    __slots__ = ("model", "_keys", "_index", "_succ", "_columns",
                 "expanded", "initial")

    def __init__(self, model):
        self.model = model
        self._keys: List[Key] = []
        self._index: Dict[Key, int] = {}
        #: per-state successor tuples, ``None`` until first expansion
        self._succ: List[Optional[Tuple[Tuple[str, int], ...]]] = []
        #: literal -> (truth column indexed by state id, lazily filled;
        #: its compiled key-tuple predicate)
        self._columns: Dict[Atom, Tuple[List[Optional[bool]],
                                        Callable[[Key], bool]]] = {}
        #: states whose successor sets have been computed
        self.expanded = 0
        self.initial = self.intern(model.key(model.initial_state()))

    # ------------------------------------------------------------------
    def intern(self, key: Key) -> int:
        """The dense id of ``key``, assigning a fresh one on first sight."""
        sid = self._index.get(key)
        if sid is None:
            sid = len(self._keys)
            self._index[key] = sid
            self._keys.append(key)
            self._succ.append(None)
        return sid

    def key_of(self, sid: int) -> Key:
        return self._keys[sid]

    def state(self, sid: int) -> Dict:
        """A fresh state dict for ``sid`` (for counterexample traces)."""
        return self.model.unkey(self._keys[sid])

    def __len__(self) -> int:
        """States interned so far (== states touched by any exploration)."""
        return len(self._keys)

    # ------------------------------------------------------------------
    def successors(self, sid: int) -> Tuple[Tuple[str, int], ...]:
        """``(label, successor id)`` pairs, expanded on first request.

        Expansion order is exactly the model's ``successor_items`` order,
        so explorations over the graph visit states in the same order the
        tuple-based checker did — determinism of counters and traces is
        preserved.
        """
        cached = self._succ[sid]
        if cached is None:
            intern = self.intern
            cached = tuple(
                (label, intern(successor_key))
                for label, successor_key in
                self.model.successor_items(self._keys[sid]))
            self._succ[sid] = cached
            self.expanded += 1
        return cached

    # ------------------------------------------------------------------
    def literal_evaluator(self, literal: Atom) -> Callable[[int], bool]:
        """A memoised ``sid -> bool`` evaluator for one literal.

        Each distinct literal gets one truth column shared by every
        check against this model, so an atom appearing in many of the 62
        properties (or in many Büchi states of one automaton) is
        evaluated at most once per reachable state.
        """
        entry = self._columns.get(literal)
        if entry is None:
            expr = Not(literal.expr) if literal.negated else literal.expr
            entry = self._columns[literal] = ([],
                                              self.model.predicate(expr))
        column, holds = entry
        keys = self._keys

        def evaluate(sid: int) -> bool:
            if sid >= len(column):
                column.extend([None] * (sid + 1 - len(column)))
            value = column[sid]
            if value is None:
                value = column[sid] = holds(keys[sid])
            return value

        return evaluate

    def label_evaluator(self, literals: Tuple[Atom, ...]
                        ) -> Callable[[int], bool]:
        """Conjunction evaluator for a Büchi entry label (literal tuple)."""
        if not literals:
            return lambda sid: True
        evaluators = [self.literal_evaluator(literal)
                      for literal in literals]
        if len(evaluators) == 1:
            return evaluators[0]

        def evaluate(sid: int) -> bool:
            for check in evaluators:
                if not check(sid):
                    return False
            return True

        return evaluate
