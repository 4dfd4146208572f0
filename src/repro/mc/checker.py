"""Explicit-state model checking engine (the NuXmv stand-in).

The supported entry point is the :class:`~repro.mc.api.ModelChecker`
facade; this module holds the engines behind it:

- :func:`_check_invariant` — BFS reachability for safety properties
  ``G p`` with propositional ``p``, over the model's interned
  :class:`~repro.mc.graph.StateGraph`; returns the shortest violating
  prefix.
- :class:`_OnTheFlySearch` — full LTL, the default: translate the
  *negated* formula to a Büchi automaton (:mod:`repro.mc.buchi`,
  memoised per normalised formula) and run a nested depth-first search
  (Schwoon–Esparza colouring) over the product *constructed on the fly*.
  Product nodes are dense ints (``state id * |Q| + q``), entry labels
  are evaluated through per-literal truth columns, and the search stops
  at the first accepting cycle — for violated properties only a
  fraction of the product is ever built.
- :func:`check_ltl_materialised` — the previous engine (materialise the
  full reachable product, Tarjan SCC, BFS witness), kept only as the
  independent reference implementation the on-the-fly path is
  equivalence-tested against; production never dispatches to it.

The extracted 4G LTE models are small enumerated-domain systems (that is
the paper's RQ3 point: semantic extraction keeps the model within COTS
model-checker bounds), so the explicit approach is complete and fast here.

Counter semantics (all deterministic, hence width-invariant across
``--jobs``): ``mc.states_explored`` counts distinct *model* states the
search visited, ``mc.product_states`` counts *visited* product nodes
(not materialised ones), ``mc.peak_frontier`` the high-water mark of the
search frontier (outer + nested DFS stack, or the BFS queue).  The
registry-only ``mc.states_expanded`` counts states whose successors a
check computed for the first time; it depends on which earlier checks
shared the model's graph, so it stays out of the per-property roll-up.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .. import obs
from .buchi import BuchiAutomaton, ltl_to_buchi
from .counterexample import CheckResult, Step, Trace
from .expr import And, Const, Expr, Not, Or
from .graph import StateGraph
from .ltl import Atom, BinOp, BoolConst, Formula, LTL_FALSE
from .model import Model


class CheckerError(Exception):
    """Raised when a property cannot be checked on the given model."""


# ---------------------------------------------------------------------------
# Safety fast path
# ---------------------------------------------------------------------------
def _check_invariant(model: Model, invariant: Expr,
                     name: str = "invariant") -> CheckResult:
    """BFS for a reachable state violating ``invariant`` (i.e. check G p)."""
    model.validate_expression(invariant)
    with obs.span("mc.check", property=name, mode="invariant") as span:
        graph = model.graph()
        expanded = graph.expanded
        holds = model.predicate(invariant)
        key_of = graph.key_of
        root = graph.initial
        parents: Dict[int, Optional[Tuple[int, str]]] = {root: None}
        queue = deque([root])
        peak_frontier = 1
        violating: Optional[int] = None
        if not holds(key_of(root)):
            violating = root
        while queue and violating is None:
            sid = queue.popleft()
            for label, successor in graph.successors(sid):
                if successor in parents:
                    continue
                parents[successor] = (sid, label)
                if not holds(key_of(successor)):
                    violating = successor
                    break
                queue.append(successor)
            if len(queue) > peak_frontier:
                peak_frontier = len(queue)

        obs.inc("mc.checks")
        obs.inc("mc.states_explored", len(parents))
        obs.inc("mc.peak_frontier", peak_frontier)
        obs.count("mc.states_expanded", graph.expanded - expanded)
        trace = (None if violating is None
                 else _sid_path_to_trace(graph, parents, violating))
    obs.observe("mc.check_seconds", span.duration)
    return CheckResult(name, holds=trace is None, counterexample=trace,
                       states_explored=len(parents),
                       peak_frontier=peak_frontier,
                       elapsed_seconds=span.duration)


def _sid_path_to_trace(graph: StateGraph, parents, sid: int) -> Trace:
    chain: List[Tuple[int, str]] = []
    cursor = sid
    while parents[cursor] is not None:
        predecessor, label = parents[cursor]
        chain.append((cursor, label))
        cursor = predecessor
    chain.reverse()
    trace = Trace(initial_state=graph.state(cursor))
    for state_sid, label in chain:
        trace.steps.append(Step(label, graph.state(state_sid)))
    return trace


# ---------------------------------------------------------------------------
# Formula utilities
# ---------------------------------------------------------------------------
def formula_to_expr(formula: Formula) -> Optional[Expr]:
    """Convert a purely propositional formula to an :class:`Expr`.

    Returns ``None`` when the formula contains temporal operators.
    """
    if isinstance(formula, BoolConst):
        return Const(formula.value)
    if isinstance(formula, Atom):
        return Not(formula.expr) if formula.negated else formula.expr
    if isinstance(formula, BinOp) and formula.op in ("and", "or"):
        left = formula_to_expr(formula.left)
        right = formula_to_expr(formula.right)
        if left is None or right is None:
            return None
        return And(left, right) if formula.op == "and" else Or(left, right)
    return None


def as_invariant(formula: Formula) -> Optional[Expr]:
    """If ``formula`` is ``G p`` with propositional ``p``, return ``p``."""
    if (isinstance(formula, BinOp) and formula.op == "R"
            and formula.left == LTL_FALSE):
        return formula_to_expr(formula.right)
    return None


# ---------------------------------------------------------------------------
# On-the-fly LTL via nested DFS over the implicit Büchi product
# ---------------------------------------------------------------------------
class _OnTheFlySearch:
    """Nested DFS (cyan/blue/red colouring) for an accepting lasso.

    The product is never materialised: a product node is the integer
    ``sid * |Q| + q`` and its successors are enumerated on demand from
    the interned state graph and the automaton's transition table, in
    exactly the order the materialised builder used (model successors
    outer, Büchi successors inner) so witness shapes stay deterministic.

    The outer (blue) DFS detects cycles closing into the active path
    early (when either endpoint is accepting); the nested (red) DFS
    launched post-order from accepting nodes finds the remaining
    accepting cycles.  Red colouring is permanent, so the whole search
    is linear in the number of visited product edges.
    """

    def __init__(self, graph: StateGraph, automaton: BuchiAutomaton):
        self.graph = graph
        self.automaton = automaton
        states = automaton.states
        self.nq = (max(states) + 1) if states else 1
        self._label_ok = {q: graph.label_evaluator(automaton.labels[q])
                          for q in states}
        self._succ_q = {q: automaton.successors(q) for q in states}
        self._accepting = automaton.accepting
        self.cyan: Set[int] = set()
        self.blue: Set[int] = set()
        self.red: Set[int] = set()
        #: every product node ever coloured (the visited-node counter)
        self.seen: Set[int] = set()
        #: blue-stack depth of each cyan node (for lasso reconstruction)
        self._position: Dict[int, int] = {}
        self.peak_frontier = 0
        self.trace: Optional[Trace] = None

    # ------------------------------------------------------------------
    def run(self) -> Optional[Trace]:
        root_sid = self.graph.initial
        for q in sorted(self.automaton.initial):
            if not self._label_ok[q](root_sid):
                continue
            root = root_sid * self.nq + q
            if root in self.blue:
                continue
            if self._dfs_blue(root):
                return self.trace
        return None

    def _edges(self, node: int) -> Iterator[Tuple[int, str]]:
        sid, q = divmod(node, self.nq)
        nq = self.nq
        succ_q = self._succ_q.get(q, ())
        label_ok = self._label_ok
        for label, successor_sid in self.graph.successors(sid):
            for next_q in succ_q:
                if label_ok[next_q](successor_sid):
                    yield successor_sid * nq + next_q, label

    def _is_accepting(self, node: int) -> bool:
        return node % self.nq in self._accepting

    # ------------------------------------------------------------------
    def _dfs_blue(self, root: int) -> bool:
        stack: List[Tuple[int, Optional[str], Iterator]] = []
        self._push_blue(stack, root, None)
        while stack:
            node, _, edges = stack[-1]
            for successor, label in edges:
                if successor in self.cyan:
                    # A cycle through the active path; accepting if either
                    # endpoint is (early exit without a nested search).
                    if (self._is_accepting(node)
                            or self._is_accepting(successor)):
                        self._build_trace(stack, successor,
                                          [(label, successor)])
                        return True
                    continue
                if successor not in self.blue:
                    self._push_blue(stack, successor, label)
                    break
            else:
                if self._is_accepting(node) and self._dfs_red(node, stack):
                    return True
                stack.pop()
                self.cyan.discard(node)
                del self._position[node]
                self.blue.add(node)
        return False

    def _push_blue(self, stack, node: int, label: Optional[str]) -> None:
        self.cyan.add(node)
        self.seen.add(node)
        self._position[node] = len(stack)
        stack.append((node, label, self._edges(node)))
        if len(stack) > self.peak_frontier:
            self.peak_frontier = len(stack)

    # ------------------------------------------------------------------
    def _dfs_red(self, seed: int, blue_stack) -> bool:
        parents: Dict[int, Optional[Tuple[int, str]]] = {seed: None}
        self.red.add(seed)
        stack: List[Tuple[int, Iterator]] = [(seed, self._edges(seed))]
        while stack:
            node, edges = stack[-1]
            for successor, label in edges:
                if successor in self.cyan:
                    # Close the lasso: seed ->(red path)-> node -> successor,
                    # where successor is an ancestor on the blue stack.
                    closing: List[Tuple[str, int]] = []
                    cursor = node
                    while parents[cursor] is not None:
                        predecessor, step_label = parents[cursor]
                        closing.append((step_label, cursor))
                        cursor = predecessor
                    closing.reverse()
                    closing.append((label, successor))
                    self._build_trace(blue_stack, successor, closing)
                    return True
                if successor not in self.red:
                    self.red.add(successor)
                    self.seen.add(successor)
                    parents[successor] = (node, label)
                    stack.append((successor, self._edges(successor)))
                    frontier = len(blue_stack) + len(stack)
                    if frontier > self.peak_frontier:
                        self.peak_frontier = frontier
                    break
            else:
                stack.pop()
        return False

    # ------------------------------------------------------------------
    def _build_trace(self, blue_stack, anchor: int,
                     closing: List[Tuple[str, int]]) -> None:
        """Assemble the lasso: blue prefix to ``anchor``, blue segment to
        the stack top, then the ``closing`` chain back to ``anchor``.

        Matches the materialised checker's convention: the final state
        equals the loop anchor and ``loop_start`` is the anchor's first
        state index.
        """
        graph = self.graph
        nq = self.nq
        anchor_index = self._position[anchor]
        trace = Trace(initial_state=graph.state(blue_stack[0][0] // nq))
        for node, label, _ in blue_stack[1:anchor_index + 1]:
            trace.steps.append(Step(label, graph.state(node // nq)))
        trace.loop_start = len(trace.steps)
        for node, label, _ in blue_stack[anchor_index + 1:]:
            trace.steps.append(Step(label, graph.state(node // nq)))
        for label, node in closing:
            trace.steps.append(Step(label, graph.state(node // nq)))
        self.trace = trace


def _check_ltl_on_the_fly(model: Model, formula: Formula,
                          name: str = "property") -> CheckResult:
    """Check ``model |= formula`` via the on-the-fly product search."""
    with obs.span("mc.check", property=name, mode="ltl") as span:
        automaton = ltl_to_buchi(formula.negate())
        graph = model.graph()
        expanded = graph.expanded
        search = _OnTheFlySearch(graph, automaton)
        trace = search.run()

        model_states = {node // search.nq for node in search.seen}
        model_states.add(graph.initial)
        obs.inc("mc.checks")
        obs.inc("mc.states_explored", len(model_states))
        obs.inc("mc.product_states", len(search.seen))
        obs.inc("mc.buchi_states", len(automaton.states))
        obs.inc("mc.peak_frontier", search.peak_frontier)
        obs.gauge_max("mc.max_product_states", len(search.seen))
        obs.count("mc.states_expanded", graph.expanded - expanded)

        result = CheckResult(
            name, holds=trace is None,
            counterexample=trace,
            states_explored=len(model_states),
            product_states=len(search.seen),
            buchi_states=len(automaton.states),
            peak_frontier=search.peak_frontier,
        )
    result.elapsed_seconds = span.duration
    obs.observe("mc.check_seconds", span.duration)
    return result


# ---------------------------------------------------------------------------
# Reference engine: fully materialised Büchi product + Tarjan SCC
# ---------------------------------------------------------------------------
class _Product:
    """Reachable synchronous product of model and Büchi automaton."""

    def __init__(self, model: Model, automaton: BuchiAutomaton):
        self.model = model
        self.automaton = automaton
        self.nodes: Dict[Tuple[Tuple, int], int] = {}
        self.edges: Dict[int, List[Tuple[int, str]]] = {}
        self.initials: List[int] = []
        self.model_states_seen: Set[Tuple] = set()
        self._build()

    def _intern(self, model_key: Tuple, buchi_state: int) -> Tuple[int, bool]:
        key = (model_key, buchi_state)
        if key in self.nodes:
            return self.nodes[key], False
        node_id = len(self.nodes)
        self.nodes[key] = node_id
        self.edges[node_id] = []
        return node_id, True

    def _build(self) -> None:
        model = self.model
        automaton = self.automaton
        initial = model.initial_state()
        initial_key = model.key(initial)
        self.model_states_seen.add(initial_key)
        worklist: List[Tuple[Tuple, int]] = []
        for buchi_state in automaton.initial:
            if automaton.state_satisfies(buchi_state, initial):
                node_id, fresh = self._intern(initial_key, buchi_state)
                self.initials.append(node_id)
                if fresh:
                    worklist.append((initial_key, buchi_state))
        while worklist:
            model_key, buchi_state = worklist.pop()
            node_id = self.nodes[(model_key, buchi_state)]
            for label, successor_key in model.successor_items(model_key):
                self.model_states_seen.add(successor_key)
                successor_state = model.unkey(successor_key)
                for next_buchi in automaton.successors(buchi_state):
                    if not automaton.state_satisfies(next_buchi,
                                                     successor_state):
                        continue
                    succ_id, fresh = self._intern(successor_key, next_buchi)
                    self.edges[node_id].append((succ_id, label))
                    if fresh:
                        worklist.append((successor_key, next_buchi))

    def accepting_nodes(self) -> Set[int]:
        return {node_id for (key, node_id) in
                ((k, v) for k, v in self.nodes.items())
                if key[1] in self.automaton.accepting}

    def node_state(self, node_id: int) -> Dict:
        for (model_key, _buchi), nid in self.nodes.items():
            if nid == node_id:
                return self.model.unkey(model_key)
        raise CheckerError(f"unknown product node {node_id}")


def _tarjan_sccs(edges: Dict[int, List[Tuple[int, str]]],
                 roots: Sequence[int]) -> List[List[int]]:
    """Iterative Tarjan SCC over the product graph."""
    index_counter = [0]
    indices: Dict[int, int] = {}
    lowlinks: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []

    for root in roots:
        if root in indices:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                indices[node] = index_counter[0]
                lowlinks[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = edges.get(node, [])
            while child_index < len(successors):
                successor = successors[child_index][0]
                child_index += 1
                if successor not in indices:
                    work[-1] = (node, child_index)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return sccs


def _bfs_path(edges, sources: Sequence[int], targets: Set[int],
              restrict: Optional[Set[int]] = None,
              skip_trivial_start: bool = False):
    """Shortest path (list of (node, label)) from any source to any target."""
    parents: Dict[int, Optional[Tuple[int, str]]] = {}
    queue = deque()
    for source in sources:
        parents[source] = None
        queue.append(source)
        if source in targets and not skip_trivial_start:
            return _reconstruct(parents, source)
    while queue:
        node = queue.popleft()
        for successor, label in edges.get(node, []):
            if restrict is not None and successor not in restrict:
                continue
            if successor in parents:
                if successor in targets and skip_trivial_start:
                    # allow returning to a source through a real edge
                    chain = _reconstruct(parents, node)
                    chain.append((successor, label))
                    return chain
                continue
            parents[successor] = (node, label)
            if successor in targets:
                return _reconstruct(parents, successor)
            queue.append(successor)
    return None


def _reconstruct(parents, node):
    chain = []
    cursor = node
    while parents[cursor] is not None:
        predecessor, label = parents[cursor]
        chain.append((cursor, label))
        cursor = predecessor
    chain.append((cursor, None))
    chain.reverse()
    return chain


def check_ltl_materialised(model: Model, formula: Formula,
                           name: str = "property") -> CheckResult:
    """Reference LTL engine: materialise the product, Tarjan, BFS witness.

    Verdict-equivalent to the on-the-fly search by construction (both
    decide emptiness of the same product language); kept so the fast
    path has an independent implementation to be property-tested
    against.  Witness *shapes* may differ — both satisfy
    :func:`tests.mc.ltl_semantics.trace_violates`.
    """
    for expr in formula.atoms():
        model.validate_expression(expr)

    invariant = as_invariant(formula)
    if invariant is not None:
        return _check_invariant(model, invariant, name)

    with obs.span("mc.check", property=name, mode="ltl") as span:
        automaton = ltl_to_buchi(formula.negate())
        product = _Product(model, automaton)
        accepting = product.accepting_nodes()
        sccs = _tarjan_sccs(product.edges, product.initials)

        witness_scc: Optional[List[int]] = None
        for component in sccs:
            members = set(component)
            if not (members & accepting):
                continue
            if len(component) > 1:
                witness_scc = component
                break
            node = component[0]
            if any(successor == node
                   for successor, _ in product.edges[node]):
                witness_scc = component
                break

        obs.inc("mc.checks")
        obs.inc("mc.states_explored", len(product.model_states_seen))
        obs.inc("mc.product_states", len(product.nodes))
        obs.inc("mc.buchi_states", len(automaton.states))
        obs.gauge_max("mc.max_product_states", len(product.nodes))

        result = CheckResult(
            name, holds=witness_scc is None,
            states_explored=len(product.model_states_seen),
            product_states=len(product.nodes),
            buchi_states=len(automaton.states),
        )
        if witness_scc is not None:
            members = set(witness_scc)
            target_accepting = members & accepting
            prefix = _bfs_path(product.edges, product.initials,
                               target_accepting)
            if prefix is None:  # pragma: no cover - reachable by SCC
                raise CheckerError(
                    "internal error: accepting SCC unreachable")
            anchor = prefix[-1][0]
            cycle = _bfs_path(product.edges, [anchor], {anchor},
                              restrict=members, skip_trivial_start=True)
            if cycle is None:  # pragma: no cover - cycle exists in SCC
                raise CheckerError(
                    "internal error: no cycle in accepting SCC")

            node_states = {}
            for (model_key, _buchi), node_id in product.nodes.items():
                node_states.setdefault(node_id, model.unkey(model_key))

            trace = Trace(initial_state=node_states[prefix[0][0]])
            for node, label in prefix[1:]:
                trace.steps.append(Step(label, node_states[node]))
            trace.loop_start = len(trace.steps)
            for node, label in cycle[1:]:
                trace.steps.append(Step(label, node_states[node]))
            # The lasso's final state equals the loop anchor; keep
            # loop_start pointing at the anchor state index.
            result.counterexample = trace
    result.elapsed_seconds = span.duration
    obs.observe("mc.check_seconds", span.duration)
    return result


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------
def _check_formula(model: Model, formula: Formula,
                   name: str = "property") -> CheckResult:
    """Validate, take the invariant fast path, else search on the fly."""
    for expr in formula.atoms():
        model.validate_expression(expr)
    invariant = as_invariant(formula)
    if invariant is not None:
        return _check_invariant(model, invariant, name)
    return _check_ltl_on_the_fly(model, formula, name)
