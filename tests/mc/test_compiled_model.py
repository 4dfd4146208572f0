"""Compiled successor functions against the dict interpreter.

Every model here is compared, state by state, with
:mod:`tests.mc.reference_model`: the compiled function must return the
same ``(label, successor key)`` list — order and value types included —
or raise the same :class:`ModelError`.
"""

import itertools
import pickle
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.lte import constants as c
from repro.mc import (And, Choice, Compare, Const, Model, ModelChecker,
                      ModelError, Not, Or, Plus, Ref, TRUE, Variable,
                      parse_ltl)
from repro.threat import ThreatConfig, build_threat_model

from . import reference_model


def outcome(compute):
    """``repr`` keeps ``1`` and ``True`` apart; errors compare by text."""
    try:
        return "ok", repr(compute())
    except ModelError as exc:
        return "error", str(exc)


def all_keys(model):
    domains = [model.variable(name).domain for name in model.variable_names]
    return itertools.product(*domains)


def assert_matches_oracle(model, keys=None):
    for key in (all_keys(model) if keys is None else keys):
        compiled = outcome(lambda: model.successor_items(key))
        expected = outcome(
            lambda: reference_model.successor_items(model, key))
        assert compiled == expected, key


def counter(name):
    return obs.metrics().snapshot()["counters"].get(name, 0)


def eq(name, value):
    return Compare(name, "=", value)


# ---------------------------------------------------------------------------
# Hand-built models, one per semantic corner
# ---------------------------------------------------------------------------
def _model(domains, init=None):
    variables = [Variable(name, domain) for name, domain in domains.items()]
    init = init or {name: domain[0] for name, domain in domains.items()}
    return Model("m", variables, init)


def literal_ref_plus():
    model = _model({"n": (0, 1, 2, 3), "m": (0, 1, 2, 3), "b": (False, True)})
    model.add_command("lit", eq("b", False), {"b": True, "n": 2})
    model.add_command("ref", TRUE, {"m": Ref("n")})
    model.add_command("plus", Compare("n", "<", 3), {"n": Plus("n", 1)})
    model.add_command("sat", TRUE, {"m": Plus("m", 2, ceiling=3)})
    return model


def choices():
    model = _model({"n": (0, 1, 2), "s": ("a", "b"), "f": (0, 1)})
    model.add_command("mixed", TRUE,
                      {"n": Choice(2, Ref("f"), Plus("f", 1)), "f": 1})
    model.add_command("two", eq("f", 1),
                      {"s": Choice("b", "a"), "n": Choice(0, 1, 2)})
    return model


def out_of_domain_literal():
    # Raises only in states where the command fires.
    model = _model({"n": (0, 1, 2)})
    model.add_command("bad", eq("n", 2), {"n": 9})
    model.add_command("ok", TRUE, {"n": 1})
    return model


def out_of_domain_ref():
    model = _model({"n": (0, 1, 2), "small": (0, 1)})
    model.add_command("copy", TRUE, {"small": Ref("n")})
    return model


def out_of_domain_plus():
    model = _model({"n": (0, 1, 2)})
    model.add_command("inc", TRUE, {"n": Plus("n", 1)})
    return model


def plus_on_bool():
    model = _model({"b": (False, True)})
    model.add_command("inc", TRUE, {"b": Plus("b")})
    return model


def plus_on_str():
    model = _model({"s": ("a", "b"), "n": (0, 1)})
    model.add_command("inc", eq("n", 1), {"n": Plus("s")})
    return model


def choice_error_order():
    # The first option error met depth first wins: the inner Choice's
    # bad Ref is reached before the outer Choice's bad literal.
    model = _model({"n": (0, 1), "s": ("a", "b")})
    model.add_command("pick", TRUE,
                      {"n": Choice(0, 7), "s": Choice("a", Ref("n"))})
    return model


def stutter_and_duplicate_labels():
    model = _model({"n": (0, 1, 2)})
    model.add_command("go", eq("n", 0), {"n": 1})
    model.add_command("go", eq("n", 0), {"n": 2})
    model.add_command("go", eq("n", 1), {"n": Choice(0, 0)})
    return model


def no_dispatch_conjunct():
    model = _model({"n": (0, 1, 2), "m": (0, 1, 2)})
    model.add_command("lt", Compare("n", "<", "m", right_is_var=True),
                      {"n": Ref("m")})
    model.add_command("ne", Compare("n", "!=", 1), {"m": 1})
    model.add_command("any", TRUE, {"m": 0})
    return model


def mixed_dispatch():
    # Dispatch-free commands interleave with bucketed ones in order.
    model = _model({"turn": ("x", "y", "z"), "n": (0, 1, 2)})
    model.add_command("free0", Compare("n", ">=", 1), {"n": 0})
    model.add_command("x0", And(eq("turn", "x"), eq("n", 0)), {"turn": "y"})
    model.add_command("free1", TRUE, {"n": Choice(1, 2)})
    model.add_command("y0", eq("turn", "y"), {"turn": "z"})
    model.add_command("x1", And(eq("n", 0), eq("turn", "x")), {"n": 2})
    model.add_command("xy", And(eq("turn", "x"), eq("turn", "y")), {"n": 1})
    return model


def nested_connectives():
    model = _model({"n": (0, 1, 2), "m": (0, 1, 2), "s": ("a", "b")})
    shared = Or(eq("n", 1), And(eq("m", 2), Not(eq("s", "a"))))
    model.add_command("a", And(eq("s", "a"), shared), {"s": "b"})
    model.add_command("b", And(eq("s", "a"), Not(Or(shared, eq("m", 0)))),
                      {"m": 0})
    model.add_command("c", And(eq("s", "b"), Not(Not(shared))), {"s": "a"})
    model.add_command("d", And(eq("s", "b"), Not(shared),
                               Compare("m", "<=", "n", right_is_var=True)),
                      {"n": Plus("m", 1, ceiling=2)})
    model.add_command("e", Or(Const(False), Compare("m", ">", 1)),
                      {"m": Choice(0, 1)})
    # Shared conjunction and disjunction of the same operands: hoisted
    # into different locals.
    both, either = And(eq("n", 1), eq("m", 2)), Or(eq("n", 1), eq("m", 2))
    model.add_command("f", both, {"n": 0})
    model.add_command("g", either, {"n": 2})
    model.add_command("h", Not(both), {"m": 1})
    model.add_command("i", Not(either), {"m": 2})
    return model


CORNER_CASES = [literal_ref_plus, choices, out_of_domain_literal,
                out_of_domain_ref, out_of_domain_plus, plus_on_bool,
                plus_on_str, choice_error_order,
                stutter_and_duplicate_labels, no_dispatch_conjunct,
                mixed_dispatch, nested_connectives]


class TestCornerCases:
    @pytest.mark.parametrize("build", CORNER_CASES,
                             ids=lambda build: build.__name__)
    def test_matches_the_interpreter(self, build):
        assert_matches_oracle(build())

    def test_errors_are_reached(self):
        # The corner cases above do exercise each error path.
        for build, key in ((out_of_domain_literal, (2,)),
                           (out_of_domain_ref, (2, 0)),
                           (out_of_domain_plus, (2,)),
                           (plus_on_bool, (False,)),
                           (plus_on_str, (1, "a")),
                           (choice_error_order, (0, "a"))):
            with pytest.raises(ModelError):
                build().successor_items(key)
        assert out_of_domain_literal().successor_items((0,)) == \
            [("ok", (1,))]

    def test_choice_updates_per_command_are_bounded(self):
        # Each Choice is one nested loop of the generated function.
        names = [f"v{index:02d}" for index in range(17)]
        for width, compiles in ((16, True), (17, False)):
            model = _model({name: (0, 1) for name in names[:width]})
            model.add_command("all", TRUE, {name: Choice(1, 0)
                                            for name in names[:width]})
            key = (0,) * width
            if compiles:
                successors = model.successor_items(key)
                assert len(successors) == 2 ** width
                assert successors[0] == ("all", (1,) * width)
            else:
                with pytest.raises(ModelError, match="at most 16"):
                    model.successor_items(key)

    def test_deadlock_stutters_on_the_same_key(self):
        model = stutter_and_duplicate_labels()
        assert model.successor_items((2,)) == [("stutter", (2,))]
        assert [label for label, _ in model.successor_items((0,))] == \
            ["go", "go"]


# ---------------------------------------------------------------------------
# Random models
# ---------------------------------------------------------------------------
_KINDS = {"int": (0, 1, 2, 3), "bool": (False, True), "str": ("a", "b")}
#: literal pool: in-domain, cross-kind and out-of-domain values
_LITERALS = (0, 1, 3, 5, False, True, "a", "b", "zz")
_ORDERED = {"int": (0, 1, 2, 4, True), "bool": (0, 1, False, True),
            "str": ("a", "b", "c")}
_NUMERIC = ("int", "bool")


@st.composite
def random_models(draw):
    names = ("p", "q", "r")[:draw(st.integers(1, 3))]
    kinds = {name: draw(st.sampled_from(sorted(_KINDS))) for name in names}
    domains = {name: tuple(draw(st.lists(
        st.sampled_from(_KINDS[kinds[name]]), min_size=1,
        max_size=len(_KINDS[kinds[name]]), unique=True)))
        for name in names}

    def comparable(left, right):
        return (kinds[left] == kinds[right]
                or {kinds[left], kinds[right]} <= set(_NUMERIC))

    @st.composite
    def leaves(draw):
        name = draw(st.sampled_from(names))
        shape = draw(st.sampled_from(("const", "eq", "order", "vars")))
        if shape == "const":
            return Const(draw(st.booleans()))
        if shape == "eq":
            return Compare(name, draw(st.sampled_from(("=", "!="))),
                           draw(st.sampled_from(_LITERALS)))
        if shape == "order":
            return Compare(name, draw(st.sampled_from(("<", "<=", ">",
                                                       ">="))),
                           draw(st.sampled_from(_ORDERED[kinds[name]])))
        other = draw(st.sampled_from(
            [o for o in names if comparable(name, o)]))
        return Compare(name, draw(st.sampled_from(
            ("=", "!=", "<", "<=", ">", ">="))), other, right_is_var=True)

    guards = st.recursive(leaves(), lambda inner: st.one_of(
        st.builds(Not, inner),
        st.lists(inner, min_size=1, max_size=3).map(lambda ops: And(*ops)),
        st.lists(inner, min_size=1, max_size=3).map(lambda ops: Or(*ops))),
        max_leaves=6)

    def plain(name):
        return st.one_of(
            st.sampled_from(domains[name]),
            st.sampled_from(domains[name]),
            st.sampled_from(_LITERALS),
            st.builds(Ref, st.sampled_from(names)),
            st.builds(Plus, st.sampled_from(names), st.integers(1, 2),
                      st.one_of(st.none(), st.integers(0, 3))))

    def rhs(name):
        return st.one_of(plain(name), st.lists(
            plain(name), min_size=1, max_size=3).map(
                lambda options: Choice(*options)))

    model = Model("random", [Variable(name, domains[name])
                             for name in names],
                  {name: draw(st.sampled_from(domains[name]))
                   for name in names})
    dispatch = names[0]
    for _ in range(draw(st.integers(0, 5))):
        guard = draw(guards)
        if draw(st.booleans()):
            guard = And(eq(dispatch, draw(st.sampled_from(
                domains[dispatch]))), guard)
        targets = draw(st.lists(st.sampled_from(names), unique=True))
        model.add_command(draw(st.sampled_from(("a", "b", "c"))), guard,
                          {name: draw(rhs(name)) for name in targets})
    return model


class TestRandomModels:
    @settings(max_examples=250, deadline=None)
    @given(random_models())
    def test_matches_the_interpreter(self, model):
        assert_matches_oracle(model)


# ---------------------------------------------------------------------------
# The threat-instrumented models the pipeline checks
# ---------------------------------------------------------------------------
ADVERSARIAL = ThreatConfig(replay_dl=(c.AUTHENTICATION_REQUEST,),
                           inject_dl=(c.ATTACH_ACCEPT,))


class TestThreatModels:
    @pytest.mark.parametrize("implementation,config", [
        ("reference", ThreatConfig()), ("srsue", ThreatConfig()),
        ("oai", ThreatConfig()), ("srsue", ADVERSARIAL)],
        ids=["reference", "srsue", "oai", "srsue-adversarial"])
    def test_every_reachable_state_matches(self, extracted_models,
                                           mme_model, implementation,
                                           config):
        model = build_threat_model(extracted_models[implementation],
                                   mme_model, config)
        root = model.key(model.initial_state())
        seen = {root}
        queue = deque([root])
        while queue:
            key = queue.popleft()
            expected = reference_model.successor_items(model, key)
            assert repr(model.successor_items(key)) == repr(expected), key
            for _, successor in expected:
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        assert len(seen) > 50


# ---------------------------------------------------------------------------
# Safety and lifecycle
# ---------------------------------------------------------------------------
HOSTILE = ("x'\"\n", "__import__('os').system('false')", "'''\n#",
           '"""); raise SystemExit(""', "a\\nb\r\x00")


def hostile_model():
    """Variable names, enum values and labels that would break (or run)
    if spliced into the generated source."""
    first, second, third, fourth, fifth = HOSTILE
    model = Model("hostile", [Variable(first, (second, third, fourth)),
                              Variable(second, (second, third, fourth)),
                              Variable(fifth, (0, 1))],
                  {first: second, second: third, fifth: 0})
    model.add_command(third, And(eq(first, second), eq(fifth, 0)),
                      {first: Choice(third, fourth), fifth: 1})
    model.add_command(fourth, Compare(first, "!=", second, right_is_var=True),
                      {second: Ref(first), fifth: Plus(fifth, 1, 1)})
    model.add_command(fifth, Or(eq(first, fourth), Not(eq(fifth, 1))),
                      {first: second})
    return model


def _code_strings(code):
    strings = set(code.co_names) | set(code.co_varnames) \
        | set(code.co_freevars)
    for constant in code.co_consts:
        if isinstance(constant, str):
            strings.add(constant)
        elif hasattr(constant, "co_consts"):
            strings |= _code_strings(constant)
    return strings


class TestSafety:
    def test_hostile_names_compile_and_match(self):
        model = hostile_model()
        assert_matches_oracle(model)
        labels = {label for key in all_keys(model)
                  for label, _ in model.successor_items(key)}
        assert labels == {HOSTILE[2], HOSTILE[3], HOSTILE[4], "stutter"}
        # Nothing model-supplied reached the generated code object.
        spliced = _code_strings(model._successors.__code__)
        assert not spliced & set(HOSTILE)

    def test_hostile_predicate(self):
        model = hostile_model()
        holds = model.predicate(Or(eq(HOSTILE[0], HOSTILE[2]),
                                   Compare(HOSTILE[1], "=", HOSTILE[0],
                                           right_is_var=True)))
        for key in all_keys(model):
            state = model.unkey(key)
            assert holds(key) == (state[HOSTILE[0]] == HOSTILE[2]
                                  or state[HOSTILE[1]] == state[HOSTILE[0]])

    def test_compiled_model_pickles_and_round_trips(self):
        model = hostile_model()
        keys = list(all_keys(model))
        expected = [model.successor_items(key) for key in keys]
        model.graph().successors(model.graph().initial)
        clone = pickle.loads(pickle.dumps(model))
        before = counter("mc.models_compiled")
        assert [clone.successor_items(key) for key in keys] == expected
        assert counter("mc.models_compiled") == before + 1
        assert clone.fingerprint() == model.fingerprint()

    def test_add_command_invalidates_the_compiled_function(self):
        model = _model({"n": (0, 1, 2)})
        model.add_command("one", TRUE, {"n": 1})
        graph = model.graph()
        assert graph.successors(graph.initial) == (("one", 1),)
        model.add_command("two", TRUE, {"n": 2})
        assert model.successor_items((0,)) == [("one", (1,)),
                                               ("two", (2,))]
        rebuilt = model.graph()
        assert rebuilt is not graph
        assert [label for label, _ in rebuilt.successors(rebuilt.initial)] \
            == ["one", "two"]


class TestCompileTelemetry:
    def test_compilation_is_lazy_counted_and_spanned(self):
        model = literal_ref_plus()
        before = counter("mc.models_compiled")
        model.graph()
        model.predicate(eq("n", 1))
        assert counter("mc.models_compiled") == before
        with obs.span("probe") as probe:
            key = model.key(model.initial_state())
            model.successor_items(key)
            model.successor_items(key)
        assert counter("mc.models_compiled") == before + 1
        assert [child.name for child in probe.children] == ["mc.compile"]

    def test_states_expanded_stays_out_of_the_property_rollup(self):
        model = stutter_and_duplicate_labels()
        formula = parse_ltl("G (n != 2)", model.variable_names)
        before = counter("mc.states_expanded")
        with obs.span("verify.property") as first:
            ModelChecker().check_formula(model, formula, "first")
        expanded = counter("mc.states_expanded") - before
        assert expanded == model.graph().expanded > 0
        with obs.span("verify.property") as second:
            ModelChecker().check_formula(model, formula, "second")
        # The graph is shared: the second check expands nothing new.
        assert counter("mc.states_expanded") - before == expanded
        for span in (first, second):
            rollup = span.total_counters()
            assert "mc.states_expanded" not in rollup
            assert "mc.models_compiled" not in rollup
            assert rollup["mc.checks"] == 1
