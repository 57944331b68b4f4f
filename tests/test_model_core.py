import itertools
import json
import random
from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphoid.model_core as model_core
from graphoid import (
    CiOracle,
    Dag,
    DependencyModel,
    Triplet,
    Universe,
    check_graphoid_axioms,
    extract_model,
    graphoid_closure,
    random_spb,
)
from graphoid.errors import InvalidSets, UniverseTooLarge, UnknownVariable
from graphoid.model_core import (
    AXIOM_CONTRACTION,
    AXIOM_DECOMPOSITION,
    AXIOM_SYMMETRY,
    AXIOM_TRIVIAL,
    AXIOM_WEAK_UNION,
    AxiomViolation,
    _lex_submasks,
    _size_lex_submasks,
    label_blocks,
    subsets,
)

from disjoint_triples import by_mask, iter_disjoint_triples, variable_sets


def t(x, y, z=()):
    return Triplet.make(x, y, z)


def dense_model(n):
    """Every singleton pair independent under every conditioning set."""
    names = tuple(f"v{i}" for i in range(n))
    return DependencyModel.of(
        Universe.binary(*names),
        (
            t({a}, {b}, z)
            for a, b in itertools.combinations(names, 2)
            for z in subsets(set(names) - {a, b})
        ),
    )


def model(*triplets, names=("x", "y", "w")):
    return DependencyModel.of(Universe.binary(*names), triplets)


def test_universe_names_stored_once_without_changing_equality():
    a, b = Universe.binary("x", "y"), Universe.binary("x", "y")
    assert a.names is a.names
    assert a.names == frozenset({"x", "y"})
    assert a == b and hash(a) == hash(b)
    assert a != Universe.binary("y", "x")
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_universe_index_is_the_position_in_variables(n):
    rng = random.Random(n)
    for _ in range(5):
        names = [f"u{i}" for i in range(n)]
        rng.shuffle(names)
        u = Universe.binary(*names)
        assert [u.index(v) for v in names] == [u.variables.index(v) for v in names]
        assert u == Universe.binary(*names) and hash(u) == hash(Universe.binary(*names))


@pytest.mark.parametrize("variables, domains", [
    (["b", "a"], (("0", "1"), ("0", "1"))),
    (("b", "a"), [("0", "1"), ("0", "1")]),
    (("b", "a"), (["0", "1"], ["0", "1"])),
    (["b", "a"], [["0", "1"], ["0", "1"]]),
], ids=["variables", "domains", "each domain", "all"])
def test_a_universe_given_lists_equals_and_hashes_like_one_given_tuples(variables, domains):
    given, tupled = Universe(variables, domains), Universe.binary("b", "a")
    assert given.variables == ("b", "a") and given.domains == (("0", "1"), ("0", "1"))
    assert given == tupled and hash(given) == hash(tupled)
    parents = {"b": frozenset(), "a": frozenset({"b"})}
    dag, tupled_dag = Dag(given, parents, ("b", "a")), Dag(tupled, parents, ("b", "a"))
    assert dag == tupled_dag and hash(dag) == hash(tupled_dag)


@pytest.mark.parametrize("name", [1, None, ("b",), ["b"]], ids=repr)
@pytest.mark.parametrize("build", [
    lambda name: Universe(("a", name), (("0", "1"), ("0", "1"))),
    lambda name: Universe.binary("a", name),
    lambda name: Universe.reals("a", name),
], ids=["Universe", "binary", "reals"])
def test_a_non_string_universe_name_is_a_value_error(build, name):
    # Checked before the names are hashed or sorted, which would raise a bare TypeError.
    with pytest.raises(ValueError, match=f"^variable names must be strings, not {type(name).__name__}$"):
        build(name)


class TestTriplet:
    def test_overlap_rejected(self):
        with pytest.raises(InvalidSets):
            t({"x"}, {"x", "y"})

    def test_empty_sides_allowed(self):
        assert t((), (), ()).x_set == frozenset()

    def test_unknown_variable_rejected_by_model(self):
        with pytest.raises(InvalidSets):
            model(t("x", "q"))

    def test_json_round_trip(self):
        trip = t({"x"}, {"y"}, {"w"})
        assert Triplet.from_json_dict(trip.to_json_dict()) == trip


class TestClosure:
    def test_trivial_instances_forced(self):
        closed = graphoid_closure(model(names=("x", "y")))
        assert t("x", ()) in closed.triplets
        assert t("x", (), "y") in closed.triplets
        assert t("y", ()) in closed.triplets
        assert t("y", (), "x") in closed.triplets
        assert t((), "x") in closed.triplets

    def test_decomposition_and_weak_union(self):
        closed = graphoid_closure(model(t("x", {"y", "w"})))
        assert t("x", "y") in closed.triplets
        assert t("x", "y", "w") in closed.triplets

    def test_contraction(self):
        closed = graphoid_closure(model(t("x", "y"), t("x", "w", "y")))
        assert t("x", {"y", "w"}) in closed.triplets

    def test_contraction_with_derived_second_premise(self):
        # (a, c | b) follows from (ab, c | {}) by symmetry and weak union, so it
        # may be derived after (a, b | {}) was expanded; contraction must still
        # join the two.  Which comes first depends on set iteration order, so
        # try many labellings.
        for a, b, c in itertools.permutations("pqrst", 3):
            closed = graphoid_closure(model(t({a, b}, c), t(a, b), names=tuple("pqrst")))
            assert t(a, {b, c}) in closed.triplets

    def test_elementary_rule_fires_from_either_premise(self):
        # Closing this model derives an (a, c | K) after its partner
        # (a, b | K+c) was expanded, so the rule must also fire from the
        # (a, c | K) side.
        m = model(
            t("v1", {"v0", "v2"}, "v3"), t("v2", "v0", "v1"), t("v3", {"v0", "v1"}),
            names=("v0", "v1", "v2", "v3"),
        )
        assert graphoid_closure(m).triplets == reference_closure(m).triplets

    def test_closure_is_a_graphoid(self):
        closed = graphoid_closure(model(t("x", "y"), t("x", "w", "y")))
        assert check_graphoid_axioms(closed) == []

    def test_dense_model_at_the_bound(self):
        # Every singleton pair independent under every Z closes to all 4^8
        # disjoint triples at n = 8, the largest universe the bound admits.
        closed = graphoid_closure(dense_model(8))
        assert len(closed.triplets) == 4**8
        assert check_graphoid_axioms(closed) == []

    def test_bound_enforced(self):
        big = DependencyModel.of(Universe.binary(*[f"u{i}" for i in range(9)]))
        with pytest.raises(UniverseTooLarge, match="^9 variables exceed the bound of 8$"):
            graphoid_closure(big)


def test_unknown_variables_are_named_in_the_message():
    u = Universe.binary("x", "y")
    with pytest.raises(UnknownVariable) as caught:
        u.index("nope")
    assert str(caught.value) == "unknown variable: nope"
    with pytest.raises(UnknownVariable) as caught:
        u.require({"x", "b", "a"})
    assert str(caught.value) == "unknown variable: a, b"
    with pytest.raises(InvalidSets) as caught:
        CiOracle(random_spb(2, 0)).ci("u1", "u9")
    assert str(caught.value) == "unknown variable: u9"


@pytest.mark.parametrize("name", [1, None, ("u1", "u2")], ids=["int", "none", "tuple"])
def test_a_non_string_name_is_an_unknown_variable(name):
    with pytest.raises(UnknownVariable) as caught:
        CiOracle(random_spb(3, 0)).ci({name}, {"u2"})
    assert str(caught.value) == f"unknown variable: {name}"
    with pytest.raises(UnknownVariable) as caught:
        Universe.binary("x").require({name, "b"})
    assert str(caught.value) == "unknown variable: " + ", ".join(sorted([str(name), "b"]))


class TestAxiomCheck:
    def test_missing_symmetry_reported_once(self):
        violations = check_graphoid_axioms(model(t("x", "y")))
        symmetry = [v for v in violations if v.axiom == AXIOM_SYMMETRY]
        assert len(symmetry) == 1
        assert symmetry[0].missing == t("y", "x")

    def test_extracted_model_is_graphoid(self):
        for seed in range(3):
            m = extract_model(CiOracle(random_spb(4, seed)))
            assert check_graphoid_axioms(m) == []


# Random model strategy: a handful of triplets over a three-variable universe.
_names = ("a", "b", "c")


@st.composite
def small_models(draw):
    triplets = set()
    for _ in range(draw(st.integers(0, 4))):
        codes = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
        x = frozenset(n for n, c in zip(_names, codes) if c == 1)
        y = frozenset(n for n, c in zip(_names, codes) if c == 2)
        z = frozenset(n for n, c in zip(_names, codes) if c == 3)
        triplets.add(Triplet(x, y, z))
    return DependencyModel.of(Universe.binary(*_names), triplets)


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_closure_idempotent(m):
    once = graphoid_closure(m)
    assert graphoid_closure(once).triplets == once.triplets


@settings(max_examples=40, deadline=None)
@given(small_models(), small_models())
def test_closure_monotone(m1, m2):
    merged = DependencyModel.of(m1.universe, m1.triplets | m2.triplets)
    assert graphoid_closure(m1).triplets <= graphoid_closure(merged).triplets


@settings(max_examples=30, deadline=None)
@given(small_models())
def test_closure_passes_axiom_check(m):
    assert check_graphoid_axioms(graphoid_closure(m)) == []


def test_model_json_round_trip():
    m = model(t("x", "y"), t("x", "w", "y"))
    again = DependencyModel.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
    assert again.triplets == m.triplets
    assert again.universe.variables == m.universe.variables


# Reference implementations: the definitional frozenset closure and axiom
# check, kept here to test the mask-based ones against.  They scan every
# triplet with the same x-set for contraction, so keep them to n <= 5.


def _reference_disjoint_pairs(names):
    pool = sorted(names)
    for codes in itertools.product((0, 1, 2), repeat=len(pool)):
        first = frozenset(n for n, c in zip(pool, codes) if c == 1)
        second = frozenset(n for n, c in zip(pool, codes) if c == 2)
        yield first, second


def reference_closure(model):
    closed = set()
    queue = deque()
    by_x = {}

    def add(trip):
        if trip not in closed:
            closed.add(trip)
            by_x.setdefault(trip.x_set, []).append(trip)
            queue.append(trip)

    for x_set, z_set in _reference_disjoint_pairs(model.universe.variables):
        add(Triplet(x_set, frozenset(), z_set))
    for trip in model.triplets:
        add(trip)

    while queue:
        trip = queue.popleft()
        add(Triplet(trip.y_set, trip.x_set, trip.z_set))
        for kept in subsets(trip.y_set):
            if kept == trip.y_set:
                continue
            add(Triplet(trip.x_set, kept, trip.z_set))
            add(Triplet(trip.x_set, kept, trip.z_set | (trip.y_set - kept)))
        zy = trip.z_set | trip.y_set
        for other in list(by_x.get(trip.x_set, ())):
            if other.z_set == zy:
                add(Triplet(trip.x_set, trip.y_set | other.y_set, trip.z_set))
            if trip.z_set == other.z_set | other.y_set:
                add(Triplet(trip.x_set, other.y_set | trip.y_set, other.z_set))

    return DependencyModel(model.universe, frozenset(closed))


def reference_check(model):
    # One plain frozenset, so the loops below neither rebuild a Triplet per
    # pass over the model's view nor decode a membership test into masks.
    present = frozenset(model.triplets)
    out = []

    for x_set, z_set in _reference_disjoint_pairs(model.universe.variables):
        trip = Triplet(x_set, frozenset(), z_set)
        if trip not in present:
            out.append(AxiomViolation(AXIOM_TRIVIAL, (), trip))

    by_x = {}
    for trip in present:
        by_x.setdefault(trip.x_set, []).append(trip)

    for trip in present:
        sym = Triplet(trip.y_set, trip.x_set, trip.z_set)
        if sym not in present:
            out.append(AxiomViolation(AXIOM_SYMMETRY, (trip,), sym))
        for kept in subsets(trip.y_set):
            if not kept or kept == trip.y_set:
                continue
            dec = Triplet(trip.x_set, kept, trip.z_set)
            if dec not in present:
                out.append(AxiomViolation(AXIOM_DECOMPOSITION, (trip,), dec))
            weak = Triplet(trip.x_set, kept, trip.z_set | (trip.y_set - kept))
            if weak not in present:
                out.append(AxiomViolation(AXIOM_WEAK_UNION, (trip,), weak))

    for t1 in present:
        if not t1.y_set:
            continue
        zy = t1.z_set | t1.y_set
        for t2 in by_x.get(t1.x_set, ()):
            if not t2.y_set or t2.z_set != zy:
                continue
            joined = Triplet(t1.x_set, t1.y_set | t2.y_set, t1.z_set)
            if joined not in present:
                out.append(AxiomViolation(AXIOM_CONTRACTION, (t1, t2), joined))

    out.sort(key=AxiomViolation.sort_key)
    return out


# Universe order differs from name order, so that mask bits and the sorted
# witness order disagree.
_wide_names = ("e", "b", "d", "a", "c")


@st.composite
def wide_models(draw):
    """A 4- or 5-variable model: raw generators, their closure, or a thinned closure."""
    names = _wide_names[: draw(st.sampled_from((4, 5)))]
    triplets = set()
    for _ in range(draw(st.integers(0, 6))):
        codes = draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)))
        x, y, z = (frozenset(n for n, c in zip(names, codes) if c == k) for k in (1, 2, 3))
        triplets.add(Triplet(x, y, z))
    m = DependencyModel.of(Universe.binary(*names), triplets)
    form = draw(st.sampled_from(("raw", "closed", "thinned")))
    if form == "raw":
        return m
    closed = sorted(reference_closure(m).triplets, key=Triplet.sort_key)
    if form == "thinned":
        rnd = draw(st.randoms(use_true_random=False))
        closed = [trip for trip in closed if rnd.random() < 0.9]
    return DependencyModel.of(m.universe, closed)


@settings(max_examples=40, deadline=None)
@given(wide_models())
def test_mask_closure_and_check_match_reference(m):
    assert graphoid_closure(m).triplets == reference_closure(m).triplets
    assert check_graphoid_axioms(m) == reference_check(m)


def fixpoint_closure(model):
    """The mask fixpoint the elementary-triplet closure replaced, kept as a
    second reference where ``reference_closure`` is too slow (dense n=7).

    A work stack of derived triplets applies symmetry, decomposition and weak
    union, and finds each contraction partner in an index.
    """
    sets = by_mask(model.universe.variables)
    mask_of = {s: mask for mask, s in enumerate(sets)}
    full = len(sets) - 1
    closed = {(x, 0, z) for z in range(full + 1) for x in range(full + 1) if not x & z}
    closed |= {(0, x, z) for x, _, z in closed}
    stack = []
    as_second = {}  # (x, z) -> y of each (x, y | z)
    as_first = {}  # (x, y | z) -> (y, z) of each (x, y | z)

    def add(x, y, z):
        if (x, y, z) not in closed:
            closed.add((x, y, z))
            as_second.setdefault((x, z), []).append(y)
            as_first.setdefault((x, y | z), []).append((y, z))
            stack.append((x, y, z))

    for trip in model.triplets:
        if trip.x_set and trip.y_set:
            add(mask_of[trip.x_set], mask_of[trip.y_set], mask_of[trip.z_set])
    while stack:
        x, y, z = stack.pop()
        add(y, x, z)
        sub = (y - 1) & y
        while sub:
            add(x, sub, z)
            add(x, sub, z | (y ^ sub))
            sub = (sub - 1) & y
        for w in as_second.get((x, z | y), ()):
            add(x, y | w, z)
        for first_y, first_z in as_first.get((x, z), ()):
            add(x, first_y | y, first_z)

    return DependencyModel(
        model.universe, frozenset(Triplet(sets[x], sets[y], sets[z]) for x, y, z in closed)
    )


def test_closure_matches_reference_on_every_small_model():
    # Every model of at most three non-trivial generators over three
    # variables: 1 + 18 + 153 + 816 = 988 models.
    names = ("c", "a", "b")
    universe = Universe.binary(*names)
    pool = [Triplet(x, y, z) for x, y, z in iter_disjoint_triples(names) if x and y]
    assert len(pool) == 18
    count = 0
    for size in range(4):
        for generators in itertools.combinations(pool, size):
            m = DependencyModel.of(universe, generators)
            assert graphoid_closure(m).triplets == reference_closure(m).triplets, generators
            count += 1
    assert count == 988


def seeded_sparse_models(n, count):
    """``count`` models of 1-6 seeded generators with non-empty x and y, over
    n variables in a universe order that differs from name order."""
    rnd = random.Random(n)
    names = _wide_names[:4] + tuple(f"u{i}" for i in range(n - 4))
    for _ in range(count):
        size, generators = rnd.randint(1, 6), []
        while len(generators) < size:
            codes = [rnd.randrange(4) for _ in names]
            x, y, z = (frozenset(v for v, c in zip(names, codes) if c == k) for k in (1, 2, 3))
            if x and y:
                generators.append(Triplet(x, y, z))
        yield DependencyModel.of(Universe.binary(*names), generators)


@pytest.mark.parametrize("n, count", [(4, 60), (5, 30), (6, 12)])
def test_closure_matches_reference_on_seeded_sparse_models(n, count):
    for m in seeded_sparse_models(n, count):
        closed = graphoid_closure(m).triplets
        assert closed == fixpoint_closure(m).triplets, m.triplets
        if n <= 5:  # the definitional closure takes seconds at n=6
            assert closed == reference_closure(m).triplets, m.triplets


@pytest.mark.parametrize("n", range(2, 8))
def test_dense_closure_matches_reference(n):
    dense = dense_model(n)
    closed = graphoid_closure(dense).triplets
    assert len(closed) == 4**n
    assert closed == fixpoint_closure(dense).triplets
    if n <= 6:
        assert closed == reference_closure(dense).triplets


def thinned_closures(m, removals=15):
    """The closure of ``m`` less one triplet, for about ``removals`` triplets
    evenly spaced in sort order."""
    closed = graphoid_closure(m)
    ordered = sorted(closed.triplets, key=Triplet.sort_key)
    for held in ordered[:: max(1, len(ordered) // removals)]:
        yield DependencyModel(m.universe, closed.triplets - {held})


def test_check_reports_the_reference_violations_of_thinned_closures():
    seen = Counter()
    for n in (4, 5):
        for m in seeded_sparse_models(n, 10):
            for thinned in thinned_closures(m):
                violations = check_graphoid_axioms(thinned)
                assert violations == reference_check(thinned), thinned.triplets
                seen.update(v.axiom for v in violations)
    # every axiom is violated somewhere, so the comparison is not vacuous
    assert set(seen) == {
        AXIOM_TRIVIAL, AXIOM_SYMMETRY, AXIOM_DECOMPOSITION, AXIOM_WEAK_UNION, AXIOM_CONTRACTION
    }, seen


def symmetric_three_variable_models():
    """All 2^9 models over three variables that hold every trivial triplet and,
    of each of the 9 statements (X, Y | Z) with X and Y non-empty, both
    orientations or neither."""
    names = ("c", "a", "b")
    universe = Universe.binary(*names)
    triples = list(iter_disjoint_triples(names))
    trivial = [Triplet(x, y, z) for x, y, z in triples if not x or not y]
    statements = [(x, y, z) for x, y, z in triples if x and y and min(x) < min(y)]
    assert len(statements) == 9
    for chosen in itertools.product((False, True), repeat=9):
        held = [s for s, keep in zip(statements, chosen) if keep]
        yield DependencyModel.of(
            universe, trivial + [Triplet(*s) for s in held] + [Triplet(y, x, z) for x, y, z in held]
        )


def test_the_check_certifies_the_22_semigraphoids_on_three_variables():
    # 22 is the published number of semi-graphoids on three variables, beside
    # 26,424 on four (Hemmecke, Morton, Shiu, Sturmfels and Wienand, "Three
    # counter-examples on semi-graphoids", 2008).  The other 490 models fail
    # the certificate and are enumerated: their violations are the reference's.
    certified = 0
    for m in symmetric_three_variable_models():
        violations = check_graphoid_axioms(m)
        assert violations == reference_check(m), m.triplets
        certified += not violations
    assert certified == 22


def test_a_guard_that_always_certifies_loses_the_count(monkeypatch):
    # Mutation probe: a certificate that holds whatever the closure returns
    # passes all 512 models, so the count above would catch it.
    monkeypatch.setattr(model_core, "_closed_masks", lambda m: mock.ANY)
    certified = sum(not check_graphoid_axioms(m) for m in symmetric_three_variable_models())
    assert certified == 512 != 22


def view_models():
    """Hand-built, closed and extracted models, a sparse n=6 model and its
    closure, and a 9-variable model read from JSON (past the closure bound)."""
    sparse = next(seeded_sparse_models(6, 1))
    hand = model(t("x", "y"), t("x", "w", "y"), t((), "w"))
    nine = DependencyModel.from_json_dict({
        "variables": [f"u{i}" for i in range(9, 0, -1)],
        "triplets": [{"x": ["u1"], "y": ["u9"], "z": ["u3", "u8"]}, {"x": ["u2", "u5"], "y": ["u4"]}],
    })
    return {
        "empty": model(),
        "hand": hand,
        "hand-closed": graphoid_closure(hand),
        "sparse-6": sparse,
        "sparse-6-closed": graphoid_closure(sparse),
        "extracted": extract_model(CiOracle(random_spb(4, 0))),
        "json-9": nine,
    }


@pytest.mark.parametrize("name", sorted(view_models()))
def test_the_triplet_view_answers_as_the_frozenset_it_holds(name):
    m = view_models()[name]
    view = m.triplets
    plain = frozenset(iter(view))
    assert len(view) == len(plain) == len(view.masks)
    assert view == plain and plain == view and not view != plain
    assert view <= plain and plain <= view and view >= plain and plain >= view
    assert not view < plain and not plain < view and not view > plain and not plain > view
    assert hash(view) == hash(plain)
    assert all(trip in view for trip in plain)
    stranger = Triplet.make(min(m.universe.variables), "stranger")
    assert None not in view and "x" not in view and stranger not in view
    ordered = sorted(plain, key=Triplet.sort_key)
    some = frozenset(ordered[::3])
    # larger than the view, yet missing one of its members
    larger = frozenset(ordered[1:]) | {stranger, Triplet.make("stranger", ())}
    for other in (frozenset(), some, some | {stranger}, plain | {stranger}, larger):
        for op in ("__sub__", "__or__", "__and__", "__le__", "__ge__", "__lt__", "__gt__",
                   "__eq__"):
            assert getattr(view, op)(other) == getattr(plain, op)(other), (op, other)
        assert other - view == other - plain and other | view == other | plain
        assert other & view == other & plain
        assert (other <= view) == (other <= plain) and (other >= view) == (other >= plain)
        assert (other == view) == (other == plain)
        assert type(view - other) is type(view | other) is type(view & other) is frozenset
    rebuilt = DependencyModel(m.universe, plain)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert rebuilt.triplets.masks == view.masks
    assert json.dumps(rebuilt.to_json_dict()) == json.dumps(m.to_json_dict())
    assert DependencyModel.from_json_dict(m.to_json_dict()) == m


def test_a_model_past_the_closure_bound_constructs_and_serializes():
    data = {
        "variables": [f"u{i}" for i in range(12)],
        "triplets": [{"x": [], "y": ["u7"], "z": []}, {"x": ["u1"], "y": ["u11"], "z": ["u10", "u3"]}],
    }
    m = DependencyModel.from_json_dict(data)
    assert m.to_json_dict() == data
    assert Triplet.make("u11", "u1", {"u3", "u10"}) not in m.triplets
    assert Triplet.make("u1", "u11", {"u3", "u10"}) in m.triplets
    with pytest.raises(UniverseTooLarge, match="^12 variables exceed the bound of 8$"):
        graphoid_closure(m)
    with pytest.raises(UniverseTooLarge, match="^12 variables exceed the bound of 8$"):
        check_graphoid_axioms(m)


def test_an_unknown_name_in_a_model_is_named_in_the_message():
    for triplets in ([t("x", "q"), t("b", "a")], (t("b", "a"), t("x", "q"))):
        with pytest.raises(UnknownVariable, match="^unknown variable: a, b, q$"):
            model(*triplets)
        with pytest.raises(UnknownVariable, match="^unknown variable: a, b, q$"):
            DependencyModel.of(Universe.binary("x", "y", "w"), iter(triplets))


def assert_oracle_answers_closure_membership(m):
    closed = graphoid_closure(m).triplets
    oracle = CiOracle(m)
    for x, y, z in iter_disjoint_triples(m.universe.variables):
        assert oracle.ci(x, y, z) == (Triplet(x, y, z) in closed), (x, y, z)
        assert oracle.ci(y, x, z) == (Triplet(y, x, z) in closed), (y, x, z)
    a, b = sorted(m.universe.variables)[:2]
    for x, y, z in [({a}, {a, b}, ()), ({a}, (), {a}), ({a}, {b}, {b}), ({a}, {"nope"}, ())]:
        with pytest.raises(InvalidSets):
            oracle.ci(x, y, z)


@pytest.mark.parametrize("n", range(2, 8))
def test_model_oracle_answers_dense_closure_membership(n):
    dense = dense_model(n)
    # Reversed, the universe order differs from sorted name order.
    universe = Universe.binary(*reversed(dense.universe.variables))
    assert_oracle_answers_closure_membership(DependencyModel(universe, dense.triplets))


@pytest.mark.parametrize("n, count", [(4, 12), (5, 6), (6, 3)])
def test_model_oracle_answers_sparse_closure_membership(n, count):
    for m in seeded_sparse_models(n, count):
        assert m.universe.variables != tuple(sorted(m.universe.variables))
        assert_oracle_answers_closure_membership(m)


def reference_subsets(names):
    pool = sorted(names)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            yield frozenset(combo)


def reference_subsets_lex(names):
    pool = sorted(names)

    def gen(prefix, start):
        yield frozenset(prefix)
        for i in range(start, len(pool)):
            prefix.append(pool[i])
            yield from gen(prefix, i + 1)
            prefix.pop()

    return gen([], 0)


def size_lex_submask_sets(names):
    """Every subset of ``names`` in the order the package's mask scans visit
    them (``_size_lex_submasks``)."""
    sets = by_mask(names)
    return [sets[mask] for mask in _size_lex_submasks(len(sets) - 1)]


def lex_submask_sets(names):
    """Every subset of ``names`` in lexicographic order of its sorted tuple,
    as the package's mask sweeps visit them (``_lex_submasks``)."""
    sets = by_mask(names)
    return [sets[mask] for mask in _lex_submasks(len(sets) - 1)]


def reference_disjoint_triples(names):
    pool = sorted(names)
    for codes in itertools.product((0, 1, 2, 3), repeat=len(pool)):
        x = frozenset(n for n, c in zip(pool, codes) if c == 1)
        y = frozenset(n for n, c in zip(pool, codes) if c == 2)
        z = frozenset(n for n, c in zip(pool, codes) if c == 3)
        yield x, y, z


def shuffled_names(n):
    names = [f"v{i}" for i in range(n)]
    random.Random(n).shuffle(names)
    return names


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize(
    "fast, reference",
    [
        (subsets, reference_subsets),
        (size_lex_submask_sets, reference_subsets),
        (lex_submask_sets, reference_subsets_lex),
        (iter_disjoint_triples, reference_disjoint_triples),
    ],
)
def test_subset_orders_match_the_reference_generators(n, fast, reference):
    names = shuffled_names(n)
    assert list(fast(names)) == list(reference(names))


@pytest.mark.parametrize("n", range(7))
def test_label_blocks_group_names_by_code(n):
    pool = sorted(shuffled_names(n))
    sets = Universe.binary(*reversed(pool)).sets
    assert sets.names == tuple(pool)
    # one shared VariableSets per sorted name tuple, whatever the listing order
    assert sets is Universe.binary(*pool).sets is variable_sets(shuffled_names(n))
    assert sets.bit == {v: 1 << i for i, v in enumerate(pool)}
    for mask in range(1 << n):
        names = sets.tuple_of(mask)
        assert names == tuple(v for v in pool if mask & sets.bit[v])
        assert sets.set_of(mask) == frozenset(names)
        assert sum(sets.bit[v] for v in sets.set_of(mask)) == mask
        # each set and tuple is built once
        assert sets.set_of(mask) is sets.set_of(mask)
        assert sets.tuple_of(mask) is names
    for codes in itertools.product(range(3), repeat=n):
        expected = [frozenset(v for v, c in zip(pool, codes) if c == k) for k in range(3)]
        assert label_blocks(sets, codes, 3) == expected
