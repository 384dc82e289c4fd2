import inspect
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locglob as lg
from locglob.errors import ResourceLimitError, ValidationError
from locglob.oracle import all_topologies, connected_by_partition
from locglob.spaces import MAX_OPENS, blocks

from conftest import subsets


def test_space_requires_empty_and_full():
    with pytest.raises(ValidationError):
        lg.FiniteSpace(frozenset({"1"}), frozenset({frozenset({"1"})}))
    with pytest.raises(ValidationError):
        lg.FiniteSpace(frozenset({"1"}), frozenset({frozenset()}))


def test_space_rejects_union_gap():
    # {1}, {2} present but {1, 2} missing from a 3-point space
    opens = frozenset({frozenset(), frozenset({"1"}), frozenset({"2"}),
                       frozenset({"1", "2", "3"})})
    with pytest.raises(ValidationError, match="union"):
        lg.FiniteSpace(frozenset({"1", "2", "3"}), opens)


def test_space_rejects_intersection_gap():
    # {1, 2} and {2, 3} are closed under union but meet in the missing {2}
    opens = frozenset({frozenset(), frozenset({"1", "2"}),
                       frozenset({"2", "3"}), frozenset({"1", "2", "3"})})
    with pytest.raises(ValidationError, match="intersection"):
        lg.FiniteSpace(frozenset({"1", "2", "3"}), opens)


def test_space_from_basis_names_unknown_label():
    with pytest.raises(ValidationError, match="'3'"):
        lg.space_from_basis({"1", "2"}, [{"1", "3"}])


def test_minimal_opens_sierpinski(sp_sier):
    assert sp_sier.minimal_open("1") == frozenset({"1", "2"})
    assert sp_sier.minimal_open("2") == frozenset({"2"})
    assert sp_sier.is_open({"2"})
    assert not sp_sier.is_open({"1"})


def test_minimal_open_is_intersection_of_opens():
    # independent recomputation straight from the definition
    for space in all_topologies(3):
        for x in space.points:
            containing = [o for o in space.opens if x in o]
            expected = frozenset.intersection(*containing)
            assert space.minimal_open(x) == expected


def test_openness_matches_upward_closure_oracle():
    # a set is open exactly when it contains the minimal open of each
    # of its members
    for space in all_topologies(3):
        points = sorted(space.points)
        for k in range(len(points) + 1):
            for combo in itertools.combinations(points, k):
                subset = frozenset(combo)
                expected = all(space.minimal_open(x) <= subset
                               for x in subset)
                assert space.is_open(subset) == expected


def test_enumerate_opens_is_sorted_and_complete(sp_sier):
    opens = lg.enumerate_opens(sp_sier)
    assert opens == sorted(opens, key=lambda s: (len(s), sorted(s)))
    assert frozenset(opens) == sp_sier.opens


def test_connected_components_examples(sp_disc2, sp_sier, sp_nc):
    assert lg.connected_components(sp_disc2, sp_disc2.points) == frozenset(
        {frozenset({"1"}), frozenset({"2"})})
    assert lg.connected_components(sp_sier, sp_sier.points) == frozenset(
        {frozenset({"1", "2"})})
    assert lg.connected_components(sp_nc, sp_nc.points) == frozenset(
        {sp_nc.points})
    assert lg.connected_components(sp_nc, {"p", "q"}) == frozenset(
        {frozenset({"p"}), frozenset({"q"})})


def test_connectivity_agrees_with_partition_search(sp_nc):
    for space in all_topologies(3) + [sp_nc]:
        points = sorted(space.points, key=str)
        for k in range(len(points) + 1):
            for combo in itertools.combinations(points, k):
                subset = frozenset(combo)
                graph = len(lg.connected_components(space, subset)) <= 1
                assert graph == connected_by_partition(space, subset)


def test_relative_openness(sp_sier, sp_nc):
    assert lg.relative_openness(sp_sier, {"2"}, {"1", "2"}) == (True, False)
    assert lg.relative_openness(sp_sier, {"1"}, {"1", "2"}) == (False, True)
    # {p} inside {p, q, r}: singleton opens make it clopen
    assert lg.relative_openness(sp_nc, {"p"}, {"p", "q", "r"}) == (True, True)
    assert lg.relative_openness(sp_sier, {"1"}, {"1"}) == (True, True)
    with pytest.raises(ValidationError):
        lg.relative_openness(sp_sier, {"1", "2"}, {"1"})


def test_generate_topology_refines(sp_sier):
    finer = lg.generate_topology(sp_sier, [{"1"}])
    assert finer.is_open({"1"})
    assert finer.minimal_open("1") < sp_sier.minimal_open("1")
    assert finer.minimal_open("2") == sp_sier.minimal_open("2")


def test_subspace(sp_nc):
    sub = lg.subspace(sp_nc, {"x", "p", "q"})
    assert sub.points == frozenset({"x", "p", "q"})
    assert sub.is_open({"p"})
    assert sub.minimal_open("x") == frozenset({"x", "p", "q"})
    with pytest.raises(ValidationError):
        lg.subspace(sp_nc, {"x", "w"})


def test_all_topologies_counts():
    assert len(all_topologies(1)) == 1
    assert len(all_topologies(2)) == 4
    assert len(all_topologies(3)) == 29
    assert len(all_topologies(4)) == 355
    with pytest.raises(ResourceLimitError):
        all_topologies(5)


def _is_pairwise_topology(points, family) -> bool:
    """The definition: the empty and full sets, and closure under
    pairwise union and intersection."""
    return (frozenset() in family and points in family
            and all(a | b in family and a & b in family
                    for a, b in itertools.combinations(family, 2)))


def _constructor_accepts(points, family) -> bool:
    try:
        space = lg.FiniteSpace(points, family)
    except ValidationError:
        return False
    assert space.opens == family
    return True


def test_constructor_check_matches_pairwise_definition_exhaustively():
    # every family of subsets of at most 3 points
    for n in range(4):
        points = frozenset(str(i) for i in range(n))
        candidates = subsets(points)
        for bits in itertools.product((False, True), repeat=len(candidates)):
            family = frozenset(s for s, bit in zip(candidates, bits) if bit)
            assert (_constructor_accepts(points, family)
                    == _is_pairwise_topology(points, family))


@st.composite
def families(draw):
    points = frozenset(str(i) for i in range(draw(st.integers(1, 4))))
    family = set(draw(st.sets(st.sampled_from(subsets(points)))))
    # bias towards near-topologies, where the interesting rejections are
    if draw(st.booleans()):
        family |= {frozenset(), points}
    return points, frozenset(family)


@settings(max_examples=300, deadline=None)
@given(families())
def test_constructor_check_matches_pairwise_definition(case):
    points, family = case
    assert (_constructor_accepts(points, family)
            == _is_pairwise_topology(points, family))


def test_large_discrete_space_answers_without_listing_opens():
    # 2^40 opens: everything but the open family itself is immediate
    points = [f"p{i:02d}" for i in range(40)]
    space = lg.space_from_basis(points, [[x] for x in points])
    assert all(space.minimal_open(x) == {x} for x in points)
    assert space.is_open(points[:20])
    assert not space.is_open(points[:20] + ["q"])
    sub = lg.subspace(space, points[:30])
    assert sub.minimal_open("p00") == {"p00"}
    assert lg.relative_openness(space, points[:7], points[:30]) == (True, True)
    assert len(lg.connected_components(space, space.points)) == 40
    with pytest.raises(ResourceLimitError, match=str(MAX_OPENS)):
        space.opens


def _line_runs(func, marker, call) -> int:
    """Call `call()` and count the runs of the line of `func` whose text
    holds `marker`, tracing `func`'s own frames only."""
    lines, first = inspect.getsourcelines(func)
    target = first + next(i for i, line in enumerate(lines) if marker in line)
    runs = 0

    def in_func(frame, event, arg):
        nonlocal runs
        runs += event == "line" and frame.f_lineno == target
        return in_func

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 in_func if frame.f_code is func.__code__ else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return runs


def test_open_listing_stops_as_soon_as_it_passes_the_bound(monkeypatch):
    # a 6-point discrete space has 64 opens; with a bound of 40 the
    # listing must stop at the 41st set, not after the doubling to 64
    monkeypatch.setattr(lg.spaces, "MAX_OPENS", 40)
    space = lg.space_from_basis("abcdef", [[x] for x in "abcdef"])

    def listing():
        with pytest.raises(ResourceLimitError, match="more than 40 open sets"):
            lg.count_opens(space)

    masks = lg.FiniteSpace._open_masks.func  # the cached_property's body
    assert _line_runs(masks, "family.add(o | m)", listing) == 40


def test_listing_stops_exactly_past_max_opens():
    points = [f"p{i:02d}" for i in range(17)]
    sixteen = lg.space_from_basis(points[:16], [[x] for x in points[:16]])
    assert lg.count_opens(sixteen) == MAX_OPENS == 65536
    seventeen = lg.space_from_basis(points, [[x] for x in points])
    with pytest.raises(ResourceLimitError,
                       match="^more than 65536 open sets, too many to list$"):
        lg.count_opens(seventeen)


def _blocks_by_search(items, pairs) -> frozenset:
    """Definitional twin of `blocks`: the items reachable from each item
    along the pairs, taken both ways, by a plain depth-first search."""
    neighbours = {x: set() for x in items}
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    parts, seen = set(), set()
    for x in items:
        if x in seen:
            continue
        part, todo = set(), [x]
        while todo:
            y = todo.pop()
            if y not in part:
                part.add(y)
                todo.extend(neighbours[y])
        seen |= part
        parts.add(frozenset(part))
    return frozenset(parts)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(range(n)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n) if n else st.just([]))))
def test_blocks_match_search_partition(case):
    items, pairs = case
    assert blocks(items, pairs) == _blocks_by_search(items, pairs)
