"""Values built without re-validation, rebuilt through the validating
public constructors.

Restriction, closure, intersection, `loc`, `section_from_atlas`,
`restrict_section`, `subspace` and the family-closing space builders
skip the law checks, each on the strength of a lemma. These properties
run past the 4-point cap of the generated suite: random preorders on
5 to 7 points, given by their minimal opens, with a pair groupoid or a
bundle of order-two groups and random seed arrows. Every trusted output
must pass its public constructor unchanged, and the total-coherence and
restriction lemmas must agree with their open-by-open scans. On
preorders of 5 to 8 points the minimal-neighbourhood operations of
`spaces` must agree with their explicit-family definitions in `oracle`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import locglob as lg
from locglob.oracle import (close_family, relative_openness_by_traces,
                            restriction_global_coherence_by_scan,
                            totally_coherent_by_scan)


def _up_closure(points, edges) -> dict:
    """Minimal opens of the preorder generated by `edges`: m(x) holds x
    and everything reachable from it."""
    up = {x: {x} | {b for a, b in edges if a == x} for x in points}
    grew = True
    while grew:
        grew = False
        for x in points:
            reach = set().union(*(up[y] for y in up[x]))
            if reach != up[x]:
                up[x] = reach
                grew = True
    return {x: frozenset(m) for x, m in up.items()}


@st.composite
def preorders(draw, min_points, max_points):
    """Points and minimal opens of a random preorder."""
    n = draw(st.integers(min_points, max_points))
    points = [str(i) for i in range(1, n + 1)]
    pairs = [(x, y) for x in points for y in points if x != y]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    return points, _up_closure(points, edges)


@st.composite
def instances(draw):
    points, minimal = draw(preorders(5, 7))
    space = lg.space_from_basis(points, list(minimal.values()))
    if draw(st.booleans()):
        g = lg.pair_groupoid(points)
    else:
        g = lg.group_bundle(points, {p: lg.cyclic_group(2) for p in points})
    free = sorted(g.arrow_ids - g.identity_ids)
    seed = draw(st.sets(st.sampled_from(free), max_size=4))
    region = draw(st.sets(st.sampled_from(points)))
    opens = sorted(space.opens, key=lambda o: (len(o), sorted(o)))
    some_open = draw(st.sampled_from(opens))
    extras = draw(st.lists(st.sets(st.sampled_from(points), min_size=1),
                           max_size=3))
    return space, minimal, g, seed, region, some_open, extras


def _rebuilt_space(space):
    return lg.FiniteSpace(space.points, space.opens)


def _rebuilt_wide(h):
    return lg.WideSubgroupoid(h.parent, h.base, h.arrows)


def _rebuilt_section(section):
    germs = {x: lg.Germ(x, _rebuilt_wide(germ.rep))
             for x, germ in section.germs.items()}
    return lg.LocalSubgroupoid(_rebuilt_space(section.space), section.parent,
                               germs)


def _assert_trusted_space(space):
    assert _rebuilt_space(space) == space


def _assert_trusted_wide(h):
    assert _rebuilt_wide(h) == h


def _assert_trusted_section(section):
    assert _rebuilt_section(section) == section


@settings(max_examples=100, deadline=None)
@given(instances())
def test_trusted_outputs_pass_public_validation(case):
    space, minimal, g, seed, region, some_open, extras = case
    _assert_trusted_space(space)
    assert all(space.minimal_open(x) == m for x, m in minimal.items())
    _assert_trusted_space(lg.subspace(space, region))
    finer = lg.generate_topology(space, extras)
    _assert_trusted_space(finer)
    assert lg.is_finer(finer, space)

    h = lg.generate_wide(g, space.points, seed)
    _assert_trusted_wide(h)
    assert seed <= h.arrows
    _assert_trusted_wide(lg.restrict_wide(h, region))
    _assert_trusted_wide(lg.intersect_wide([h, lg.glob(lg.loc(space, h))]))

    section = lg.loc(space, h)
    _assert_trusted_section(section)
    assembled = lg.section_from_atlas(lg.canonical_atlas(section))
    _assert_trusted_section(assembled)
    assert assembled == section
    _assert_trusted_section(lg.restrict_section(section, some_open))
    for x in space.points:
        _assert_trusted_section(
            lg.restrict_section(section, space.minimal_open(x)))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_total_coherence_lemma_matches_scan_past_the_cap(case):
    space, _, g, seed, _, some_open, _ = case
    section = lg.loc(space, lg.generate_wide(g, space.points, seed))
    for s in (section, lg.restrict_section(section, some_open)):
        assert lg.is_totally_coherent(s) == totally_coherent_by_scan(s)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_restriction_lemma_matches_scan_past_the_cap(case):
    space, _, g, seed, _, some_open, _ = case
    section = lg.loc(space, lg.generate_wide(g, space.points, seed))
    for s in (section, lg.restrict_section(section, some_open)):
        cover = [s.space.minimal_open(x) for x in s.space.points]
        first, _ = lg.verify_restriction_coherence(s, cover)
        flag, _ = restriction_global_coherence_by_scan(s)
        assert first.conclusion_holds == flag
        assert first.counterexample is None


@st.composite
def spaces_with_subsets(draw):
    points, minimal = draw(preorders(5, 8))
    subset = st.sets(st.sampled_from(points))
    extras = draw(st.lists(subset, max_size=3))
    whole = draw(subset)
    part = draw(st.sets(st.sampled_from(sorted(whole)))) if whole else set()
    return points, minimal, extras, whole, part


@settings(max_examples=60, deadline=None)
@given(spaces_with_subsets())
def test_space_operations_match_explicit_families(case):
    points, minimal, extras, whole, part = case
    space = lg.space_from_basis(points, list(minimal.values()))
    family = close_family(points, minimal.values())
    assert space.opens == family
    assert space == lg.FiniteSpace(points, family)
    finer = lg.generate_topology(space, extras)
    assert finer.opens == close_family(points, set(family) | {
        frozenset(e) for e in extras})
    assert lg.is_finer(finer, space)
    assert lg.is_finer(space, finer) == (finer.opens <= family)
    region = frozenset(whole)
    assert lg.subspace(space, region).opens == frozenset(
        o & region for o in family)
    assert (lg.relative_openness(space, part, whole)
            == relative_openness_by_traces(space, part, whole))
