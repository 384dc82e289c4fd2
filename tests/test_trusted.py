"""Values built without re-validation, rebuilt through the validating
public constructors, and the rows of the twin table in `conftest.py` on
random inputs.

Restriction, closure, intersection, `loc`, `section_from_atlas`,
`restrict_section`, `subspace` and the family-closing space builders
skip the law checks, each on the strength of a lemma. These properties
run past the 4-point cap of the generated suite: random preorders on
5 to 7 points, given by their minimal opens, with random seed arrows in
the pair groupoid, a bundle of order-two groups, the pair groupoid times
Z/2 or an equivalence relation times Z/3. Every trusted output must pass
its public constructor unchanged, and the total-coherence and
restriction rows run on its sections. Sections of `loc(H)` are always
globally coherent, so every row also runs on sections of random
multi-chart atlases, which reach sections that are not. On preorders of
5 to 8 points the minimal-neighbourhood operations of `spaces` must
agree with their explicit-family definitions in `oracle`, and on
bundles of order-two groups over 5 to 7 points the wide subgroupoids
over each m(x) must be the restrictions of those over the whole space,
the extension lemma of the suite generator.
"""

from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

import locglob as lg
from locglob.oracle import close_family, relative_openness_by_traces
from locglob.spaces import set_key

from conftest import ROWS, walk


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
def height_one_posets(draw, min_points, max_points):
    """Points and minimal opens of a poset of height one: each upper
    point lies above two or more of the minimal points."""
    n = draw(st.integers(min_points, max_points))
    points = [str(i) for i in range(1, n + 1)]
    k = draw(st.integers(2, n - 1))
    lower = points[:k]
    minimal = {x: frozenset({x}) for x in lower}
    for x in points[k:]:
        minimal[x] = frozenset({x}) | draw(
            st.sets(st.sampled_from(lower), min_size=2))
    return points, minimal


def _groupoids(draw, points):
    """The Z/2 bundle half of the time, else the pair groupoid, the pair
    groupoid times Z/2 or a random equivalence relation times Z/3. The
    last two have vertex groups and non-loop arrows, so two arrows can
    share two distinct ends."""
    if draw(st.booleans()):
        return lg.group_bundle(points, {p: lg.cyclic_group(2) for p in points})
    pair = lg.pair_groupoid(points)
    kind = draw(st.sampled_from(["pair", "pair-z2", "rel-z3"]))
    if kind == "pair":
        return pair
    if kind == "pair-z2":
        return lg.rel_times_group(lg.full_wide(pair, points),
                                  lg.cyclic_group(2))
    free = sorted(pair.arrow_ids - pair.identity_ids)
    links = draw(st.sets(st.sampled_from(free), max_size=len(points)))
    return lg.rel_times_group(lg.generate_wide(pair, points, links),
                              lg.cyclic_group(3))


@st.composite
def atlases(draw):
    """A consistent atlas of random chart subgroupoids on a random open
    cover, on a random preorder or a height-one poset of 5 to 7 points;
    charts that induce different germs somewhere are rejected. Two upper
    points of a height-one poset over the same two minimal points, with
    only one chart joining those two, give a section that is not
    globally coherent."""
    points, minimal = draw(st.one_of(preorders(5, 7),
                                     height_one_posets(5, 7)))
    space = lg.space_from_basis(points, list(minimal.values()))
    g = _groupoids(draw, points)
    opens = sorted((o for o in space.opens if o),
                   key=lambda o: (len(o), sorted(o)))
    domains = draw(st.lists(st.sampled_from(opens), min_size=1, max_size=3,
                            unique=True))
    domains += [m for x, m in sorted(minimal.items())
                if not any(x in u for u in domains)]
    charts = []
    for u in dict.fromkeys(domains):
        free = sorted(g.arrows_within(u) - g.identity_ids)
        seed = draw(st.sets(st.sampled_from(free), max_size=2)) if free else ()
        charts.append((u, lg.generate_wide(g, u, seed)))
    try:
        return lg.Atlas(space, charts)
    except lg.AtlasConsistencyError:
        assume(False)


@st.composite
def instances(draw):
    points, minimal = draw(preorders(5, 7))
    space = lg.space_from_basis(points, list(minimal.values()))
    g = _groupoids(draw, points)
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


def _assert_trusted(value):
    rebuild = {lg.FiniteSpace: _rebuilt_space,
               lg.WideSubgroupoid: _rebuilt_wide,
               lg.LocalSubgroupoid: _rebuilt_section}[type(value)]
    assert rebuild(value) == value


@settings(max_examples=100, deadline=None)
@given(instances())
def test_trusted_outputs_pass_public_validation(case):
    space, minimal, g, seed, region, some_open, extras = case
    _assert_trusted(space)
    assert all(space.minimal_open(x) == m for x, m in minimal.items())
    _assert_trusted(lg.subspace(space, region))
    finer = lg.generate_topology(space, extras)
    _assert_trusted(finer)
    assert lg.is_finer(finer, space)

    h = lg.generate_wide(g, space.points, seed)
    _assert_trusted(h)
    assert seed <= h.arrows
    _assert_trusted(lg.restrict_wide(h, region))
    _assert_trusted(lg.intersect_wide([h, lg.glob(lg.loc(space, h))]))

    section = lg.loc(space, h)
    _assert_trusted(section)
    assembled = lg.section_from_atlas(lg.canonical_atlas(section))
    _assert_trusted(assembled)
    assert assembled == section
    _assert_trusted(lg.restrict_section(section, some_open))
    for x in space.points:
        _assert_trusted(lg.restrict_section(section, space.minimal_open(x)))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_total_coherence_lemma_matches_scan_past_the_cap(case):
    space, _, g, seed, _, some_open, _ = case
    section = lg.loc(space, lg.generate_wide(g, space.points, seed))
    ROWS["total-coherence"]((section, None, None, [some_open]))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_restriction_lemma_matches_scan_past_the_cap(case):
    space, _, g, seed, _, some_open, _ = case
    section = lg.loc(space, lg.generate_wide(g, space.points, seed))
    ROWS["restriction"]((section, None, None, [some_open]))


def _not_globally_coherent(atlas) -> bool:
    section = lg.section_from_atlas(atlas)
    return not lg.coherence_report(section).globally_coherent


def test_atlases_reach_a_section_that_is_not_globally_coherent():
    atlas = find(atlases(), _not_globally_coherent,
                 settings=settings(max_examples=500, derandomize=True,
                                   database=None, phases=[Phase.generate]))
    assert _not_globally_coherent(atlas)


def _items(atlas) -> list:
    return [(lg.section_from_atlas(atlas), atlas)]


@settings(max_examples=40, deadline=None)
@given(atlases())
def test_section_from_atlas_matches_first_chart_twin_past_the_cap(atlas):
    walk("first-chart", _items(atlas))


@settings(max_examples=40, deadline=None)
@given(atlases())
def test_restriction_lemma_matches_scan_on_atlas_sections(atlas):
    walk("restriction", _items(atlas))


@settings(max_examples=40, deadline=None)
@given(atlases(), st.randoms(use_true_random=False))
def test_minimal_cover_lemma_matches_scan_on_atlas_sections(atlas, rng):
    assert walk("cover-scan", _items(atlas), (),
                ("minimal", "whole", "random"), rng)[0]


@settings(max_examples=60, deadline=None)
@given(atlases())
def test_clopenness_lemma_matches_scan_on_atlas_sections(atlas):
    assert all(walk("clopenness", _items(atlas), ("glob",),
                    ("charts", "minimal")))


@settings(max_examples=60, deadline=None)
@given(atlases())
def test_forward_lemma_matches_oracle_on_atlas_sections(atlas):
    # H generated by every chart's arrows can hold arrows no germ holds
    walk("forward", _items(atlas), ("glob", "charts"))


@settings(max_examples=60, deadline=None)
@given(atlases())
def test_generator_components_match_closure_on_atlas_sections(atlas):
    walk("generator-components", _items(atlas), ("glob", "charts"),
         ("charts", "minimal"))


@settings(max_examples=40, deadline=None)
@given(atlases())
def test_refinement_fold_matches_product_twin_on_atlas_sections(atlas):
    walk("fold", _items(atlas))


@settings(max_examples=60, deadline=None)
@given(atlases())
def test_foliation_criterion_and_theorem_on_atlas_sections(atlas):
    # both rows on each draw, so the second reads the first's report
    items = _items(atlas)
    walk("foliation-criterion", items)
    walk("connected-charts-pass", items)


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


@settings(max_examples=40, deadline=None)
@given(preorders(5, 7))
def test_minimal_neighbourhood_subgroupoids_are_restrictions_past_the_cap(
        case):
    # lemma (E) of `oracle._build_instance`: the wide subgroupoids over
    # m(x) are the distinct restrictions of those over the whole space,
    # and sorting them by `set_key` gives the enumeration's order
    points, minimal = case
    g = lg.group_bundle(points, dict.fromkeys(points, lg.cyclic_group(2)))
    wides = lg.enumerate_wide_subgroupoids(g, points)
    for m in set(minimal.values()):
        restricted = {lg.restrict_wide(h, m).arrows for h in wides}
        assert sorted(restricted, key=set_key) == [
            k.arrows for k in lg.enumerate_wide_subgroupoids(g, m)]
