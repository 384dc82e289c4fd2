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
multi-chart atlases, which reach sections that are not. With one chart
or one germ of such an atlas redrawn, `Atlas` and `LocalSubgroupoid`
must accept, or reject with the same error, exactly as twins that
compare `Germ`s from `germ_at`. On preorders of
5 to 8 points the minimal-neighbourhood operations of `spaces` must
agree with their explicit-family definitions in `oracle`, and on
bundles of order-two groups over 5 to 7 points the wide subgroupoids
over each m(x) must be the restrictions of those over the whole space,
the extension lemma of the suite generator. That generator builds its
spaces, charts, sections and atlases unchecked too: every one is
rebuilt here, a suite must build with the four validating constructors
patched to raise, and on preorders of 5 and 6 points its sections must
be the germ families of the twin in `conftest.py`. Every value class,
however built, refuses to set or delete an attribute.
"""

import inspect
import tracemalloc

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

import locglob as lg
from locglob import oracle
from locglob.oracle import close_family, relative_openness_by_traces
from locglob.spaces import set_key

from conftest import (ROWS, assert_listing_matches_closed_family,
                      fixture_path, full_wide, germ_families, walk)


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
        return lg.rel_times_group(full_wide(pair, points),
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
        free = sorted(g.arrows_within(g.arrow_ids, u) - g.identity_ids)
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
    assert all(finer.minimal_open(x) <= m for x, m in minimal.items())

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


@settings(max_examples=60, deadline=None)
@given(atlases())
def test_local_connectivity_traces_match_scan_on_atlas_sections(atlas):
    walk("local-connectivity", _items(atlas), ("glob", "charts"))


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
def perturbed(draw):
    """An `atlases` draw with one chart or one germ redrawn over the same
    set, from one or two seed arrows inside m(x) for a point x it holds,
    preferably one that two charts hold and whose m(x) has such arrows:
    ("atlas", space, charts) or ("section", space, parent, germs)."""
    atlas = draw(atlases())
    space, g, charts = atlas.space, atlas.parent, list(atlas.charts)
    free = {x: sorted(g.arrows_within(g.arrow_ids, space.minimal_open(x))
                       - g.identity_ids)
            for x in sorted(space.points)}
    holders = {x: [i for i, (o, _) in enumerate(charts) if x in o]
               for x in free}
    shared = [x for x in free if free[x] and len(holders[x]) > 1]
    x = draw(st.sampled_from(shared or sorted(free)))

    def redrawn(region):
        seed = (draw(st.sets(st.sampled_from(free[x]), min_size=1,
                             max_size=2)) if free[x] else ())
        return lg.generate_wide(g, region, seed)

    if draw(st.booleans()):
        i = draw(st.sampled_from(holders[x]))
        charts[i] = (charts[i][0], redrawn(charts[i][0]))
        return "atlas", space, charts
    germs = dict(lg.section_from_atlas(atlas).germs)
    germs[x] = lg.Germ(x, redrawn(space.minimal_open(x)))
    return "section", space, g, germs


def _atlas_twin(space, charts):
    """(error class, message) of the first point, in sorted order, where
    two charts' germs differ as `Germ`s, or None."""
    for x in sorted(space.points):
        hits = [i for i, (o, _) in enumerate(charts) if x in o]
        first = lg.germ_at(space, charts[hits[0]][1], x)
        for j in hits[1:]:
            if lg.germ_at(space, charts[j][1], x) != first:
                return (lg.AtlasConsistencyError,
                        f"charts {hits[0]} and {j} induce different germs "
                        f"at point {x!r}")
    return None


def _gluing_twin(space, parent, germs):
    """(error class, message) of the first pair y in m(x), in sorted
    order, where rep(x)'s germ at y is not the germ stored at y."""
    for x in sorted(space.points):
        for y in sorted(space.minimal_open(x) - {x}):
            if lg.germ_at(space, germs[x].rep, y) != germs[y]:
                return (lg.ValidationError,
                        f"gluing law fails from {x!r} to {y!r}")
    return None


@settings(max_examples=80, deadline=None)
@given(perturbed())
def test_atlas_and_gluing_checks_match_their_germ_twins(case):
    # the validators compare arrow sets; the twins compare `Germ`s from
    # `germ_at`, and both name the same point and chart pair
    kind, *args = case
    build, twin = ((lg.Atlas, _atlas_twin) if kind == "atlas"
                   else (lg.LocalSubgroupoid, _gluing_twin))
    expected = twin(*args)
    try:
        build(*args)
    except lg.ValidationError as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None


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
    assert_listing_matches_closed_family(space)
    assert space == lg.FiniteSpace(points, family)
    finer = lg.generate_topology(space, extras)
    assert finer.opens == close_family(points, set(family) | {
        frozenset(e) for e in extras})
    assert all(finer.minimal_open(x) <= space.minimal_open(x)
               for x in points)
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


def test_generated_spaces_pass_the_open_family_constructor():
    # `all_topologies` keeps a relation's m(x) table iff it is transitive
    for n in range(1, 5):
        for space in lg.all_topologies(n):
            _assert_trusted(space)


def test_generated_charts_pass_the_validating_constructor(suite36, suite412):
    # lemma (E) of `oracle._build_instance`: every chart is wide and closed
    for suite in (suite36, suite412):
        charts = {id(sub): sub for _, _, atlas in suite.iter_sections()
                  for _, sub in atlas.charts}
        for sub in charts.values():
            _assert_trusted(sub)


def test_generated_atlases_pass_the_validating_constructor(suite36,
                                                          suite412):
    # lemma (C) of `oracle._build_instance`: every atlas is built by lemma,
    # and validating its charts keeps the section generated beside it
    for suite in (suite36, suite412):
        for _, section, atlas in suite.iter_sections():
            rebuilt = lg.Atlas(atlas.space, atlas.charts)
            assert rebuilt.charts == atlas.charts
            assert lg.section_from_atlas(rebuilt) == section


def test_generated_sections_pass_the_validating_constructor(suite36,
                                                            suite412):
    # lemma (C): each section is its key's germ family, which satisfies
    # the gluing law; its spaces and charts are rebuilt above
    for suite in (suite36, suite412):
        for _, section, _ in suite.iter_sections():
            assert lg.LocalSubgroupoid(section.space, section.parent,
                                       section.germs) == section


def test_suite_build_runs_no_validating_constructor(monkeypatch):
    def refuse(*args):
        raise AssertionError("validating constructor called")

    # the `_trusted` builders set their fields without calling `__init__`
    for cls in (lg.FiniteSpace, lg.WideSubgroupoid, lg.Atlas,
                lg.LocalSubgroupoid):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert len(lg.instance_suite(3, 6).instances) == 68


# choices of one wide subgroupoid per m(x) that the germ-family twin
# tries per draw; draws with more are skipped
TWIN_FAMILIES = 4096


@settings(max_examples=40, deadline=None)
@given(preorders(5, 6))
def test_generator_sections_match_germ_families_past_the_cap(case):
    # `_build_instance` past the suite's 4-point cap, where the lookup of
    # (G) and the trusted sections and atlases of (C) meet spaces no
    # suite lists: the Z/2 bundle has at most 6 non-identity arrows
    points, minimal = case
    space = lg.space_from_basis(points, list(minimal.values()))
    g = lg.group_bundle(points, dict.fromkeys(points, lg.cyclic_group(2)))
    inst = oracle._build_instance(space, g, "bundle", len(points))
    families = germ_families(inst, TWIN_FAMILIES)
    assume(families is not None)
    assert len(inst.sections) == len(families)
    assert set(inst.sections) == families
    for section, atlas in zip(inst.sections, inst.atlases):
        assert lg.section_from_atlas(lg.Atlas(space, atlas.charts)) == section


VALUE_CLASSES = (lg.Groupoid, lg.WideSubgroupoid, lg.FiniteGroup, lg.Germ,
                 lg.Atlas, lg.LocalSubgroupoid, lg.CoherenceReport,
                 lg.TheoremReport, lg.ParsedInstance, lg.Instance,
                 lg.InstanceSuite)


def _one_value_of_each_class() -> list:
    """A value of every value class and of `FiniteSpace`, from the
    validating constructors and from the `_trusted` builders."""
    parsed = lg.load_instance(fixture_path("nc_pair_atlas.json"))
    section = lg.section_from_atlas(parsed.atlas)  # trusted
    suite = lg.instance_suite(2, 2)
    space = lg.FiniteSpace({"a", "b"}, [set(), {"a"}, {"a", "b"}])
    hash(space), parsed.groupoid.arrow_ids  # two cached properties filled
    return [parsed, parsed.space, space, parsed.groupoid, parsed.atlas,
            section, lg.LocalSubgroupoid(section.space, section.parent,
                                         section.germs),
            section.germs["x"], lg.glob(section),  # trusted
            parsed.atlas.charts[0][1],  # validated
            lg.coherence_report(section), lg.cyclic_group(2),
            lg.TheoremReport("t", False, True, None), suite,
            suite.instances[0]]


def test_values_refuse_to_set_or_delete_an_attribute():
    values = _one_value_of_each_class()
    assert {type(v) for v in values} == {*VALUE_CLASSES, lg.FiniteSpace}
    for value in values:
        before = dict(vars(value))  # `cached_property` values included
        assert set(value._fields) <= set(before), type(value)
        for name in (*value._fields, *before, "unknown"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert vars(value) == before


def _bytes_kept(build) -> int:
    """Bytes held by 2,000 values from `build`, and the list of them."""
    tracemalloc.start()
    try:
        kept = [build(i) for i in range(2000)]  # alive while measured
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_values_keep_their_fields_without_a_dict():
    # a `__dict__` on every germ and restriction raised the peak memory of
    # building instance_suite(4, 12) by more than a quarter
    class PlainGerm:  # attributes set the ordinary way
        def __init__(self, at, rep):
            self.at = at
            self.rep = rep

    class PlainWide:
        def __init__(self, parent, base, arrows):
            self.parent = parent
            self.base = base
            self.arrows = arrows

    g = lg.pair_groupoid({"a"})
    base, arrows = frozenset({"a"}), frozenset(g.identity_ids)
    h = lg.WideSubgroupoid._trusted(g, base, arrows)
    assert _bytes_kept(lambda i: lg.Germ(i, h)) <= _bytes_kept(
        lambda i: PlainGerm(i, h))
    assert _bytes_kept(
        lambda i: lg.WideSubgroupoid._trusted(g, base, arrows)) <= _bytes_kept(
        lambda i: PlainWide(g, base, arrows))


def test_cached_properties_still_fill_on_first_read():
    space = lg.space_from_basis({"a", "b"}, [{"a"}, {"a", "b"}])
    g = lg.pair_groupoid(space.points)
    assert "_hash" not in vars(space) and "arrow_ids" not in vars(g)
    hash(space), g.arrow_ids
    assert "_hash" in vars(space) and "arrow_ids" in vars(g)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_constructor_takes_the_fields_repr_shows(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields
    defaults = {n: p.default for n, p in params.items()
                if p.default is not p.empty}
    assert defaults == ({"build_details": dict}
                        if cls is lg.TheoremReport else {})


def test_repr_names_each_field():
    report = lg.CoherenceReport(True, True, ())
    assert repr(report) == (
        "CoherenceReport(coherent=True, globally_coherent=True, witnesses=())")
    g = lg.pair_groupoid({"a"})
    h = lg.WideSubgroupoid(g, {"a"}, g.identity_ids)
    assert repr(lg.Germ("a", h)) == f"Germ(at='a', rep={h!r})"
    assert repr(h).startswith("WideSubgroupoid(parent=Groupoid(objects=")


def test_germs_compare_by_value_and_reports_by_identity():
    g = lg.pair_groupoid({"a", "b"})
    first = lg.WideSubgroupoid(g, {"a"}, {g.identity["a"]})
    second = lg.WideSubgroupoid._trusted(g, frozenset({"a"}),
                                         frozenset({g.identity["a"]}))
    assert first is not second and first == second
    assert lg.Germ("a", first) == lg.Germ("a", second)
    assert hash(lg.Germ("a", first)) == hash(("a", second))
    assert lg.Germ("a", first) != lg.Germ("b", first)
    assert lg.Germ("a", first).__eq__(("a", first)) is NotImplemented
    report = lg.CoherenceReport(True, True, ())
    assert report != lg.CoherenceReport(True, True, ()) and report == report
