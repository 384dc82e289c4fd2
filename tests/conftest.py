import functools
import itertools
import math
import pathlib

import pytest

import locglob as lg
from locglob.errors import ResourceLimitError
from locglob.groupoids import _generated_components
from locglob.oracle import (close_family, component_clopenness_by_scan,
                            cover_restrictions_by_scan, glob_by_refinements,
                            glob_by_subgroupoid_defn,
                            local_connectivity_by_scan,
                            restriction_global_coherence_by_scan,
                            totally_coherent_by_scan)
from locglob.spaces import (_minimal_cover, connected_components,
                            sorted_labels, sorted_sets)

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"

NC_POINTS = frozenset({"x", "y", "z", "p", "q", "r"})
NC_BASIS = [{"x", "p", "q"}, {"y", "p", "r"}, {"z", "r", "q"},
            {"p"}, {"q"}, {"r"}]


@pytest.fixture
def sp_disc2():
    return lg.space_from_basis({"1", "2"}, [{"1"}, {"2"}])


@pytest.fixture
def sp_ind2():
    return lg.space_from_basis({"1", "2"}, [])


@pytest.fixture
def sp_sier():
    # minimal opens: m(1) = {1, 2}, m(2) = {2}
    return lg.space_from_basis({"1", "2"}, [{"2"}])


@pytest.fixture(scope="session")
def sp_nc():
    return lg.space_from_basis(NC_POINTS, NC_BASIS)


@pytest.fixture(scope="session")
def nc_pair(sp_nc):
    return lg.pair_groupoid(sp_nc.points)


@pytest.fixture(scope="session")
def a_nc(sp_nc, nc_pair):
    c1 = lg.wide_subgroupoid(nc_pair, {"x", "p", "q"})
    c2 = lg.wide_subgroupoid(nc_pair, {"y", "p", "r"}, {"p:r", "r:p"})
    c3 = lg.wide_subgroupoid(nc_pair, {"z", "r", "q"}, {"r:q", "q:r"})
    return lg.Atlas(sp_nc, ((frozenset({"x", "p", "q"}), c1),
                            (frozenset({"y", "p", "r"}), c2),
                            (frozenset({"z", "r", "q"}), c3)))


@pytest.fixture(scope="session")
def s_nc(a_nc):
    return lg.section_from_atlas(a_nc)


_suite = functools.cache(lg.instance_suite)


@pytest.fixture(scope="session")
def suite36():
    return _suite(3, 6)


@pytest.fixture(scope="session")
def suite412():
    return _suite(4, 12)


def full_wide(parent, base):
    """Every arrow of `parent` inside `base`, as a wide subgroupoid."""
    return lg.wide_subgroupoid(parent, base,
                               parent.arrows_within(parent.arrow_ids, base))


def germ_families(inst, max_families):
    """Definitional twin of the suite generator: every choice of one wide
    subgroupoid over each m(x) that the validating `LocalSubgroupoid`
    accepts; None when there are more than `max_families` choices."""
    space, g = inst.space, inst.groupoid
    points = sorted_labels(space.points)
    options = [lg.enumerate_wide_subgroupoids(g, space.minimal_open(x))
               for x in points]
    if math.prod(map(len, options)) > max_families:
        return None
    families = set()
    for choice in itertools.product(*options):
        germs = {x: lg.Germ(x, k) for x, k in zip(points, choice)}
        try:
            families.add(lg.LocalSubgroupoid(space, g, germs))
        except lg.ValidationError:
            continue
    return families


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / name)


def subsets(points) -> list:
    """Every subset of `points`, by size, then by sorted labels."""
    labels = sorted(points)
    return [frozenset(c) for k in range(len(labels) + 1)
            for c in itertools.combinations(labels, k)]


def assert_listing_matches_closed_family(space):
    """The mask listing of `spaces` against its twin: the topology closed
    straight from its definition, then sorted by `set_key`."""
    family = sorted_sets(close_family(
        space.points, [space.minimal_open(x) for x in space.points]))
    assert lg.open_label_lists(space) == [sorted_labels(o) for o in family]
    assert lg.enumerate_opens(space) == family
    assert lg.count_opens(space) == len(family)


def refinement_options(atlas) -> list:
    """For each point x in sorted order, the distinct arrow sets of the
    pieces H_i|V of a point-indexed refinement: a chart (U_i, H_i) with
    x in U_i and an open V with x in V <= U_i."""
    space = atlas.space
    return [{lg.restrict_wide(sub, v).arrows
             for open_set, sub in atlas.charts if x in open_set
             for v in space.opens if x in v and v <= open_set}
            for x in sorted(space.points, key=str)]


def glob_by_refinement_product(section, atlas):
    """Product-loop twin of `glob_by_refinements`: walk every point-
    indexed family of pieces, generate the subgroupoid of each family's
    union, and intersect them all."""
    space = section.space
    closed = {}
    for choice in itertools.product(*refinement_options(atlas)):
        seed = frozenset().union(*choice)
        if seed not in closed:
            closed[seed] = lg.generate_wide(section.parent, space.points,
                                            seed).arrows
    return lg.WideSubgroupoid(section.parent, space.points,
                              frozenset.intersection(*closed.values()))


def random_open_cover(space, rng) -> list:
    """Nonempty opens drawn at random, then a random open for each point
    they leave uncovered."""
    opens = [o for o in lg.enumerate_opens(space) if o]
    cover = [o for o in opens if rng.random() < 0.25]
    for x in sorted(space.points, key=str):
        if not any(x in o for o in cover):
            cover.append(rng.choice([o for o in opens if x in o]))
    return cover


# The twin table. A case is (section, atlas, wide, cover): `atlas`
# defines `section`, `wide` is a wide subgroupoid H over the space and
# `cover` a list of opens; a row reads what it needs. Each row runs a
# fast path and its oracle twin on one case, asserts that they agree and
# returns their shared flag (True where they agree on a value).


def _on_restrictions(check):
    """A row running `check` on the section and its cover restrictions."""
    return lambda case: all([check(s) for s in [case[0]] + [
        lg.restrict_section(case[0], v) for v in case[3] or ()]])


def _first_chart(case):
    """`section_from_atlas` against the germ of the first chart holding
    each point, assembled by the validating public constructor."""
    atlas, space = case[1], case[1].space
    germs = {x: lg.germ_at(space, next(h for u, h in atlas.charts if x in u),
                           x) for x in space.points}
    assert lg.section_from_atlas(atlas) == lg.LocalSubgroupoid(
        space, atlas.parent, germs)
    return True


def _total_coherence(section):
    """`is_totally_coherent` against the open-by-open scan."""
    scanned = totally_coherent_by_scan(section)
    assert lg.is_totally_coherent(section) == scanned
    return scanned[0]


def _is_first_failure(section, regions, failing, holds) -> bool:
    """`failing` is the first of `regions`, in order, on which the
    section's restriction fails `holds`."""
    regions = list(map(frozenset, regions))
    return [v for v in regions[:regions.index(failing) + 1]
            if not holds(lg.restrict_section(section, v))] == [failing]


def _globally_coherent(section) -> bool:
    return lg.coherence_report(section).globally_coherent


def _restriction(section):
    """The restriction-global-coherence conclusion, answered by a lemma,
    against the open-by-open scan."""
    space = section.space
    first, _ = lg.verify_restriction_coherence(section, _minimal_cover(space))
    flag, failing = restriction_global_coherence_by_scan(section)
    assert first.conclusion_holds == flag
    assert first.counterexample is None
    assert (failing is None) == flag
    if not flag:
        assert _is_first_failure(section, lg.enumerate_opens(space), failing,
                                 _globally_coherent)
    return flag


def _cover_scan(case):
    """The restriction-total-coherence hypothesis, which settles each
    cover member that is some m(x) by a lemma, against the member-by-
    member scan. A failing member is never some m(x)."""
    section, _, _, cover = case
    _, second = lg.verify_restriction_coherence(section, cover)
    flag, failing = cover_restrictions_by_scan(section, cover)
    assert second.hypothesis_holds == flag
    assert second.status == ("pass" if flag else "vacuous")
    assert (failing is None) == flag
    if not flag:
        assert failing not in _minimal_cover(section.space)
        assert _is_first_failure(
            section, cover, failing, lambda restricted: (
                _globally_coherent(restricted)
                and totally_coherent_by_scan(restricted)[0]))
    return flag


# past this many point-indexed families the product twin is too slow;
# no suite section has more than 64
PRODUCT_TWIN_CAP = 4096


def _fold(case):
    """The refinement oracle's fold by distinct unions against its
    product loop, where that is short enough, and against `glob`."""
    section, atlas, _, _ = case
    folded = glob_by_refinements(section, atlas)
    if math.prod(map(len, refinement_options(atlas))) <= PRODUCT_TWIN_CAP:
        assert folded == glob_by_refinement_product(section, atlas)
    assert folded == lg.glob(section)
    return True


def _generator_components(case):
    """The components that the foliation and clopenness checkers read
    off generators, against `transitivity_components` of the closed
    subgroupoid: glob(s) from the germ representatives, and K from the
    restrictions of H to the cover members."""
    section, atlas, wide, cover = case
    space, g = section.space, section.parent

    def components(seed):
        closed = lg.transitivity_components(lg.generate_wide(g, space.points,
                                                             seed))
        assert _generated_components(g, space.points, seed) == closed
        return closed

    reps = set().union(*(germ.rep.arrows for germ in section.germs.values()))
    report = lg.verify_foliation_components(section, atlas)
    assert report.details["transitivity_components"] == [
        sorted(c, key=str) for c in sorted_sets(components(reps))]
    seed = set().union(*(lg.restrict_wide(wide, v).arrows for v in cover))
    report = lg.verify_component_clopenness(lg.loc(space, wide), wide, cover)
    assert report.details["components_checked"] == len(components(seed))
    return True


def _forward(case):
    """The connectivity checker's `equals_globalisation`, which the
    forward lemma answers when every component is connected, against
    glob(loc(H)) == H from the definition oracle, or, where its arrow
    bound stops it, from the refinement oracle over the canonical atlas
    of loc(H), one chart (m(x), rep(x)) per distinct m(x). Neither
    oracle calls `glob`."""
    section, _, wide, _ = case
    forward, converse = lg.verify_connectivity_globalization(section.space,
                                                             wide)
    germs = lg.loc(section.space, wide)
    try:
        recomputed = glob_by_subgroupoid_defn(germs)
    except ResourceLimitError:
        recomputed = glob_by_refinements(germs, lg.canonical_atlas(germs))
    flag = forward.details["equals_globalisation"]
    assert flag == (recomputed == wide)
    assert converse.details == forward.details
    if forward.details["all_connected"]:
        assert flag
    return flag


def _clopenness(case):
    """The component-clopenness checker, which answers by a lemma,
    against its component-by-component scan on the germ section of H."""
    section, _, wide, cover = case
    germs = lg.loc(section.space, wide)
    report = lg.verify_component_clopenness(germs, wide, cover)
    flag, certificate = component_clopenness_by_scan(germs, wide, cover)
    assert report.conclusion_holds == flag
    assert report.counterexample == certificate
    return flag


def _local_connectivity(case):
    """The local-connectivity checker, which reads the components of
    each restriction of H as traces of H's own, against the search that
    restricts H to each candidate open and closes it."""
    section, _, wide, _ = case
    report = lg.verify_local_connectivity_coherence(section.space, wide)
    assert report.details == local_connectivity_by_scan(section.space, wide)
    return report.hypothesis_holds


@functools.cache
def _foliation(section, atlas):
    # both foliation rows read the checker; a suite asks it once per case
    report = lg.verify_foliation_components(section, atlas)
    leaves = [frozenset(c) for c in report.details["foliation_components"]]
    return report.conclusion_holds, leaves


def _foliation_criterion(case):
    """The foliation checker's conclusion against the exact criterion of
    its docstring: every transitivity component of every rep(x) lies in
    one connected component of the foliated space."""
    section, atlas, _, _ = case
    holds, leaves = _foliation(section, atlas)
    criterion = all(any(c <= leaf for leaf in leaves)
                    for germ in section.germs.values()
                    for c in lg.transitivity_components(germ.rep))
    assert holds == criterion
    return criterion


def _connected_charts_pass(case):
    """The foliation theorem: when every transitivity component of every
    chart is connected in the space, the checker passes."""
    section, atlas, _, _ = case
    connected = all(len(connected_components(atlas.space, c)) == 1
                    for _, sub in atlas.charts
                    for c in lg.transitivity_components(sub))
    if connected:
        assert _foliation(section, atlas)[0]
    return connected


ROWS = {
    "first-chart": _first_chart,
    "total-coherence": _on_restrictions(_total_coherence),
    "restriction": _on_restrictions(_restriction),
    "cover-scan": _cover_scan,
    "fold": _fold,
    "generator-components": _generator_components,
    "forward": _forward,
    "clopenness": _clopenness,
    "local-connectivity": _local_connectivity,
    "foliation-criterion": _foliation_criterion,
    "connected-charts-pass": _connected_charts_pass,
}

# named choices of H, each a list for one (section, atlas); the sections
# of a suite instance are all its germ families, so "every" splits the
# instance's wide subgroupoids among its sections
WIDES = {
    "glob": lambda section, atlas: [lg.glob(section)],
    "full": lambda section, atlas: [full_wide(section.parent,
                                              section.space.points)],
    "single-chart": lambda section, atlas: (
        [atlas.charts[0][1]] if len(atlas.charts) == 1 else []),
    "charts": lambda section, atlas: [lg.generate_wide(
        atlas.parent, section.space.points,
        set().union(*(sub.arrows for _, sub in atlas.charts)))],
    "every": lambda section, atlas: [
        h for h in lg.enumerate_wide_subgroupoids(section.parent,
                                                  section.space.points)
        if lg.loc(section.space, h) == section],
}

# named choices of one open cover
COVERS = {
    "minimal": lambda space, atlas, rng: _minimal_cover(space),
    "whole": lambda space, atlas, rng: [space.points],
    "charts": lambda space, atlas, rng: [u for u, _ in atlas.charts],
    "random": lambda space, atlas, rng: random_open_cover(space, rng),
}


def _nc_fixture() -> list:
    atlas = lg.load_instance(fixture_path("nc_pair_atlas.json")).atlas
    return [(lg.section_from_atlas(atlas), atlas)]


# named input sets, each a list of (section, atlas)
INPUT_SETS = {
    "3,6": lambda: [(s, a) for _, s, a in _suite(3, 6).iter_sections()],
    "4,12": lambda: [(s, a) for _, s, a in _suite(4, 12).iter_sections()],
    "4,12-not-globally-coherent": lambda: [
        (section, atlas) for section, atlas in cases("4,12")
        if not lg.coherence_report(section).globally_coherent],
    "nc": _nc_fixture,
}


@functools.cache
def cases(input_set: str) -> list:
    """The items of a named input set, built once per session."""
    return INPUT_SETS[input_set]()


def walk(row: str, items, wides=(), covers=(), rng=None) -> list:
    """Run a row on every case of `items` and return its flags. For
    each (section, atlas) the named covers are drawn first, in order,
    then each named choice of H meets each cover. No name means None."""
    flags = []
    for section, atlas in items:
        drawn = [COVERS[c](section.space, atlas, rng) for c in covers]
        hs = [h for w in wides for h in WIDES[w](section, atlas)]
        flags += [ROWS[row]((section, atlas, h, cover))
                  for h in (hs if wides else [None])
                  for cover in drawn or [None]]
    return flags


NGC = "4,12-not-globally-coherent"
RANDOM3 = ("random",) * 3

# (row, input set, H choices, cover choices, seed of the random covers,
# expected (cases, true flags)); `test_oracle.py` walks each line, and
# `test_trusted.py` runs each row on random atlases
PAIRS = [
    ("first-chart", "3,6", (), (), None, (369, 369)),
    ("total-coherence", "3,6", (), ("minimal",), None, (369, 369)),
    ("restriction", "3,6", (), (), None, (369, 369)),
    ("restriction", NGC, (), (), None, (72, 0)),
    ("restriction", "nc", (), (), None, (1, 0)),
    ("cover-scan", "3,6", (), ("minimal",), None, (369, 369)),
    ("cover-scan", "3,6", (), ("whole",) + RANDOM3, 1, (1476, 1476)),
    ("cover-scan", NGC, (), ("minimal",), None, (72, 72)),
    ("cover-scan", "nc", (), ("minimal", "whole"), None, (2, 1)),
    ("fold", "3,6", (), (), None, (369, 369)),
    ("fold", NGC, (), (), None, (72, 72)),
    ("generator-components", "3,6", ("glob",), ("minimal", "charts"), None,
     (738, 738)),
    ("generator-components", NGC, ("glob", "full"), ("minimal",), None,
     (144, 144)),
    # 3 of the 369 H with H = glob(loc(H)) have a disconnected component
    ("forward", "3,6", ("every",), (), None, (404, 369)),
    ("forward", "4,12", ("glob",), (), None, (9753, 9753)),
    ("clopenness", "3,6", ("glob",), ("minimal",) + RANDOM3, 0, (1476, 1476)),
    ("clopenness", "4,12", ("glob",), ("minimal",), None, (9753, 9753)),
    ("clopenness", "4,12", ("single-chart",), ("minimal",), None,
     (9681, 9681)),
    ("clopenness", "nc", ("glob", "full"),
     ("charts", "minimal") + ("random",) * 20, 0, (44, 44)),
    ("local-connectivity", "3,6", ("glob",), (), None, (369, 366)),
    ("local-connectivity", "3,6", ("every",), (), None, (404, 401)),
    ("local-connectivity", "4,12", ("glob",), (), None, (9753, 9404)),
    ("local-connectivity", "nc", ("glob", "full"), (), None, (2, 1)),
    ("foliation-criterion", "3,6", (), (), None, (369, 366)),
    ("foliation-criterion", "4,12", (), (), None, (9753, 9380)),
    ("foliation-criterion", "nc", (), (), None, (1, 0)),
    ("connected-charts-pass", "3,6", (), (), None, (369, 366)),
    ("connected-charts-pass", "4,12", (), (), None, (9753, 9380)),
    ("connected-charts-pass", "nc", (), (), None, (1, 0)),
]


def _choice_id(names) -> str:
    runs = [(n, len(list(g))) for n, g in itertools.groupby(names)]
    return "+".join(n if k == 1 else f"{k}{n}" for n, k in runs)


def pair_id(pair) -> str:
    return "-".join(pair[:2] + tuple(_choice_id(c) for c in pair[2:4] if c))
