import itertools
import pathlib

import pytest

import locglob as lg
from locglob.errors import ResourceLimitError
from locglob.groupoids import _generated_components
from locglob.oracle import (component_clopenness_by_scan,
                            cover_restrictions_by_scan,
                            glob_by_subgroupoid_defn,
                            restriction_global_coherence_by_scan)
from locglob.spaces import sorted_sets

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


@pytest.fixture(scope="session")
def suite36():
    return lg.instance_suite(3, 6)


@pytest.fixture(scope="session")
def suite412():
    return lg.instance_suite(4, 12)


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / name)


def subsets(points) -> list:
    """Every subset of `points`, by size, then by sorted labels."""
    labels = sorted(points)
    return [frozenset(c) for k in range(len(labels) + 1)
            for c in itertools.combinations(labels, k)]


def section_by_first_chart(atlas):
    """Definitional twin of `section_from_atlas`: at each point, the germ
    of the first chart holding it, assembled by the validating public
    constructor."""
    germs = {}
    for x in atlas.space.points:
        for open_set, sub in atlas.charts:
            if x in open_set:
                germs[x] = lg.germ_at(atlas.space, sub, x)
                break
    return lg.LocalSubgroupoid(atlas.space, atlas.charts[0][1].parent, germs)


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


def clopenness_twin_agrees(space, wide, cover) -> bool:
    """Run the component-clopenness checker, which answers by a lemma,
    and its component-by-component scan on the germ section of `wide`;
    assert they agree and return the scan's flag."""
    section = lg.loc(space, wide)
    report = lg.verify_component_clopenness(section, wide, cover)
    flag, certificate = component_clopenness_by_scan(section, wide, cover)
    assert report.conclusion_holds == flag
    assert report.counterexample == certificate
    return flag


def generator_components_match_closure(section, atlas, wide, cover):
    """The components that the foliation and clopenness checkers read
    off generators, against `transitivity_components` of the closed
    subgroupoid: glob(s) from the germ representatives, and K from the
    restrictions of `wide` to the cover members."""
    space, g = section.space, section.parent
    reps = set().union(*(germ.rep.arrows for germ in section.germs.values()))
    closed = lg.transitivity_components(lg.generate_wide(g, space.points,
                                                         reps))
    assert _generated_components(g, space.points, reps) == closed
    report = lg.verify_foliation_components(section, atlas)
    assert report.details["transitivity_components"] == [
        sorted(c, key=str) for c in sorted_sets(closed)]
    seed = set().union(*(lg.restrict_wide(wide, v).arrows for v in cover))
    closed = lg.transitivity_components(lg.generate_wide(g, space.points,
                                                         seed))
    assert _generated_components(g, space.points, seed) == closed
    report = lg.verify_component_clopenness(lg.loc(space, wide), wide, cover)
    assert report.details["components_checked"] == len(closed)


def restriction_lemma_matches_scan(section) -> bool:
    """The lemma answer of the restriction-global-coherence checker
    against the open-by-open scan; returns the common flag."""
    space = section.space
    cover = [space.minimal_open(x) for x in space.points]
    first, _ = lg.verify_restriction_coherence(section, cover)
    flag, failing = restriction_global_coherence_by_scan(section)
    assert first.conclusion_holds == flag
    assert first.counterexample is None
    assert (failing is None) == flag
    if not flag:
        assert space.is_open(failing)
        assert not lg.coherence_report(
            lg.restrict_section(section, failing)).globally_coherent
    return flag


def cover_scan_matches_checker(section, cover) -> bool:
    """The restriction-total-coherence hypothesis, which settles each
    cover member that is some m(x) by a lemma, against the member-by-
    member scan; returns the common flag. A failing member is never
    some m(x)."""
    space = section.space
    _, second = lg.verify_restriction_coherence(section, cover)
    flag, failing = cover_restrictions_by_scan(section, cover)
    assert second.hypothesis_holds == flag
    assert second.status == ("pass" if flag else "vacuous")
    assert (failing is None) == flag
    if not flag:
        assert failing in map(frozenset, cover)
        assert failing not in {space.minimal_open(x) for x in space.points}
    return flag


def forward_lemma_matches_oracle(space, wide) -> bool:
    """The connectivity checker's `equals_globalisation`, which the
    forward lemma answers when every component is connected, against
    glob(loc(H)) == H from the definition oracle, or from `glob` where
    the oracle's arrow bound stops it; returns the common flag."""
    forward, converse = lg.verify_connectivity_globalization(space, wide)
    section = lg.loc(space, wide)
    try:
        recomputed = glob_by_subgroupoid_defn(section)
    except ResourceLimitError:
        recomputed = lg.glob(section)
    flag = forward.details["equals_globalisation"]
    assert flag == (recomputed == wide)
    assert converse.details == forward.details
    if forward.details["all_connected"]:
        assert flag
    return flag
