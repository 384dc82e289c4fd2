import functools
import hashlib
import itertools
import json
import math
import random

import pytest

import locglob as lg
from locglob import cli, oracle
from locglob.errors import (InvariantViolationError, ResourceLimitError,
                            ValidationError)
from locglob.oracle import (_enumerate_by_subset_filter, all_topologies,
                            close_family, component_clopenness_by_scan,
                            cross_check_enumeration, cross_check_glob,
                            glob_by_refinements, glob_by_subgroupoid_defn,
                            local_connectivity_by_scan,
                            relative_openness_by_traces,
                            restriction_global_coherence_by_scan,
                            totally_coherent_by_scan)
from locglob.spaces import label_key, sorted_labels

from conftest import (PAIRS, assert_listing_matches_closed_family, cases,
                      fixture_path, full_wide, pair_id, refinement_options,
                      subsets, walk)


def test_enumeration_counts_match_bell_numbers():
    # wide subgroupoids of a pair groupoid are the equivalence relations
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
        g = lg.pair_groupoid({str(i) for i in range(n)})
        subs = lg.enumerate_wide_subgroupoids(g, g.objects)
        assert len(subs) == bell


def test_enumeration_counts_bundle():
    fibers = {p: lg.cyclic_group(2) for p in ("1", "2")}
    g = lg.group_bundle({"1", "2"}, fibers)
    subs = lg.enumerate_wide_subgroupoids(g, g.objects)
    # each order-two loop is in or out independently
    assert len(subs) == 4


def test_enumeration_is_deterministic_and_valid():
    g = lg.pair_groupoid({"1", "2", "3"})
    subs = lg.enumerate_wide_subgroupoids(g, g.objects)
    keys = [(len(h.arrows), sorted(h.arrows)) for h in subs]
    assert keys == sorted(keys)
    assert subs[0].arrows == g.identity_ids
    assert subs[-1] == full_wide(g, g.objects)


def test_enumeration_guard():
    g = lg.pair_groupoid({str(i) for i in range(6)})
    with pytest.raises(ResourceLimitError, match="30"):
        lg.enumerate_wide_subgroupoids(g, g.objects)
    assert len(lg.enumerate_wide_subgroupoids(g, g.objects,
                                              max_arrows=32)) == 203


def test_enumeration_agrees_with_subset_filter():
    g3 = lg.pair_groupoid({"1", "2", "3"})
    outcome = cross_check_enumeration(g3, g3.objects)
    assert outcome == {"checked": True, "count": 5}
    fibers = {p: lg.cyclic_group(2) for p in ("1", "2")}
    gb = lg.group_bundle({"1", "2"}, fibers)
    assert cross_check_enumeration(gb, gb.objects)["count"] == 4
    g4 = lg.pair_groupoid({"1", "2", "3", "4"})
    skipped = cross_check_enumeration(g4, g4.objects)
    assert skipped["checked"] is False
    # the filter twin still agrees when forced
    fast = lg.enumerate_wide_subgroupoids(g4, g4.objects)
    slow = _enumerate_by_subset_filter(g4, g4.objects)
    assert [h.arrows for h in fast] == [h.arrows for h in slow]


def _arrow_sets(subs):
    return [h.arrows for h in subs]


def test_enumeration_kept_on_the_groupoid_still_checks_its_arguments():
    g = lg.pair_groupoid({"1", "2", "3"})
    fresh = lg.pair_groupoid({"1", "2", "3"})
    with pytest.raises(ResourceLimitError) as before:
        lg.enumerate_wide_subgroupoids(fresh, fresh.objects, max_arrows=5)
    assert len(lg.enumerate_wide_subgroupoids(g, g.objects)) == 5
    with pytest.raises(ResourceLimitError) as after:
        lg.enumerate_wide_subgroupoids(g, g.objects, max_arrows=5)
    assert str(after.value) == str(before.value)
    with pytest.raises(ValidationError, match=r"unknown objects: \['9'\]"):
        lg.enumerate_wide_subgroupoids(g, {"1", "9"})


def test_enumeration_kept_on_the_groupoid_returns_a_fresh_list():
    g = lg.pair_groupoid({"1", "2", "3"})
    first = lg.enumerate_wide_subgroupoids(g, g.objects)
    expected = _arrow_sets(first)
    first.clear()
    again = lg.enumerate_wide_subgroupoids(g, g.objects)
    assert again is not first
    assert _arrow_sets(again) == expected
    again.reverse()
    assert _arrow_sets(lg.enumerate_wide_subgroupoids(g, g.objects)) == expected


def test_equal_groupoids_enumerate_the_same_arrow_sets():
    g = lg.group_bundle({"1", "2"}, dict.fromkeys({"1", "2"},
                                                  lg.cyclic_group(2)))
    twin = lg.group_bundle({"1", "2"}, dict.fromkeys({"1", "2"},
                                                     lg.cyclic_group(2)))
    assert g == twin and g is not twin
    subs = lg.enumerate_wide_subgroupoids(g, g.objects)
    twin_subs = lg.enumerate_wide_subgroupoids(twin, twin.objects)
    assert _arrow_sets(twin_subs) == _arrow_sets(subs)
    assert all(h.parent is twin for h in twin_subs)
    for base in ({"1"}, {"2"}):
        assert (_arrow_sets(lg.enumerate_wide_subgroupoids(twin, base))
                == _arrow_sets(lg.enumerate_wide_subgroupoids(g, base)))


def test_enumeration_of_every_suite_groupoid_matches_subset_filter(suite412):
    # the search builds its results unchecked; the cross-check skips the
    # 12-arrow pair groupoid, so force the filter twin on all 8 groupoids
    groupoids = {inst.groupoid for inst in suite412.instances}
    assert len(groupoids) == 8
    for g in groupoids:
        fast = lg.enumerate_wide_subgroupoids(g, g.objects, 12)
        slow = _enumerate_by_subset_filter(g, g.objects)
        assert [h.arrows for h in fast] == [h.arrows for h in slow]
        for h in fast:
            assert lg.WideSubgroupoid(g, g.objects, h.arrows) == h


def test_glob_by_defn_raises_invariant_violation_on_empty_family(
        monkeypatch, s_nc):
    monkeypatch.setattr(oracle, "enumerate_wide_subgroupoids",
                        lambda *args: [])
    with pytest.raises(InvariantViolationError, match="enumeration"):
        glob_by_subgroupoid_defn(s_nc)


def test_glob_by_defn_on_small_spaces(sp_disc2, sp_ind2, sp_sier):
    g = lg.pair_groupoid({"1", "2"})
    for space in (sp_disc2, sp_ind2, sp_sier):
        for wide in lg.enumerate_wide_subgroupoids(g, g.objects):
            section = lg.loc(space, wide)
            assert glob_by_subgroupoid_defn(section) == lg.glob(section)


def test_glob_by_refinements_discrete_full(sp_disc2):
    g = lg.pair_groupoid({"1", "2"})
    atlas = lg.Atlas(sp_disc2, ((sp_disc2.points,
                                 full_wide(g, g.objects)),))
    section = lg.section_from_atlas(atlas)
    # minimal neighbourhoods are singletons, so the refinement
    # intersection drops both crossing arrows
    assert glob_by_refinements(section, atlas).arrows == g.identity_ids
    assert lg.glob(section).arrows == g.identity_ids


def _unions_formed(atlas) -> int:
    """The unions the refinement fold forms: at each point, the distinct
    unions so far times the choices there."""
    unions, formed = {frozenset()}, 0
    for options in refinement_options(atlas):
        formed += len(unions) * len(options)
        unions = {u | piece for u in unions for piece in options}
    return formed


def _discrete_full_chart(n):
    """A discrete space on n points with one full pair-groupoid chart."""
    points = {str(i) for i in range(1, n + 1)}
    space = lg.space_from_basis(points, [{p} for p in points])
    g = lg.pair_groupoid(points)
    atlas = lg.Atlas(space, ((space.points, full_wide(g, g.objects)),))
    return lg.section_from_atlas(atlas), atlas


def test_glob_by_refinements_folds_a_million_families():
    # five points: each picks one of 16 opens, so 16^5 families, but the
    # fold forms 26,656 unions, within the default guard, and only the
    # union of the singleton pieces closes to the identities
    section, atlas = _discrete_full_chart(5)
    assert _unions_formed(atlas) == 26_656
    folded = glob_by_refinements(section, atlas)
    assert folded.arrows == section.parent.identity_ids
    # six points: the fold would form 1,648,736 unions, and is refused
    section, atlas = _discrete_full_chart(6)
    with pytest.raises(ResourceLimitError,
                       match="refinement fold needs more than 200000 unions"):
        glob_by_refinements(section, atlas)


def test_glob_by_refinements_validation(monkeypatch, sp_ind2):
    # on the indiscrete space the full and identities-only charts give
    # different germs, so the atlases define different sections
    g = lg.pair_groupoid({"1", "2"})
    atlas = lg.Atlas(sp_ind2, ((sp_ind2.points,
                                full_wide(g, g.objects)),))
    section = lg.section_from_atlas(atlas)
    other = lg.Atlas(sp_ind2, ((sp_ind2.points,
                                lg.wide_subgroupoid(g, g.objects)),))
    with pytest.raises(ValidationError, match="does not define"):
        glob_by_refinements(section, other)
    monkeypatch.setattr(oracle, "MAX_FOLD_UNIONS", 0)
    with pytest.raises(ResourceLimitError):
        glob_by_refinements(section, atlas)


def test_glob_by_refinements_compares_sections_by_value(sp_ind2):
    # an equal section built afresh is accepted, any other is rejected
    g = lg.pair_groupoid({"1", "2"})
    atlas = lg.Atlas(sp_ind2, ((sp_ind2.points,
                                full_wide(g, g.objects)),))
    section = lg.section_from_atlas(atlas)
    rebuilt = lg.LocalSubgroupoid(sp_ind2, g, dict(section.germs))
    assert rebuilt is not section
    assert (glob_by_refinements(rebuilt, atlas)
            == glob_by_refinements(section, atlas))
    smaller = lg.loc(sp_ind2, lg.wide_subgroupoid(g, g.objects))
    with pytest.raises(ValidationError, match="does not define"):
        glob_by_refinements(smaller, atlas)


def test_glob_by_refinements_guard_counts_the_unions_formed(monkeypatch,
                                                           s_nc, a_nc):
    # the guard counts the unions the fold forms, 130 here, not the
    # product's 125 families: a bound of 129 is refused, 130 passes
    assert math.prod(map(len, refinement_options(a_nc))) == 125
    assert _unions_formed(a_nc) == 130
    monkeypatch.setattr(oracle, "MAX_FOLD_UNIONS", 129)
    with pytest.raises(ResourceLimitError, match="more than 129 unions"):
        glob_by_refinements(s_nc, a_nc)
    monkeypatch.setattr(oracle, "MAX_FOLD_UNIONS", 130)
    assert glob_by_refinements(s_nc, a_nc) == lg.glob(s_nc)


def test_definition_oracle_germs_are_the_arrow_sets_of_germ(suite36):
    # the definition oracle reads H's germ at x as the arrows of H
    # inside m(x); `germ_at` restricts H to m(x)
    checked = 0
    for inst in suite36.instances:
        space, g = inst.space, inst.groupoid
        for h in lg.enumerate_wide_subgroupoids(g, space.points):
            for x in space.points:
                within = g.arrows_within(space.minimal_open(x))
                assert h.arrows & within == lg.germ_at(space, h, x).rep.arrows
                checked += 1
    assert checked > 1000


def test_glob_oracles_call_neither_glob_nor_germ(monkeypatch, s_nc, a_nc):
    def refuse(*args):
        raise AssertionError("an oracle called the code it checks")

    expected = lg.glob(s_nc)
    for module in (oracle, lg.sections):
        monkeypatch.setattr(module, "glob", refuse)
        # `oracle` does not import `germ_at`; refuse it there all the same
        monkeypatch.setattr(module, "germ_at", refuse, raising=False)
    # both oracles read germs and pieces as arrow sets, from their own
    # scan: neither restricts nor reads the regions the groupoid keeps
    monkeypatch.setattr(oracle, "restrict_wide", refuse, raising=False)
    monkeypatch.setattr(lg.Groupoid, "arrows_within", refuse)
    assert glob_by_subgroupoid_defn(s_nc, max_arrows=32) == expected
    assert glob_by_refinements(s_nc, a_nc) == expected


def test_local_connectivity_scan_reads_no_region(monkeypatch):
    # the twin restricts H to each open by its own scan of the arrows
    def refuse(*args):
        raise AssertionError("the scan read the region index")

    section, _ = cases("nc")[0]
    wides = [lg.glob(section), full_wide(section.parent, section.space.points)]
    expected = [lg.verify_local_connectivity_coherence(section.space, h)
                for h in wides]
    assert [r.hypothesis_holds for r in expected] == [False, True]
    monkeypatch.setattr(lg.Groupoid, "arrows_within", refuse)
    assert [local_connectivity_by_scan(section.space, h)
            for h in wides] == [r.details for r in expected]


def test_cross_check_glob_nc(s_nc, a_nc):
    confirmed = cross_check_glob(s_nc, a_nc, max_arrows=32)
    assert confirmed == lg.glob(s_nc)


def test_connected_by_partition_guard(monkeypatch, sp_nc):
    monkeypatch.setattr(oracle, "MAX_SPLIT_POINTS", 3)
    with pytest.raises(ResourceLimitError,
                       match="6 points exceeds the split-search bound of 3"):
        lg.connected_by_partition(sp_nc, sp_nc.points)
    with pytest.raises(ValidationError):
        lg.connected_by_partition(sp_nc, {"nope"})


def test_cross_check_connectivity(monkeypatch, sp_nc):
    assert lg.cross_check_connectivity(sp_nc) == 64
    monkeypatch.setattr(oracle, "MAX_SUBSET_SCAN_POINTS", 3)
    with pytest.raises(ResourceLimitError,
                       match="6 points exceeds the subset-scan bound of 3"):
        lg.cross_check_connectivity(sp_nc)


def test_instance_suite_shape():
    suite = lg.instance_suite(2, 4)
    # four spaces on at most two points, one space on one point, with a
    # pair groupoid and an order-two bundle each
    assert len(suite.instances) == 10
    for inst in suite.instances:
        assert inst.kind in ("pair", "bundle")
        assert inst.groupoid.non_identity_count() <= 4
        assert len(inst.sections) == len(inst.atlases)
        for section, atlas in zip(inst.sections, inst.atlases):
            assert lg.section_from_atlas(atlas) == section
        # no duplicate sections within one instance
        assert len(set(inst.sections)) == len(inst.sections)
    with pytest.raises(ResourceLimitError):
        lg.instance_suite(5, 4)


SUITE36_DIGEST = (
    "aded121b038fe630c04114ee0bae3a867a62dcf3d5cd65f49a68b7f61e0e24c0")
SUITE412_DIGEST = (
    "5121545ee4ac4616e30eed020e18c68d2f7dc64ec9ad4de6a7fc95fcc04cdeb3")


def _suite_digest(suite) -> str:
    """sha256 over every instance in order, as sorted-label JSON: its
    kind and m(x) table, the germs of each section and the charts of
    each atlas, both in suite order."""
    digest = hashlib.sha256()
    for inst in suite.instances:
        points = sorted_labels(inst.space.points)
        record = {
            "kind": inst.kind,
            "minimal_opens": [[label_key(x),
                               sorted_labels(inst.space.minimal_open(x))]
                              for x in points],
            "sections": [[[label_key(x),
                           sorted_labels(section.germs[x].rep.base),
                           sorted_labels(section.germs[x].rep.arrows)]
                          for x in points]
                         for section in inst.sections],
            "atlases": [[[sorted_labels(open_set), sorted_labels(sub.arrows)]
                         for open_set, sub in atlas.charts]
                        for atlas in inst.atlases],
        }
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_suite_builds_one_atlas_per_section(monkeypatch):
    # lemma (C) of `_build_instance`: only the first atlas of each germ
    # key is built and validated (773 atlases for 369 sections before)
    built = []

    def counting_atlas(*args):
        built.append(lg.Atlas(*args))
        return built[-1]

    monkeypatch.setattr(oracle, "Atlas", counting_atlas)
    suite = lg.instance_suite(3, 6)
    assert len(built) == 369
    assert [atlas for _, _, atlas in suite.iter_sections()] == built


def test_instance_suites_are_pinned(suite36, suite412):
    # `perfbench` samples sections by index, so the order of instances,
    # sections and atlases is part of the suite's contract
    assert _suite_digest(suite36) == SUITE36_DIGEST
    assert _suite_digest(suite412) == SUITE412_DIGEST


def _germ_families(inst, max_families):
    """Definitional twin of the generator: every choice of one wide
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
        except ValidationError:
            continue
    return families


def test_suite_sections_are_every_germ_family(suite36, suite412):
    # every section of the 3,6 suite is loc(H) for a single chart H; the
    # 4,12 instances with at most 100 choices include the six that hold
    # the 72 sections only minimal-neighbourhood atlases define
    for suite, max_families, expected in (
            (suite36, 512, (len(suite36.instances), 0)),
            (suite412, 100, (385, 72))):
        checked = beyond_single_charts = 0
        for inst in suite.instances:
            families = _germ_families(inst, max_families)
            if families is None:
                continue
            assert set(inst.sections) == families
            checked += 1
            single = {lg.loc(inst.space, h) for h in
                      lg.enumerate_wide_subgroupoids(
                          inst.groupoid, inst.space.points, 12)}
            beyond_single_charts += len(families - single)
        assert (checked, beyond_single_charts) == expected


def _count_searches(monkeypatch):
    """Record (groupoid, base) for every run of the decision search."""
    searches = []
    search = oracle._search_wide

    def counted(g, base, free):
        searches.append((g, base))
        return search(g, base, free)

    monkeypatch.setattr(oracle, "_search_wide", counted)
    return searches


def test_instance_suite_enumerates_once_per_instance(monkeypatch):
    # lemma (E): the charts over each m(x) are restrictions of the one
    # whole-space enumeration, so no per-point search runs; the spaces on
    # n points share one groupoid of each kind, and with it that search
    searches = _count_searches(monkeypatch)
    suite = lg.instance_suite(3, 6)
    first = {}
    for inst in suite.instances:
        assert inst.groupoid.objects == inst.space.points
        first.setdefault(id(inst.groupoid),
                         (inst.groupoid, inst.space.points))
    assert ([(id(g), base) for g, base in searches]
            == [(id(g), base) for g, base in first.values()])


def test_suite_build_and_cross_check_search_once_per_groupoid(monkeypatch):
    # the 3,6 suite holds six groupoids (pair groupoid and Z/2 bundle on
    # one to three points); each is searched while the suite is built,
    # and the definition oracle of every section reuses that search
    searches = _count_searches(monkeypatch)
    suite = lg.instance_suite(3, 6)
    built = len(searches)
    for _, section, atlas in suite.iter_sections():
        cross_check_glob(section, atlas)
    assert (built, len(searches)) == (6, 6)


def test_instance_suite_filters_large_groupoids():
    suite = lg.instance_suite(3, 4)
    # pair groupoids on three points have six non-identity arrows and
    # must be filtered out at this bound
    kinds = {(len(i.space.points), i.kind) for i in suite.instances}
    assert (3, "pair") not in kinds
    assert (3, "bundle") in kinds
    assert (2, "pair") in kinds


def test_suite_sections_round_trip_through_oracles(suite36):
    count = 0
    for inst, section, atlas in suite36.iter_sections():
        cross_check_glob(section, atlas)
        count += 1
    assert count == sum(len(i.sections) for i in suite36.instances)
    assert count >= 300


def test_verify_suite_restricts_no_minimal_cover_member(monkeypatch, capsys):
    # `verify` passes the minimal cover, so the restriction checker
    # restricts nothing; `coherence_report` runs once per section, in
    # the restriction checker. `glob` runs once per section (the oracle
    # cross-check, whose value `coherence_report` is given; the foliation
    # checker reads the components off the germs) and `loc` once (`cli`:
    # the clopenness checker and `coherence_report` read germs as arrow
    # sets); each runs once more for each of the 3 sections whose
    # globalisation has a component that is not connected. `glob` closes
    # its germ seed without `generate_wide`'s checks (741 calls when it
    # made them)
    calls = {"restrict_section": 0, "full_restriction": 0,
             "coherence_report": 0, "glob": 0, "loc": 0, "generate_wide": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(lg.coherence, "restrict_section")
    counted(lg.sections, "full_restriction")
    counted(lg.coherence, "coherence_report")
    monkeypatch.setattr(cli, "coherence_report", lg.coherence.coherence_report)
    # counted where they are looked up
    for module in (cli, lg.coherence, oracle, lg.sections):
        for name in ("glob", "loc", "generate_wide"):
            if hasattr(module, name):
                counted(module, name)
    assert cli.main(["verify", "--suite", "3,6", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == {"restrict_section": 0, "full_restriction": 0,
                     "coherence_report": 369,
                     "glob": 369 + 3, "loc": 369 + 3,
                     "generate_wide": 0}


def _count_detail_builders(monkeypatch) -> dict:
    """Count `open_label_lists` and `_set_list` calls where `coherence`
    looks them up: the foliation opens and the sorted set families that
    only a report's details hold."""
    calls = {"open_label_lists": 0, "_set_list": 0}
    for name in calls:
        original = getattr(lg.coherence, name)

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(lg.coherence, name, wrapper)
    return calls


def test_verify_suite_builds_no_report_details(monkeypatch, capsys):
    # suite mode tallies each report's status and never reads its
    # details, so no report builds them
    calls = _count_detail_builders(monkeypatch)
    assert cli.main(["verify", "--suite", "3,6", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == {"open_label_lists": 0, "_set_list": 0}


def test_verify_instance_builds_every_report_details(monkeypatch, capsys):
    # `--input` prints every report's details, so it builds them all
    calls = _count_detail_builders(monkeypatch)
    assert cli.main(["verify", "--input", fixture_path("nc_pair_atlas.json"),
                     "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(r["details"] for r in out["reports"])
    assert calls["open_label_lists"] >= 1 and calls["_set_list"] >= 1


def test_verify_suite_scans_each_region_once(monkeypatch, capsys):
    # the suite shares one pair groupoid and one Z/2 bundle per point
    # count, and each keeps the arrows inside every region it is asked
    # for: one scan per distinct (groupoid, region), never evicted here.
    # Each nonempty subset of 1..n is some minimal neighbourhood, so the
    # two groupoids on n points scan 2^n - 1 regions each
    misses = []

    class Regions(dict):
        def __setitem__(self, region, arrows):
            misses.append(region)
            super().__setitem__(region, arrows)

    regions = functools.cached_property(lambda self: Regions())
    regions.__set_name__(lg.Groupoid, "_regions")
    monkeypatch.setattr(lg.Groupoid, "_regions", regions)
    assert cli.main(["verify", "--suite", "3,6", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(misses) == 2 * (1 + 3 + 7)


def test_verify_asks_the_region_index_only_for_minimal_neighbourhoods(
        monkeypatch, capsys):
    # every germ, gluing check and cover member of `verify` on the
    # fixture is some m(x), and the local-connectivity search reads
    # traces of one partition instead of restricting H to larger opens
    path = fixture_path("nc_pair_atlas.json")
    space = lg.load_instance(path).space
    regions = set()
    original = lg.Groupoid.arrows_within

    def recorded(self, region):
        regions.add(frozenset(region))
        return original(self, region)

    monkeypatch.setattr(lg.Groupoid, "arrows_within", recorded)
    assert cli.main(["verify", "--input", path, "--format", "json"]) == 0
    capsys.readouterr()
    assert regions == {space.minimal_open(x) for x in space.points}
    assert len(regions) == 6


@pytest.mark.parametrize("pair", PAIRS, ids=map(pair_id, PAIRS))
def test_fast_path_agrees_with_its_twin(pair):
    # one line of the twin table in `conftest.py`: the row's fast path
    # and oracle twin agree on every case, and the flags are pinned
    row, input_set, wides, covers, seed, expected = pair
    flags = walk(row, cases(input_set), wides, covers, random.Random(seed))
    assert (len(flags), sum(flags)) == expected


def test_nc_fixture_fails_restriction_only_on_the_whole_space():
    # the scan walks the opens smallest first, and every proper one
    # restricts to a globally coherent section
    section, _ = cases("nc")[0]
    assert restriction_global_coherence_by_scan(section) == (
        False, section.space.points)


def test_clopenness_scan_finds_a_failure_when_the_cover_is_not_open():
    # the lemma needs an open cover: {1} is not open in the Sierpinski
    # space, the checker refuses it, and the scan reports the component
    # {1}, which is not open inside {1, 2}
    space = lg.space_from_basis({"1", "2"}, [{"2"}])
    g = lg.pair_groupoid(space.points)
    wide = full_wide(g, g.objects)
    section = lg.loc(space, wide)
    cover = [frozenset({"1"}), frozenset({"2"})]
    with pytest.raises(ValidationError, match="open"):
        lg.verify_component_clopenness(section, wide, cover)
    flag, certificate = component_clopenness_by_scan(section, wide, cover)
    assert not flag
    assert certificate == {"component": ["1"], "ambient_component": ["1", "2"],
                           "relatively_open": False,
                           "relatively_closed": True}


def test_total_coherence_scan_guard(monkeypatch, s_nc):
    monkeypatch.setattr(oracle, "MAX_SCAN_OPENS", 4)
    with pytest.raises(ResourceLimitError,
                       match="18 open sets exceeds the configured cap of 4"):
        totally_coherent_by_scan(s_nc)


def test_restriction_scan_guard_refuses_before_restricting(monkeypatch,
                                                          s_nc):
    def refuse(*args):
        raise AssertionError("the scan restricted before its guard")

    monkeypatch.setattr(oracle, "MAX_SCAN_OPENS", 4)
    monkeypatch.setattr(oracle, "restrict_section", refuse)
    with pytest.raises(ResourceLimitError,
                       match="^18 open sets exceeds the configured cap of 4$"):
        restriction_global_coherence_by_scan(s_nc)


def test_open_listing_matches_the_sorted_closed_family():
    # every topology on 1 to 4 points; chains across the byte and the
    # 16-bit boundaries of the masks, labelled c0, c1, ... so that text
    # order ("c10" < "c2") is not chain order; and the divisibility
    # order on the ints 1 to 12, whose text order is not numeric order
    for n in range(1, 5):
        for space in all_topologies(n):
            assert_listing_matches_closed_family(space)
    for n in (9, 16, 17, 24):
        points = [f"c{i}" for i in range(n)]
        chain = lg.space_from_basis(points,
                                    [points[:i + 1] for i in range(n)])
        assert lg.count_opens(chain) == n + 1
        assert_listing_matches_closed_family(chain)
    numbers = range(1, 13)
    divisors = lg.space_from_basis(
        numbers, [[d for d in numbers if k % d == 0] for k in numbers])
    assert sorted_labels(numbers)[:5] == [1, 10, 11, 12, 2]
    assert_listing_matches_closed_family(divisors)


def test_space_operations_match_explicit_families():
    # every topology on 1 to 4 points, built from its explicit family,
    # against the family-level definitions of each operation
    spaces = [s for n in range(1, 5) for s in all_topologies(n)]
    assert len(spaces) == 389
    for space in spaces:
        points = space.points
        minimal = [space.minimal_open(x) for x in points]
        opens = space.opens
        assert opens == close_family(points, minimal)
        rebuilt = lg.space_from_basis(points, minimal)
        assert rebuilt == space and rebuilt.opens == opens
        for e in subsets(points):
            finer = lg.generate_topology(space, [e])
            assert finer.opens == close_family(points, opens | {e})
            region = lg.subspace(space, e)
            assert region.opens == frozenset(o & e for o in opens)
            for part in subsets(e):
                assert (lg.relative_openness(space, part, e)
                        == relative_openness_by_traces(space, part, e))
