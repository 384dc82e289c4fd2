import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locglob as lg
from locglob import cli
from locglob.coherence import _set_list
from locglob.errors import (InvariantViolationError, ResourceLimitError,
                            ValidationError)
from locglob.spaces import sorted_labels, sorted_sets

from conftest import cases, fixture_path, full_wide


def _single_chart_section(space, wide):
    return lg.section_from_atlas(lg.Atlas(space, ((space.points, wide),)))


# int and str labels with the same text, so that sets such as {1} and
# {"1"} tie on the sort key and must keep the family's order
_MIXED_LABELS = st.sampled_from([0, 1, 2, 10, "0", "1", "2", "10", "a"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(_MIXED_LABELS, max_size=4), max_size=10))
@example([frozenset({1}), frozenset({"1"}), frozenset({1, "0"}),
          frozenset({0, "1"})])
def test_set_list_matches_sorting_the_family_then_each_set(sets):
    assert _set_list(sets) == [sorted_labels(s) for s in sorted_sets(sets)]


def test_coherence_report_nc(s_nc):
    report = lg.coherence_report(s_nc)
    assert report.coherent
    assert not report.globally_coherent
    assert [w[0] for w in report.witnesses] == ["x"]
    point, mine, theirs = report.witnesses[0]
    assert lg.germ_leq(mine, theirs) and mine != theirs


def test_coherence_report_globally_coherent_cases(sp_disc2, sp_ind2):
    g = lg.pair_groupoid({"1", "2"})
    for space in (sp_disc2, sp_ind2):
        section = _single_chart_section(space, full_wide(g, g.objects))
        report = lg.coherence_report(section)
        assert report.coherent and report.globally_coherent
        assert report.witnesses == ()


def test_totally_coherent(s_nc):
    assert lg.is_totally_coherent(s_nc) == (True, None)
    with pytest.raises(ResourceLimitError):
        lg.is_totally_coherent(s_nc, max_opens=4)


def test_subgroupoid_coherence(sp_disc2, sp_ind2, sp_sier, sp_nc, nc_pair, s_nc):
    pair2 = lg.pair_groupoid({"1", "2"})
    full2 = full_wide(pair2, pair2.objects)
    assert lg.subgroupoid_coherence(sp_disc2, full2) == (True, False)
    assert lg.subgroupoid_coherence(sp_ind2, full2) == (True, True)
    fibers = {p: lg.cyclic_group(2) for p in ("1", "2")}
    bundle = lg.group_bundle({"1", "2"}, fibers)
    assert lg.subgroupoid_coherence(
        sp_sier, full_wide(bundle, bundle.objects)) == (True, True)
    assert lg.subgroupoid_coherence(sp_nc, lg.glob(s_nc)) == (True, True)


def test_theorem_report_certificate_invariant():
    with pytest.raises(InvariantViolationError):
        lg.TheoremReport("x", True, True, {"bad": 1})
    with pytest.raises(InvariantViolationError):
        lg.TheoremReport("x", True, False, None)
    assert lg.TheoremReport("x", False, True, None).status == "vacuous"
    assert lg.TheoremReport("x", True, True, None).status == "pass"
    assert lg.TheoremReport("x", True, False,
                            {"w": 1}).status == "counterexample"


def test_foliation_space(sp_nc, a_nc, s_nc):
    foliated = lg.foliation_space(s_nc, a_nc)
    assert all(foliated.minimal_open(x) <= sp_nc.minimal_open(x)
               for x in sp_nc.points)
    # chart components cut everything down to singletons here
    assert len(foliated.opens) == 64
    other = lg.Atlas(sp_nc, ((sp_nc.points, lg.glob(s_nc)),))
    with pytest.raises(ValidationError, match="does not define"):
        lg.foliation_space(s_nc, other)


def test_foliation_space_compares_sections_by_value(sp_nc, a_nc, s_nc):
    # an equal section built afresh is accepted, any other is rejected
    rebuilt = lg.LocalSubgroupoid(sp_nc, s_nc.parent, dict(s_nc.germs))
    assert rebuilt is not lg.section_from_atlas(a_nc)
    assert lg.foliation_space(rebuilt, a_nc) == lg.foliation_space(s_nc, a_nc)
    with pytest.raises(ValidationError, match="does not define"):
        lg.foliation_space(lg.loc(sp_nc, lg.glob(s_nc)), a_nc)


def test_component_clopenness(sp_nc, nc_pair, s_nc):
    wide = lg.glob(s_nc)
    section = lg.loc(sp_nc, wide)
    cover = [sp_nc.minimal_open(x) for x in sp_nc.points]
    report = lg.verify_component_clopenness(section, wide, cover)
    assert report.status == "pass"
    assert report.details["components_checked"] == 4
    with pytest.raises(ValidationError, match="germ section"):
        lg.verify_component_clopenness(s_nc, wide, cover)
    # the precondition reads germs as arrow sets, and still tells apart
    # equal arrow ids in another groupoid; `loc`'s own checks run first
    points = sp_nc.points
    # the Z/1 and the Z/2 bundle share their identity arrows p#0
    fibers = {k: dict.fromkeys(points, lg.cyclic_group(k)) for k in (1, 2)}
    ids = lg.wide_subgroupoid(lg.group_bundle(points, fibers[1]), points)
    other = lg.wide_subgroupoid(lg.group_bundle(points, fibers[2]), points)
    assert other.arrows == ids.arrows
    with pytest.raises(ValidationError, match="germ section"):
        lg.verify_component_clopenness(lg.loc(sp_nc, ids), other, cover)
    for bad, message in (
            (lg.wide_subgroupoid(nc_pair, points - {"x"}),
             "loc needs a wide subgroupoid over the whole space"),
            (lg.wide_subgroupoid(lg.pair_groupoid(points | {"w"}), points),
             "ambient groupoid must live on the space's points")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            lg.verify_component_clopenness(section, bad, cover)
    with pytest.raises(ValidationError, match="cover"):
        lg.verify_component_clopenness(section, wide, [sp_nc.points - {"x"}])


def test_local_connectivity_coherence_pass(sp_sier):
    g = lg.pair_groupoid({"1", "2"})
    report = lg.verify_local_connectivity_coherence(
        sp_sier, full_wide(g, g.objects))
    assert report.status == "pass"
    assert report.details["points_without_neighbourhood"] == []
    # every minimal neighbourhood already works, so each is the witness
    assert report.details["neighbourhoods"] == {"1": ["1", "2"], "2": ["2"]}


def test_local_connectivity_coherence_vacuous():
    space = lg.space_from_basis({"1", "2", "3"}, [{"1"}, {"3"}])
    g = lg.pair_groupoid(space.points)
    wide = lg.generate_wide(g, g.objects, {"1:3"})
    report = lg.verify_local_connectivity_coherence(space, wide)
    assert report.status == "vacuous"
    assert report.details["points_without_neighbourhood"] == ["2"]


def _sorted_order_gadget():
    space = lg.space_from_basis(
        "abcdx", [{"a"}, {"b"}, {"a", "b", "c"}, {"a", "b", "d"},
                  {"a", "b", "x"}])
    g = lg.pair_groupoid(space.points)
    return space, lg.generate_wide(g, g.objects, {"a:b", "a:c", "a:d"})


def test_local_connectivity_takes_first_larger_open_in_sorted_order():
    # m(x) = {a, b, x} splits the component {a, b}; the opens
    # {a, b, c, x}, {a, b, d, x} and the whole space each join it up
    # through c or d, and the first of them in sorted order is reported
    report = lg.verify_local_connectivity_coherence(*_sorted_order_gadget())
    assert report.status == "pass"
    assert report.details["neighbourhoods"]["x"] == ["a", "b", "c", "x"]
    assert report.details["neighbourhoods"]["a"] == ["a"]


def test_local_connectivity_reads_one_partition(monkeypatch, suite36):
    # the components of every restriction are traces of H's own, so the
    # checker partitions H once and neither restricts nor links arrows
    def refuse(*args):
        raise AssertionError("the checker restricted or linked arrows")

    checks = [_sorted_order_gadget()]
    section, _ = cases("nc")[0]
    checks += [(section.space, h) for h in (
        lg.glob(section), full_wide(section.parent, section.space.points))]
    checks += [(inst.space, h) for inst in suite36.instances
               for h in lg.enumerate_wide_subgroupoids(inst.groupoid,
                                                       inst.space.points)]
    calls = []
    partition = lg.coherence.transitivity_components
    monkeypatch.setattr(lg.coherence, "transitivity_components",
                        lambda h: calls.append(h) or partition(h))
    monkeypatch.setattr(lg.coherence, "_generated_components", refuse)
    monkeypatch.setattr(lg.Groupoid, "arrows_within", refuse)
    for space, wide in checks:
        calls.clear()
        lg.verify_local_connectivity_coherence(space, wide)
        assert calls == [wide]


def test_connectivity_globalization(sp_sier, sp_disc2):
    g = lg.pair_groupoid({"1", "2"})
    full = full_wide(g, g.objects)
    ids = lg.wide_subgroupoid(g, g.objects)

    forward, converse = lg.verify_connectivity_globalization(sp_sier, full)
    assert forward.status == "pass"
    assert forward.details["all_connected"] is True
    assert converse.status == "pass"

    forward, converse = lg.verify_connectivity_globalization(sp_disc2, full)
    # the single component {1, 2} is disconnected, so both are vacuous,
    # and the globalisation drops the crossing arrows
    assert forward.status == "vacuous"
    assert forward.details["equals_globalisation"] is False
    assert converse.status == "vacuous"

    forward, converse = lg.verify_connectivity_globalization(sp_disc2, ids)
    assert forward.status == "pass"
    assert converse.status == "pass"


def test_restriction_checker_guards_coherence(monkeypatch, capsys, sp_nc,
                                              s_nc):
    # every section is coherent, so a report that says otherwise is a
    # germ or closure bug; `verify` meets it in the restriction checker
    broken = lg.CoherenceReport(False, False, ())
    monkeypatch.setattr(lg.coherence, "coherence_report",
                        lambda s, globalised=None: broken)
    cover = [sp_nc.minimal_open(x) for x in sp_nc.points]
    with pytest.raises(InvariantViolationError, match="not coherent"):
        lg.verify_restriction_coherence(s_nc, cover)
    assert cli.main(["verify", "--input", fixture_path("nc_pair_atlas.json"),
                     "--format", "json"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error[invariant]: section is not coherent; germ "
                   "canonicalisation is broken\n")


def test_restriction_hypothesis_two_restricts_only_without_global_coherence(
        monkeypatch, suite36):
    # a globally coherent section is globally coherent on every open set,
    # by the first statement's lemma, so no cover member is restricted
    restricted = []
    original = lg.coherence.restrict_section
    monkeypatch.setattr(lg.coherence, "restrict_section",
                        lambda s, v: restricted.append(v) or original(s, v))
    for _, section, _ in suite36.iter_sections():
        _, second = lg.verify_restriction_coherence(section,
                                                    [section.space.points])
        assert second.hypothesis_holds
    assert restricted == []
    section, _ = cases("nc")[0]
    _, second = lg.verify_restriction_coherence(section,
                                                [section.space.points])
    assert restricted == [section.space.points]
    assert not second.hypothesis_holds


def test_foliation_components_checker(sp_disc2, s_nc, a_nc):
    report = lg.verify_foliation_components(s_nc, a_nc)
    assert report.status == "counterexample"
    assert report.counterexample["transitivity_component"] == ["p", "q", "r"]
    assert report.counterexample["foliation_components_meeting_it"] == [
        ["p"], ["q"], ["r"]]

    g = lg.pair_groupoid({"1", "2"})
    atlas = lg.Atlas(sp_disc2, ((sp_disc2.points,
                                 full_wide(g, g.objects)),))
    section = lg.section_from_atlas(atlas)
    assert lg.verify_foliation_components(section, atlas).status == "pass"


def test_restriction_coherence(sp_disc2, sp_nc, s_nc):
    g = lg.pair_groupoid({"1", "2"})
    atlas = lg.Atlas(sp_disc2, ((sp_disc2.points,
                                 full_wide(g, g.objects)),))
    section = lg.section_from_atlas(atlas)
    first, second = lg.verify_restriction_coherence(
        section, [frozenset({"1"}), frozenset({"2"})])
    assert first.status == "pass"
    assert second.status == "pass"

    cover = [sp_nc.minimal_open(x) for x in sp_nc.points]
    first, second = lg.verify_restriction_coherence(s_nc, cover)
    # s_nc is not globally coherent, so the first hypothesis fails
    assert first.status == "vacuous"
    assert second.status == "pass"

    # one cap check covers both statements, globally coherent or not
    for s, cap in ((section, 3), (s_nc, 4)):
        opens = len(s.space.opens)
        with pytest.raises(ResourceLimitError,
                           match=f"^{opens} open sets exceeds the configured "
                                 f"cap of {cap}$"):
            lg.verify_restriction_coherence(s, [s.space.points], cap)
        _, second = lg.verify_restriction_coherence(
            s, [s.space.points], opens)
        assert second.conclusion_holds

    with pytest.raises(ValidationError, match="open"):
        lg.verify_restriction_coherence(s_nc, [{"x", "y"}, sp_nc.points])
    with pytest.raises(ValidationError, match="cover"):
        lg.verify_restriction_coherence(s_nc, [sp_nc.points - {"x"}])
