import os
import subprocess
import sys

import pytest

import locglob as lg
from locglob.errors import (AtlasConsistencyError, AtlasCoverError,
                            ValidationError)

from conftest import full_wide


def test_germ_at_validation(sp_sier):
    g = lg.pair_groupoid({"1", "2"})
    full = full_wide(g, g.objects)
    with pytest.raises(ValidationError, match="open"):
        closed_chart = lg.wide_subgroupoid(g, {"1"})
        lg.germ_at(sp_sier, closed_chart, "1")
    with pytest.raises(ValidationError, match="'1'"):
        open_chart = lg.wide_subgroupoid(g, {"2"})
        lg.germ_at(sp_sier, open_chart, "1")
    germ = lg.germ_at(sp_sier, full, "2")
    assert germ.rep.base == frozenset({"2"})
    assert germ.rep.arrows == frozenset({"2:2"})


def test_germ_canonicalisation_shrinks_to_minimal(sp_sier):
    # germs of the same chart at the same point are equal no matter how
    # the chart domain is cut down, as long as it stays open
    g = lg.pair_groupoid({"1", "2"})
    full = full_wide(g, g.objects)
    small = lg.restrict_wide(full, {"2"})
    assert lg.germ_at(sp_sier, full, "2") == lg.germ_at(sp_sier, small, "2")


def test_germ_leq(sp_sier):
    g = lg.pair_groupoid({"1", "2"})
    low = lg.germ_at(sp_sier, lg.wide_subgroupoid(g, g.objects), "1")
    high = lg.germ_at(sp_sier, full_wide(g, g.objects), "1")
    assert lg.germ_leq(low, high)
    assert not lg.germ_leq(high, low)
    assert lg.germ_leq(low, low)
    with pytest.raises(ValidationError, match="different points"):
        lg.germ_leq(low, lg.germ_at(sp_sier, full_wide(g, g.objects), "2"))


def test_atlas_cover_error(sp_nc, nc_pair):
    chart = lg.wide_subgroupoid(nc_pair, {"x", "p", "q"})
    with pytest.raises(AtlasCoverError, match="missing"):
        lg.Atlas(sp_nc, ((frozenset({"x", "p", "q"}), chart),))


def test_atlas_consistency_error():
    space = lg.space_from_basis({"1", "2", "3"}, [{"1", "2"}, {"2", "3"}])
    fibers = {p: lg.cyclic_group(2) for p in space.points}
    g = lg.group_bundle(space.points, fibers)
    c1 = lg.wide_subgroupoid(g, {"1", "2"}, {"1#1"})
    c2 = lg.wide_subgroupoid(g, {"2", "3"}, {"2#1"})
    with pytest.raises(AtlasConsistencyError) as exc:
        lg.Atlas(space, ((frozenset({"1", "2"}), c1),
                         (frozenset({"2", "3"}), c2)))
    assert exc.value.point == "2"
    assert exc.value.charts == (0, 1)


def test_atlas_accepts_redundant_chart(sp_nc, nc_pair, a_nc, s_nc):
    extra = (frozenset({"p"}), lg.wide_subgroupoid(nc_pair, {"p"}))
    bigger = lg.Atlas(sp_nc, a_nc.charts + (extra,))
    assert lg.section_from_atlas(bigger) == s_nc


def test_section_from_atlas_rejects_the_empty_atlas():
    empty = lg.Atlas(lg.space_from_basis(set(), []), ())
    with pytest.raises(ValidationError, match="empty atlas"):
        lg.section_from_atlas(empty)


def test_atlas_chart_validation(sp_sier):
    g = lg.pair_groupoid({"1", "2"})
    with pytest.raises(ValidationError, match="not an open set"):
        lg.Atlas(sp_sier, ((frozenset({"1"}),
                            lg.wide_subgroupoid(g, {"1"})),
                           (frozenset({"1", "2"}),
                            full_wide(g, g.objects))))


def test_nc_section_germs(sp_nc, s_nc):
    expected = {
        "p": {"p:p"},
        "q": {"q:q"},
        "r": {"r:r"},
        "x": {"x:x", "p:p", "q:q"},
        "y": {"y:y", "p:p", "r:r", "p:r", "r:p"},
        "z": {"z:z", "q:q", "r:r", "q:r", "r:q"},
    }
    for point, arrows in expected.items():
        germ = s_nc.germs[point]
        assert germ.rep.base == sp_nc.minimal_open(point)
        assert germ.rep.arrows == frozenset(arrows)


def test_section_gluing_enforced():
    space = lg.space_from_basis({"1", "2", "3"}, [])
    g = lg.pair_groupoid(space.points)
    ids = lg.wide_subgroupoid(g, g.objects)
    full = full_wide(g, g.objects)
    germs = {x: lg.Germ(x, ids) for x in space.points}
    germs["2"] = lg.Germ("2", full)
    with pytest.raises(ValidationError, match="gluing"):
        lg.LocalSubgroupoid(space, g, germs)


def test_section_requires_minimal_bases(sp_sier):
    g = lg.pair_groupoid({"1", "2"})
    full = full_wide(g, g.objects)
    germs = {"1": lg.Germ("1", full), "2": lg.Germ("2", full)}
    with pytest.raises(ValidationError, match="minimal"):
        lg.LocalSubgroupoid(sp_sier, g, germs)


def test_loc_of_full_subgroupoid(sp_nc, nc_pair):
    section = lg.loc(sp_nc, full_wide(nc_pair, nc_pair.objects))
    assert section.germs["x"].rep.arrows == frozenset(
        a for a in nc_pair.arrow_ids
        if nc_pair.source[a] in {"x", "p", "q"}
        and nc_pair.target[a] in {"x", "p", "q"})
    with pytest.raises(ValidationError, match="whole space"):
        lg.loc(sp_nc, lg.wide_subgroupoid(nc_pair, {"p", "q"}))


def test_glob_of_nc_section(nc_pair, s_nc):
    expected = nc_pair.identity_ids | frozenset(
        {"p:q", "q:p", "p:r", "r:p", "q:r", "r:q"})
    assert lg.glob(s_nc).arrows == expected


def test_restrict_section(sp_nc, s_nc):
    inner = lg.restrict_section(s_nc, {"p", "q", "r"})
    assert inner.space.points == frozenset({"p", "q", "r"})
    assert inner.germs["p"].rep.arrows == frozenset({"p:p"})
    front = lg.restrict_section(s_nc, {"x", "p", "q"})
    assert front.germs["x"].rep.arrows == frozenset({"x:x", "p:p", "q:q"})
    with pytest.raises(ValidationError, match="open"):
        lg.restrict_section(s_nc, {"x", "y"})


def test_section_leq(sp_ind2):
    # the section order is the germ order at every point
    g = lg.pair_groupoid({"1", "2"})
    low = lg.loc(sp_ind2, lg.wide_subgroupoid(g, g.objects))
    high = lg.loc(sp_ind2, full_wide(g, g.objects))
    for x in sp_ind2.points:
        assert lg.germ_leq(low.germs[x], high.germs[x])
        assert not lg.germ_leq(high.germs[x], low.germs[x])
        assert lg.germ_leq(low.germs[x], low.germs[x])


def test_generated_from_atlas_matches_glob(a_nc, s_nc):
    # glob(s) is generated by the union of the charts of any atlas of s
    seed = set().union(*(sub.arrows for _, sub in a_nc.charts))
    generated = lg.generate_wide(a_nc.parent, a_nc.space.points, seed)
    assert generated == lg.glob(s_nc)


def test_refines(sp_nc, a_nc, s_nc):
    canonical = lg.canonical_atlas(s_nc)
    assert lg.section_from_atlas(canonical) == s_nc
    assert lg.refines(canonical, a_nc)
    assert lg.refines(canonical, canonical)
    single = lg.Atlas(sp_nc, ((sp_nc.points, lg.glob(s_nc)),))
    assert not lg.refines(a_nc, single)
    assert lg.refines(lg.canonical_atlas(lg.section_from_atlas(single)),
                      single)


def test_canonical_atlas_dedupes():
    space = lg.space_from_basis({"1", "2"}, [])
    g = lg.pair_groupoid(space.points)
    section = lg.loc(space, full_wide(g, g.objects))
    atlas = lg.canonical_atlas(section)
    # both points share one minimal neighbourhood, so one chart remains
    assert len(atlas.charts) == 1


# each script builds a value that fails one validator at several
# witnesses; the one named must be the least in sorted order, whatever
# the set order
MANY_WITNESSES = {
    # m(a) holds b and m(c) holds d; the germs at b and d drop the loop
    # that rep(a) and rep(c) hold there
    "gluing": ("""
space = lg.space_from_basis("abcd", [{"a", "b"}, {"b"}, {"c", "d"}, {"d"}])
g = lg.group_bundle("abcd", dict.fromkeys("abcd", lg.cyclic_group(2)))
full = lg.wide_subgroupoid(g, space.points, g.arrow_ids)
germs = {x: lg.germ_at(space, full, x) for x in "ac"}
germs.update({x: lg.Germ(x, lg.wide_subgroupoid(g, {x})) for x in "bd"})
lg.LocalSubgroupoid(space, g, germs)
""", "gluing law fails from 'a' to 'b'"),
    "unknown-open-label": ("""
lg.FiniteSpace({"a"}, [set(), {"a"}, {"a", "x"}, {"a", "y"}, {"a", "z"}])
""", "open set contains unknown labels: ['x']"),
}


@pytest.mark.parametrize("name", sorted(MANY_WITNESSES))
def test_validators_name_the_least_witness_under_every_hash_seed(name):
    body, message = MANY_WITNESSES[name]
    for seed in ("0", "1", "2", "3", "5"):
        proc = subprocess.run(
            [sys.executable, "-c", "import locglob as lg\n" + body],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 1, (seed, proc.stderr)
        assert proc.stderr.splitlines()[-1] == (
            f"locglob.errors.ValidationError: {message}"), seed
