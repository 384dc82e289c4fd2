"""Acceptance gate: twelve checks, one printed PASS line each.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

import locglob as lg
from locglob.oracle import (component_clopenness_by_scan, cross_check_glob,
                            glob_by_subgroupoid_defn)
from locglob.instance_io import load_instance, parse_instance, serialize_instance
from locglob.cli import _section_source

from conftest import fixture_path, full_wide

SECTION_FIXTURES = [
    "nc_pair_atlas.json",
    "sier_bundle.json",
    "disc2_pair_full.json",
    "ind2_pair_full.json",
    "identities_single_chart.json",
    "rel_k2.json",
]


def _ok(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _named_spaces():
    return {
        "disc2": lg.space_from_basis({"1", "2"}, [{"1"}, {"2"}]),
        "ind2": lg.space_from_basis({"1", "2"}, []),
        "sier": lg.space_from_basis({"1", "2"}, [{"2"}]),
        "nc": lg.space_from_basis(
            {"x", "y", "z", "p", "q", "r"},
            [{"x", "p", "q"}, {"y", "p", "r"}, {"z", "r", "q"},
             {"p"}, {"q"}, {"r"}]),
    }


def test_c01_three_way_globalisation_agreement(suite36, s_nc, a_nc):
    started = time.monotonic()
    checked = 0
    for _, section, atlas in suite36.iter_sections():
        cross_check_glob(section, atlas)
        checked += 1
    cross_check_glob(s_nc, a_nc, max_arrows=32)
    checked += 1
    for name in SECTION_FIXTURES:
        parsed = load_instance(fixture_path(name))
        section, atlas = _section_source(parsed)
        cross_check_glob(section, atlas, max_arrows=32)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 370
    assert elapsed < 60.0
    _ok(1, f"three-way globalisation agreement on {checked} sections "
           f"in {elapsed:.1f}s")


def test_c02_identity_groupoid_sections_globally_coherent():
    for label, space in _named_spaces().items():
        g = lg.group_bundle(space.points,
                            dict.fromkeys(space.points, lg.cyclic_group(1)))
        wide = full_wide(g, g.objects)
        section = lg.loc(space, wide)
        report = lg.coherence_report(section)
        assert report.coherent and report.globally_coherent, label
        locally, coherent = lg.subgroupoid_coherence(space, wide)
        assert locally and coherent, label
    _ok(2, "identity groupoid sections globally coherent on all "
           "named spaces")


def test_c03_group_bundles_globally_coherent():
    named = _named_spaces()
    spaces = [named["sier"], named["disc2"], named["ind2"]]
    spaces += lg.all_topologies(1) + lg.all_topologies(2) + lg.all_topologies(3)
    for space in spaces:
        fibers = {p: lg.cyclic_group(2) for p in space.points}
        g = lg.group_bundle(space.points, fibers)
        full = full_wide(g, g.objects)
        section = lg.loc(space, full)
        assert lg.coherence_report(section).globally_coherent
        assert lg.glob(section) == full
    _ok(3, f"order-two bundles globally coherent on {len(spaces)} spaces")


def test_c04_nc_fixture_coherent_but_not_globally(sp_nc, s_nc):
    report = lg.coherence_report(s_nc)
    assert report.coherent
    assert not report.globally_coherent
    fast = lg.glob(s_nc)
    confirmed = glob_by_subgroupoid_defn(s_nc, max_arrows=32)
    assert fast == confirmed
    components = lg.transitivity_components(fast)
    assert components == frozenset({
        frozenset({"x"}), frozenset({"y"}), frozenset({"z"}),
        frozenset({"p", "q", "r"})})
    _ok(4, "fixture section coherent but not globally coherent, "
           "components confirmed by definition oracle")


def test_c05_connected_components_force_globalisation(suite36):
    hypothesis_cases = 0
    for inst in suite36.instances:
        g = inst.groupoid
        for wide in lg.enumerate_wide_subgroupoids(g, g.objects):
            comps = lg.transitivity_components(wide)
            if not all(len(lg.connected_components(inst.space, c)) == 1
                       for c in comps):
                continue
            hypothesis_cases += 1
            assert lg.glob(lg.loc(inst.space, wide)) == wide
    assert hypothesis_cases >= 100
    _ok(5, f"connected components force globalisation in "
           f"{hypothesis_cases} cases")


def _two_element_open_covers(space):
    opens = [o for o in lg.enumerate_opens(space) if o]
    for u, v in itertools.combinations(opens, 2):
        if u | v == space.points:
            yield [u, v]


def test_c06_cover_components_relatively_clopen(suite36):
    checks = 0
    for inst in suite36.instances:
        space, g = inst.space, inst.groupoid
        covers = [[space.minimal_open(x) for x in space.points]]
        covers.extend(_two_element_open_covers(space))
        for wide in lg.enumerate_wide_subgroupoids(g, g.objects):
            section = lg.loc(space, wide)
            for cover in covers:
                report = lg.verify_component_clopenness(section, wide, cover)
                assert report.status == "pass"
                # the checker answers by a lemma; its scan must agree
                assert component_clopenness_by_scan(
                    section, wide, cover) == (True, None)
                checks += 1
    assert checks >= 1000
    _ok(6, f"cover components relatively clopen in {checks} checks")


def test_c07_neighbourhood_connectivity_implies_coherence(suite36):
    hypothesis_cases = 0
    for inst in suite36.instances:
        g = inst.groupoid
        for wide in lg.enumerate_wide_subgroupoids(g, g.objects):
            report = lg.verify_local_connectivity_coherence(inst.space, wide)
            assert report.status != "counterexample"
            if report.hypothesis_holds:
                hypothesis_cases += 1
    assert hypothesis_cases >= 100
    _ok(7, f"neighbourhood connectivity implies coherence in "
           f"{hypothesis_cases} cases")


def test_c08_foliation_component_certificates(suite36, s_nc, a_nc):
    statuses = {"pass": 0, "counterexample": 0}
    for _, section, atlas in suite36.iter_sections():
        report = lg.verify_foliation_components(section, atlas)
        assert report.hypothesis_holds
        statuses[report.status] += 1
    nc_report = lg.verify_foliation_components(s_nc, a_nc)
    assert nc_report.status == "counterexample"
    with open(fixture_path("golden/foliation_nc_report.json")) as fh:
        golden = json.load(fh)
    assert nc_report.as_dict() == golden
    _ok(8, f"foliation component certificates on all sections "
           f"({statuses['pass']} pass, {statuses['counterexample']} "
           f"recorded counterexamples, fixture outcome matches golden "
           f"report)")


def test_c09_every_section_coherent(suite36):
    count = 0
    for _, section, _ in suite36.iter_sections():
        assert lg.coherence_report(section).coherent
        count += 1
    assert count >= 300
    _ok(9, f"every generated section coherent ({count} sections)")


def _section_leq(lower, upper) -> bool:
    """The section order: the germ order at every point."""
    return all(lg.germ_leq(lower.germs[x], upper.germs[x])
               for x in lower.space.points)


def test_c10_order_and_closure_laws(suite36, sp_nc, nc_pair):
    counts = {
        "germ_order": 0,
        "section_order": 0,
        "loc_monotone": 0,
        "glob_monotone": 0,
        "glob_loc_deflationary": 0,
        "generate_extensive": 0,
        "generate_monotone": 0,
        "generate_idempotent": 0,
    }

    enumerated = {}
    for inst in suite36.instances:
        enumerated[inst] = lg.enumerate_wide_subgroupoids(
            inst.groupoid, inst.groupoid.objects)

    # germ order: reflexive, antisymmetric, transitive at each point
    for inst in suite36.instances:
        for x in inst.space.points:
            germs = [lg.germ_at(inst.space, h, x) for h in enumerated[inst]]
            for g1, g2 in itertools.product(germs, repeat=2):
                if lg.germ_leq(g1, g2) and lg.germ_leq(g2, g1):
                    assert g1 == g2
                counts["germ_order"] += 1
            for g1, g2, g3 in itertools.product(germs[:6], repeat=3):
                if lg.germ_leq(g1, g2) and lg.germ_leq(g2, g3):
                    assert lg.germ_leq(g1, g3)

    # section order: reflexive, antisymmetric; glob monotone on top
    for inst in suite36.instances:
        sections = inst.sections
        globs = {s: lg.glob(s) for s in sections}
        for s, t in itertools.product(sections, repeat=2):
            low, high = _section_leq(s, t), _section_leq(t, s)
            if s is t:
                assert low and high
            if low and high:
                assert s == t
            if low:
                assert globs[s].arrows <= globs[t].arrows
                counts["glob_monotone"] += 1
            counts["section_order"] += 1
        for s, t, u in itertools.product(sections[:6], repeat=3):
            if _section_leq(s, t) and _section_leq(t, u):
                assert _section_leq(s, u)

    # loc monotone and glob(loc(H)) below H, on the suite and on the
    # larger fixture space
    pools = [(inst.space, enumerated[inst]) for inst in suite36.instances]
    pools.append((sp_nc, lg.enumerate_wide_subgroupoids(
        nc_pair, nc_pair.objects, max_arrows=32)))
    for space, subgroupoids in pools:
        locs = {h: lg.loc(space, h) for h in subgroupoids}
        globs = {h: lg.glob(locs[h]) for h in subgroupoids}
        for h in subgroupoids:
            assert globs[h].arrows <= h.arrows
            counts["glob_loc_deflationary"] += 1
        for h1, h2 in itertools.combinations(subgroupoids, 2):
            small, big = ((h1, h2) if h1.arrows <= h2.arrows
                          else (h2, h1) if h2.arrows <= h1.arrows
                          else (None, None))
            if small is None:
                continue
            assert _section_leq(locs[small], locs[big])
            counts["loc_monotone"] += 1
            assert globs[small].arrows <= globs[big].arrows
            counts["glob_monotone"] += 1

    # generated closures: extensive, monotone, idempotent on seeded
    # arrow sets drawn with a fixed generator
    g4 = lg.pair_groupoid({"1", "2", "3", "4"})
    free = sorted(g4.arrow_ids - g4.identity_ids)
    rng = random.Random(0)
    for _ in range(600):
        first = frozenset(rng.sample(free, rng.randint(0, 4)))
        second = frozenset(rng.sample(free, rng.randint(0, 4)))
        h1 = lg.generate_wide(g4, g4.objects, first)
        assert first <= h1.arrows
        counts["generate_extensive"] += 1
        h12 = lg.generate_wide(g4, g4.objects, first | second)
        assert h1.arrows <= h12.arrows
        counts["generate_monotone"] += 1
        assert lg.generate_wide(g4, g4.objects, h1.arrows) == h1
        counts["generate_idempotent"] += 1

    for label, count in counts.items():
        assert count >= 500, (label, count)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    _ok(10, f"order and closure laws ({summary})")


def test_c11_anchor_round_trip():
    checked = 0
    for n in (1, 2, 3):
        points = {str(i + 1) for i in range(n)}
        pg = lg.pair_groupoid(points)
        for relation in lg.enumerate_wide_subgroupoids(pg, pg.objects):
            product = lg.rel_times_group(relation, lg.cyclic_group(2))
            # the anchor sends each arrow to its (source, target) pair
            image = {f"{product.source[a]}:{product.target[a]}"
                     for a in product.arrow_ids}
            assert image == relation.arrows
            checked += 1
    assert checked == 8
    _ok(11, f"anchor round trip on all {checked} equivalence relations")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "locglob", *args],
                          capture_output=True, text=True)


def test_c12_cli_round_trip_and_error_categories():
    for name in SECTION_FIXTURES:
        first = load_instance(fixture_path(name))
        doc = serialize_instance(first)
        second = parse_instance(json.loads(json.dumps(doc)))
        assert serialize_instance(second) == doc

    proc = _run_cli("analyze", "--input",
                    fixture_path("invalid_unknown_label.json"))
    assert proc.returncode == 2
    assert "error[validation]" in proc.stderr

    proc = _run_cli("analyze", "--input",
                    fixture_path("invalid_endpoint.json"))
    assert proc.returncode == 2
    assert "error[endpoint-mismatch]" in proc.stderr

    proc = _run_cli("analyze", "--input", fixture_path("invalid_assoc.json"))
    assert proc.returncode == 2
    assert "error[associativity]" in proc.stderr
    assert "('v#a', 'v#a', 'v#b')" in proc.stderr

    _ok(12, "command line round trips all fixtures and reports error "
            "categories")
