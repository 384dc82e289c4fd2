import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import locglob as lg
from locglob.errors import (AssociativityError, EndpointMismatchError,
                            InverseLawError, MissingIdentityError,
                            ResourceLimitError, ValidationError)
from locglob.groupoids import MAX_REGIONS, _arrow_closure
from locglob.oracle import _arrows_inside

from conftest import fixture_path, full_wide, subsets

PAIR4 = lg.pair_groupoid({"1", "2", "3", "4"})
NON_ID4 = sorted(PAIR4.arrow_ids - PAIR4.identity_ids)
# non-abelian enough for closure: composites in either order differ
REL3_Z3 = lg.rel_times_group(
    full_wide(lg.pair_groupoid({"1", "2", "3"}), {"1", "2", "3"}),
    lg.cyclic_group(3))


def _perturbed_pair(points=("1", "2"), **overrides):
    g = lg.pair_groupoid(set(points))
    parts = {"objects": g.objects, "source": dict(g.source),
             "target": dict(g.target), "identity": dict(g.identity),
             "inverse": dict(g.inverse), "table": dict(g.composites())}
    parts.update(overrides)
    return lg.Groupoid(**parts)


def test_validate_accepts_constructions():
    lg.validate_groupoid(lg.pair_groupoid({"1", "2", "3"}))
    fibers = {p: lg.cyclic_group(2) for p in ("1", "2")}
    lg.validate_groupoid(lg.group_bundle({"1", "2"}, fibers))
    rel = full_wide(lg.pair_groupoid({"1", "2"}), {"1", "2"})
    lg.validate_groupoid(lg.rel_times_group(rel, lg.cyclic_group(2)))


def test_validate_missing_identity():
    g = lg.pair_groupoid({"1", "2"})
    identity = dict(g.identity)
    del identity["2"]
    with pytest.raises(MissingIdentityError, match="'2'"):
        lg.validate_groupoid(_perturbed_pair(identity=identity))


def test_validate_endpoint_redirect():
    g = lg.pair_groupoid({"1", "2"})
    table = dict(g.composites())
    table[("1:2", "2:1")] = "2:2"
    with pytest.raises(EndpointMismatchError, match="should run"):
        lg.validate_groupoid(_perturbed_pair(table=table))


def test_validate_inverse_law():
    g = lg.pair_groupoid({"1", "2"})
    inverse = dict(g.inverse)
    inverse["1:2"] = "2:2"
    with pytest.raises(InverseLawError, match="'1:2'"):
        lg.validate_groupoid(_perturbed_pair(inverse=inverse))


def test_validate_missing_composable_entry():
    g = lg.pair_groupoid({"1", "2"})
    table = dict(g.composites())
    del table[("1:2", "2:1")]
    with pytest.raises(ValidationError, match="missing"):
        lg.validate_groupoid(_perturbed_pair(table=table))


def test_validate_names_the_least_missing_composable_pair():
    g = lg.pair_groupoid({"1", "2", "3"})
    table = dict(g.composites())
    for pair in (("3:1", "1:2"), ("2:3", "3:2"), ("2:3", "3:1")):
        del table[pair]
    # arrows listed against the sorted order: the scan order is the sort's
    source = dict(sorted(g.source.items(), reverse=True))
    with pytest.raises(ValidationError) as exc:
        lg.validate_groupoid(_perturbed_pair(("1", "2", "3"), source=source,
                                             table=table))
    assert str(exc.value) == (
        "composition missing for composable pair ('2:3', '3:1')")


# an order-four loop table with a*a redirected to the unit; the unit and
# inverse laws survive the perturbation, associativity does not
LOOP4_MUL = {
    ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b", ("e", "c"): "c",
    ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "c", ("a", "c"): "e",
    ("b", "e"): "b", ("b", "a"): "c", ("b", "b"): "e", ("b", "c"): "a",
    ("c", "e"): "c", ("c", "a"): "e", ("c", "b"): "a", ("c", "c"): "b"}
LOOP4_INVERSE = {"e": "e", "a": "c", "b": "b", "c": "a"}


def test_validate_associativity_names_triple():
    arrows = ["v#e", "v#a", "v#b", "v#c"]
    g = lg.Groupoid(
        objects=frozenset({"v"}),
        source={a: "v" for a in arrows},
        target={a: "v" for a in arrows},
        identity={"v": "v#e"},
        inverse={f"v#{k}": f"v#{v}" for k, v in LOOP4_INVERSE.items()},
        table={(f"v#{k1}", f"v#{k2}"): f"v#{v}"
               for (k1, k2), v in LOOP4_MUL.items()})
    with pytest.raises(AssociativityError) as exc:
        lg.validate_groupoid(g)
    assert exc.value.triple == ("v#a", "v#a", "v#b")


def test_validate_names_the_least_failing_triple_over_many_objects():
    # the pair groupoid on u, v times the loop table: k:xy runs x -> y;
    # arrows listed against the sorted order: the scan order is the sort's
    objects = ("u", "v")
    named = {f"{k}:{x}{y}": (k, x, y)
             for k in "ecba" for x in "vu" for y in "vu"}
    g = lg.Groupoid(
        objects=frozenset(objects),
        source={a: x for a, (_, x, _) in named.items()},
        target={a: y for a, (_, _, y) in named.items()},
        identity={x: f"e:{x}{x}" for x in objects},
        inverse={a: f"{LOOP4_INVERSE[k]}:{y}{x}"
                 for a, (k, x, y) in named.items()},
        table={(a, b): f"{LOOP4_MUL[k, m]}:{x}{z}"
               for a, (k, x, y) in named.items()
               for b, (m, w, z) in named.items() if y == w})
    arrows = sorted(named)
    failing = [(a, b, c) for a, b, c in itertools.product(arrows, repeat=3)
               if g.target[a] == g.source[b] and g.target[b] == g.source[c]
               and g.table[g.table[a, b], c] != g.table[a, g.table[b, c]]]
    assert len(failing) > 100
    with pytest.raises(AssociativityError) as exc:
        lg.validate_groupoid(g)
    assert exc.value.triple == min(failing) == ("a:uu", "a:uu", "b:uu")


def test_wide_subgroupoid_must_be_closed():
    g = lg.pair_groupoid({"1", "2", "3"})
    ids = {g.identity[x] for x in g.objects}
    with pytest.raises(ValidationError, match="composition"):
        lg.WideSubgroupoid(g, g.objects,
                           frozenset(ids | {"1:2", "2:1", "2:3", "3:2"}))
    with pytest.raises(ValidationError, match="inverse"):
        lg.WideSubgroupoid(g, g.objects, frozenset(ids | {"1:2"}))
    with pytest.raises(ValidationError, match="not wide"):
        lg.WideSubgroupoid(g, g.objects, frozenset(ids - {"3:3"}))
    with pytest.raises(ValidationError, match="leaves the base"):
        lg.WideSubgroupoid(g, {"1", "2"},
                           frozenset({"1:1", "2:2", "2:3", "3:2"}))


def test_wide_subgroupoid_helper_adds_identities():
    g = lg.pair_groupoid({"1", "2"})
    h = lg.wide_subgroupoid(g, {"1", "2"}, {"1:2", "2:1"})
    assert h.arrows == g.arrow_ids
    assert lg.wide_subgroupoid(g, g.objects).arrows == g.identity_ids
    assert full_wide(g, g.objects) == h


def test_restrict_and_full_restriction(sp_nc, nc_pair):
    full = full_wide(nc_pair, nc_pair.objects)
    cut = lg.restrict_wide(full, {"p", "q"})
    assert cut.arrows == frozenset({"p:p", "q:q", "p:q", "q:p"})
    small = lg.full_restriction(nc_pair, {"p", "q"})
    assert small.objects == frozenset({"p", "q"})
    assert small == lg.pair_groupoid({"p", "q"})
    with pytest.raises(ValidationError):
        lg.restrict_wide(cut, {"p", "r"})


def test_generate_wide_example():
    g = lg.pair_groupoid({"1", "2", "3"})
    h = lg.generate_wide(g, g.objects, {"1:2", "2:3"})
    assert h == full_wide(g, g.objects)
    two = lg.generate_wide(g, g.objects, {"1:2"})
    assert two.arrows == frozenset({"1:1", "2:2", "3:3", "1:2", "2:1"})


@st.composite
def seeded_groupoids(draw):
    g = draw(st.sampled_from([PAIR4, REL3_Z3]))
    free = sorted(g.arrow_ids - g.identity_ids)
    return g, draw(st.frozensets(st.sampled_from(free)))


@settings(max_examples=100, deadline=None)
@given(seeded_groupoids())
def test_generate_wide_laws(case):
    g, seed = case
    base = g.objects
    h = lg.generate_wide(g, base, seed)
    assert seed <= h.arrows
    # the public constructor re-checks identities, inverses, composites
    assert lg.WideSubgroupoid(g, base, h.arrows) == h
    again = lg.generate_wide(g, base, h.arrows)
    assert again == h


@settings(max_examples=100, deadline=None)
@given(seeded_groupoids(), st.data())
def test_closure_from_a_closed_start(case, data):
    # closing s2 onto K = closure(s1) works only the new arrows; it must
    # reach the closure of K | s2 taken from the identities
    g, first = case
    free = sorted(g.arrow_ids - g.identity_ids)
    second = data.draw(st.frozensets(st.sampled_from(free)))
    base = g.objects
    closed = _arrow_closure(g, base, first)
    assert (_arrow_closure(g, base, second, closed)
            == _arrow_closure(g, base, closed | second))


@settings(max_examples=100, deadline=None)
@given(first=st.frozensets(st.sampled_from(NON_ID4)),
       second=st.frozensets(st.sampled_from(NON_ID4)))
def test_generate_wide_monotone(first, second):
    base = PAIR4.objects
    small = lg.generate_wide(PAIR4, base, first)
    big = lg.generate_wide(PAIR4, base, first | second)
    assert small.arrows <= big.arrows


def _all_pairs_composition_message(g, arrows):
    """The constructor's composition message from a scan of all |H|^2
    pairs, with the number of pairs missing a composite."""
    missing = [(a, b) for a in arrows for b in arrows
               if g.target[a] == g.source[b] and g.table[a, b] not in arrows]
    least = min(missing, key=lambda w: tuple(map(str, w)), default=None)
    if least is None:
        return None, 0
    return ("not closed under composition at ({!r}, {!r})".format(*least),
            len(missing))


@settings(max_examples=80, deadline=None)
@given(seeded_groupoids())
def test_closure_check_names_the_all_pairs_least_witness(case):
    # wide and closed under inverse, so only composition can fail
    g, chosen = case
    arrows = g.identity_ids | chosen | {g.inverse[a] for a in chosen}
    message, missing = _all_pairs_composition_message(g, arrows)
    assume(missing >= 2)
    with pytest.raises(ValidationError) as exc:
        lg.WideSubgroupoid(g, g.objects, arrows)
    assert str(exc.value) == message


def test_transitivity_components():
    g = lg.pair_groupoid({"1", "2", "3"})
    h = lg.generate_wide(g, g.objects, {"1:2"})
    assert lg.transitivity_components(h) == frozenset(
        {frozenset({"1", "2"}), frozenset({"3"})})


def _index_matches_scan(g, regions, wides) -> int:
    """Ask for every region twice, the second answer coming from the
    groupoid's memo, and compare both with the oracle's arrow scan, and
    every restriction to it with a scan of the subgroupoid's arrows;
    returns the number of restrictions compared."""
    restricted = 0
    for region in regions:
        scan = _arrows_inside(g, region)
        assert g.arrows_within(region) == scan
        assert g.arrows_within(set(region)) == scan
        for h in wides:
            if region <= h.base:
                assert lg.restrict_wide(h, region).arrows == frozenset(
                    a for a in h.arrows
                    if g.source[a] in region and g.target[a] in region)
                restricted += 1
    return restricted


def test_region_index_matches_scan_on_the_suite_groupoids(suite36, suite412):
    for suite in (suite36, suite412):
        groupoids = {id(inst.groupoid): inst.groupoid
                     for inst in suite.instances}
        restricted = sum(
            _index_matches_scan(g, subsets(g.objects),
                                lg.enumerate_wide_subgroupoids(g, g.objects))
            for g in groupoids.values())
        assert len(groupoids) == 2 * suite.max_points
        assert restricted > 100


@st.composite
def groupoids_with_regions(draw):
    """A pair groupoid, a bundle of cyclic groups or a random equivalence
    relation times a cyclic group on 1 to 6 points, with random regions
    and a random wide subgroupoid over all its objects."""
    points = [str(i) for i in range(1, draw(st.integers(1, 6)) + 1)]
    kind = draw(st.sampled_from(["pair", "bundle", "relation"]))
    if kind == "pair":
        g = lg.pair_groupoid(points)
    elif kind == "bundle":
        g = lg.group_bundle(points, {
            p: lg.cyclic_group(draw(st.integers(1, 3))) for p in points})
    else:
        pg = lg.pair_groupoid(points)
        relation = lg.generate_wide(pg, points, draw(
            st.sets(st.sampled_from(sorted(pg.arrow_ids)), max_size=4)))
        g = lg.rel_times_group(relation,
                               lg.cyclic_group(draw(st.integers(1, 3))))
    regions = draw(st.lists(st.frozensets(st.sampled_from(points)),
                            min_size=1, max_size=10))
    seed = draw(st.sets(st.sampled_from(sorted(g.arrow_ids)), max_size=4))
    return g, regions, lg.generate_wide(g, points, seed)


@settings(max_examples=80, deadline=None)
@given(groupoids_with_regions())
def test_region_index_matches_scan_on_random_groupoids(case):
    g, regions, h = case
    _index_matches_scan(g, regions, [h, full_wide(g, g.objects)])


def test_region_memo_stays_within_its_bound():
    # 512 regions, twice the bound, asked for twice in the same order:
    # each new region evicts the oldest, and every answer stays right
    g = lg.pair_groupoid(map(str, range(9)))
    h = lg.generate_wide(g, g.objects, {"0:1", "1:2", "3:4", "5:6", "6:8"})
    regions = subsets(g.objects)
    assert len(regions) == 2 * MAX_REGIONS
    for _ in range(2):
        for region in regions:
            _index_matches_scan(g, [region], [h])
            assert len(g._regions) <= MAX_REGIONS
    assert list(g._regions) == regions[-MAX_REGIONS:]


def test_intersect_wide():
    g = lg.pair_groupoid({"1", "2", "3"})
    a = lg.generate_wide(g, g.objects, {"1:2"})
    b = lg.generate_wide(g, g.objects, {"2:3"})
    both = lg.intersect_wide([a, b])
    assert both.arrows == g.identity_ids
    with pytest.raises(ValidationError):
        lg.intersect_wide([])


def test_point_label_restrictions():
    with pytest.raises(ValidationError, match="':'"):
        lg.pair_groupoid({"a:b", "c"})
    with pytest.raises(ValidationError, match="collide"):
        lg.pair_groupoid({1, "1"})


def test_group_bundle_structure():
    fibers = {"1": lg.cyclic_group(2), "2": lg.cyclic_group(2)}
    g = lg.group_bundle({"1", "2"}, fibers)
    assert len(g.arrow_ids) == 4
    assert g.non_identity_count() == 2
    assert all(g.source[a] == g.target[a] for a in g.arrow_ids)
    assert g.compose("1#1", "1#1") == "1#0"


def test_rel_times_group_and_anchor():
    pg = lg.pair_groupoid({"1", "2", "3"})
    rel = lg.generate_wide(pg, pg.objects, {"1:2"})
    g = lg.rel_times_group(rel, lg.cyclic_group(2))
    # five relation pairs, two group elements each
    assert len(g.arrow_ids) == 10
    assert g.compose("1:2#1", "2:1#1") == "1:1#0"
    # the anchor (source, target) maps the arrows onto the relation
    assert {f"{g.source[a]}:{g.target[a]}" for a in g.arrow_ids} == rel.arrows
    with pytest.raises(ValidationError):
        lg.rel_times_group(full_wide(g, g.objects), lg.cyclic_group(2))


def test_groupoid_equality_is_structural():
    assert lg.pair_groupoid({"1", "2"}) == lg.pair_groupoid({"2", "1"})
    discrete = lg.group_bundle({"1", "2"},
                               dict.fromkeys({"1", "2"}, lg.cyclic_group(1)))
    assert lg.pair_groupoid({"1", "2"}) != discrete


def test_finite_group_validation():
    with pytest.raises(ValidationError, match="associative"):
        lg.finite_group({"e", "a", "b"}, "e",
                        {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                         ("a", "e"): "a", ("a", "a"): "b", ("a", "b"): "a",
                         ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "e"})
    with pytest.raises(ValidationError, match="unit"):
        lg.finite_group({"e", "a"}, "e",
                        {("e", "e"): "e", ("e", "a"): "e",
                         ("a", "e"): "a", ("a", "a"): "e"})
    z3 = lg.cyclic_group(3)
    assert z3.inv[1] == 2 and z3.inv[0] == 0


def _s3():
    """The symmetric group on 0, 1, 2: each element is the string of the
    images of 0, 1 and 2, and the product "p then q" sends i to q(p(i))."""
    perms = ["".join(p) for p in itertools.permutations("012")]
    mul = {(p, q): "".join(q[int(p[i])] for i in range(3))
           for p in perms for q in perms}
    return lg.finite_group(perms, "012", mul)


TWIN_GROUPS = {"Z1": lg.cyclic_group(1), "Z2": lg.cyclic_group(2),
               "Z3": lg.cyclic_group(3), "S3": _s3()}


def _pair_id(x, y, k):
    return f"{x}:{y}"


def _bundle_id(x, y, k):
    return f"{x}#{k}"


def _rel_id(x, y, k):
    return f"{x}:{y}#{k}"


def _twin_cases():
    """(case id, builder of the groupoid, relation pairs, group over each
    point, arrow id of (x, y, k)) for the built-in kinds on 1 to 5
    points, with the id formats the kinds document: p:q, p#k and x:y#k.
    Each test builds its groupoid afresh, with nothing composed yet."""
    trivial = TWIN_GROUPS["Z1"]
    for n in range(1, 6):
        points = [str(i) for i in range(1, n + 1)]
        full = [(x, y) for x in points for y in points]
        diagonal = [(x, x) for x in points]
        parity = [(x, y) for x, y in full if int(x) % 2 == int(y) % 2]
        on_trivial = dict.fromkeys(points, trivial)
        yield (f"pair-{n}", lambda p=points: lg.pair_groupoid(p), full,
               on_trivial, _pair_id)
        pg = lg.pair_groupoid(points)
        # the discrete groupoid: the diagonal relation times Z/1
        diag_rel = lg.wide_subgroupoid(pg, points)
        yield (f"identity-{n}",
               lambda r=diag_rel: lg.rel_times_group(r, trivial),
               diagonal, on_trivial, _rel_id)
        groups = list(TWIN_GROUPS.values())
        mixed = {x: groups[i % len(groups)] for i, x in enumerate(points)}
        for name, fibers in [*((g, dict.fromkeys(points, grp))
                               for g, grp in TWIN_GROUPS.items()),
                             ("mixed", mixed)]:
            yield (f"bundle-{name}-{n}",
                   lambda p=points, f=fibers: lg.group_bundle(p, f),
                   diagonal, fibers, _bundle_id)
        for rel_name, pairs in (("full", full), ("parity", parity)):
            relation = lg.wide_subgroupoid(
                pg, points, [f"{x}:{y}" for x, y in pairs])
            for name, grp in TWIN_GROUPS.items():
                yield (f"rel-{rel_name}-{name}-{n}",
                       lambda r=relation, h=grp: lg.rel_times_group(r, h),
                       pairs, dict.fromkeys(points, grp), _rel_id)


def _definition(pairs, group_at, name) -> dict:
    """arrow id -> (x, y, k), for every k in the group over x."""
    return {name(x, y, k): (x, y, k)
            for x, y in pairs for k in group_at[x].elements}


def _defined_composite(arrows, group_at, name, a, b):
    """The composite of a then b by the definition, or None when the
    pair is not composable."""
    (x, y, k1), (w, z, k2) = arrows[a], arrows[b]
    return name(x, z, group_at[x].mul[k1, k2]) if y == w else None


def _looked_up(table, pair):
    """table[pair], or None where the lookup raises KeyError."""
    try:
        return table[pair]
    except KeyError:
        return None


@pytest.mark.parametrize("case", list(_twin_cases()), ids=lambda c: c[0])
def test_built_in_kinds_match_their_definitions(case):
    # a twin of the shared table builder, written from the definition of
    # a relation times a group: (x, y, k1) then (y, z, k2) is
    # (x, z, k1 k2), and the non-abelian S3 fixes the order of the product
    _, build, pairs, group_at, name = case
    g = build()
    arrows = _definition(pairs, group_at, name)
    # lookups first, on the fresh table: each composite is worked out on
    # demand, and a pair that is not composable raises KeyError
    assert len(g.table) == 0
    for a in sorted(arrows):
        for b in sorted(arrows):
            assert (_looked_up(g.table, (a, b))
                    == _defined_composite(arrows, group_at, name, a, b))
    composable = {(a, b) for a in arrows for b in arrows
                  if arrows[a][1] == arrows[b][0]}
    assert set(g.composites()) == composable
    lg.validate_groupoid(g)
    assert g.arrow_ids == set(arrows)
    assert g.objects == {x for x, _ in pairs}
    for a, (x, y, k) in arrows.items():
        grp = group_at[x]
        assert (g.source[a], g.target[a]) == (x, y)
        assert g.inverse[a] == name(y, x, grp.inv[k])
        if x == y and k == grp.unit:
            assert g.identity[x] == a


FIBRES = [lg.cyclic_group(n) for n in range(1, 5)] + [TWIN_GROUPS["S3"]]


@st.composite
def built_in_kinds(draw):
    """A random relation times a group, as (builder, relation pairs,
    group over each point, arrow id of (x, y, k)): the pair groupoid on
    1 to 5 points, a bundle of Z/1 to Z/4 and S3 fibres, or a random
    equivalence relation times one of those groups."""
    points = [str(i) for i in range(1, draw(st.integers(1, 5)) + 1)]
    kind = draw(st.sampled_from(["pair", "bundle", "rel"]))
    if kind == "pair":
        return (lambda: lg.pair_groupoid(points),
                [(x, y) for x in points for y in points],
                dict.fromkeys(points, TWIN_GROUPS["Z1"]), _pair_id)
    if kind == "bundle":
        fibers = {x: draw(st.sampled_from(FIBRES)) for x in points}
        return (lambda: lg.group_bundle(points, fibers),
                [(x, x) for x in points], fibers, _bundle_id)
    block = {x: draw(st.integers(0, len(points) - 1)) for x in points}
    pairs = [(x, y) for x in points for y in points if block[x] == block[y]]
    grp = draw(st.sampled_from(FIBRES))
    relation = lg.wide_subgroupoid(lg.pair_groupoid(points), points,
                                   [f"{x}:{y}" for x, y in pairs])
    return (lambda: lg.rel_times_group(relation, grp), pairs,
            dict.fromkeys(points, grp), _rel_id)


def _explicit_twin(g):
    """g through the document round trip, with a plain composition dict."""
    space = lg.space_from_basis(g.objects, [{x} for x in g.objects])
    doc = lg.serialize_instance(lg.ParsedInstance(space, g, None, None))
    twin = lg.parse_instance(doc).groupoid
    assert type(twin.table) is dict
    return twin


@settings(max_examples=80, deadline=None)
@given(built_in_kinds(), st.randoms(use_true_random=False))
def test_lookups_in_any_order_match_the_definition(case, rnd):
    build, pairs, group_at, name = case
    arrows = _definition(pairs, group_at, name)
    ids = sorted(arrows)
    leaving = {x: [b for b in ids if arrows[b][0] == x] for x, _ in pairs}
    explicit = _explicit_twin(build())
    g, fresh = build(), build()
    for _ in range(rnd.randrange(3 * len(ids))):
        a = rnd.choice(ids)
        # mostly composable pairs, some that are not
        b = rnd.choice(leaving[arrows[a][1]] if rnd.random() < 0.7 else ids)
        assert (_looked_up(g.table, (a, b))
                == _defined_composite(arrows, group_at, name, a, b))
    # equality and hash agree with a fresh build and with the explicit
    # twin whatever was looked up
    assert g == fresh and fresh == g and hash(g) == hash(fresh)
    assert g == explicit and explicit == g and hash(g) == hash(explicit)
    assert fresh == explicit and hash(fresh) == hash(explicit)


def _relabelled_cyclic(order, image):
    """Z/order on the labels image[0], ..., image[order - 1]."""
    els = [image[k] for k in range(order)]
    mul = {(image[a], image[b]): image[(a + b) % order]
           for a in range(order) for b in range(order)}
    return lg.finite_group(els, image[0], mul)


def _fields(g):
    return g.objects, g.source, g.target, g.identity, g.inverse


def test_built_in_equality_is_exact():
    points = ["1", "2"]
    z5 = lg.group_bundle(points, dict.fromkeys(points, lg.cyclic_group(5)))
    # 1 <-> 2 and 3 <-> 4 keeps each inverse but is no automorphism, so
    # the relabelled bundle has z5's arrows, ends, identities and
    # inverses and composes differently: 1#1 then 1#1 is 1#3, not 1#2
    swapped = lg.group_bundle(points, dict.fromkeys(
        points, _relabelled_cyclic(5, [0, 2, 1, 4, 3])))
    assert _fields(z5) == _fields(swapped)
    assert z5 != swapped and swapped != z5
    assert swapped.compose("1#1", "1#1") == "1#3"
    assert z5 != _explicit_twin(swapped) and _explicit_twin(z5) != swapped
    # element labels 0, 1, 2 and "0", "1", "2" name the same arrows, so
    # the two bundles are equal, as their explicit twins are
    by_int = lg.group_bundle(points, dict.fromkeys(points,
                                                   lg.cyclic_group(3)))
    by_str = lg.group_bundle(points, dict.fromkeys(
        points, _relabelled_cyclic(3, ["0", "1", "2"])))
    assert by_int == by_str and hash(by_int) == hash(by_str)
    assert _explicit_twin(by_int) == _explicit_twin(by_str)


def test_rel_times_group_over_64_points_stores_few_composites():
    # the pair groupoid on 64 points has 64^3 composable pairs; the
    # relation's closure check stores only what it looks up, and
    # rel_times_group reads the relation's ends and composes nothing
    points = [f"p{i:02d}" for i in range(64)]
    pg = lg.pair_groupoid(points)
    relation = lg.wide_subgroupoid(
        pg, points, [f"{x}:{y}" for i in range(0, 64, 4)
                     for x in points[i:i + 4] for y in points[i:i + 4]])
    checked = len(pg.table)  # the closure check of the relation
    assert checked <= 64 * 4 * 4
    g = lg.rel_times_group(relation, lg.cyclic_group(2))
    assert len(pg.table) == checked and len(g.table) == 0
    assert g.compose("p00:p01#1", "p01:p03#1") == "p00:p03#0"
    assert len(g.table) == 1 < 64 ** 3


def test_full_restriction_looks_up_only_the_composites_inside():
    points = [f"p{i:02d}" for i in range(64)]
    g = lg.pair_groupoid(points)
    small = lg.full_restriction(g, points[:4])
    assert small == lg.pair_groupoid(points[:4])
    stored = len(g.table)
    assert stored <= 4 ** 3 < 64 ** 3


def test_rel_times_group_builds_no_pair_groupoid(monkeypatch):
    pg = lg.pair_groupoid({"1", "2", "3"})
    relation = lg.generate_wide(pg, pg.objects, {"1:2"})

    def refused(points):
        raise AssertionError("rel_times_group built a pair groupoid")
    monkeypatch.setattr(lg.groupoids, "pair_groupoid", refused)
    g = lg.rel_times_group(relation, lg.cyclic_group(2))
    assert len(g.arrow_ids) == 10


def test_rel_times_group_rejects_a_relation_that_is_not_symmetric():
    # the identities and 1:2 without 2:1: one arrow per pair, but the
    # pairs are not all of the block {1, 2}
    pg = lg.pair_groupoid({"1", "2"})
    lopsided = lg.WideSubgroupoid._trusted(
        pg, pg.objects, pg.identity_ids | {"1:2"})
    with pytest.raises(ValidationError, match="equivalence relation"):
        lg.rel_times_group(lopsided, lg.cyclic_group(2))


def test_rel_times_group_accepts_any_parent_with_one_arrow_per_pair():
    points = {"1", "2", "3"}
    bundle = lg.group_bundle(points, dict.fromkeys(points,
                                                   lg.cyclic_group(3)))
    z2 = lg.cyclic_group(2)
    diagonal = lg.wide_subgroupoid(lg.pair_groupoid(points), points)
    assert (lg.rel_times_group(lg.wide_subgroupoid(bundle, points), z2)
            == lg.rel_times_group(diagonal, z2))


REL2 = full_wide(lg.pair_groupoid({"1", "2"}), {"1", "2"})
BUILTIN_KINDS = {  # a constructor call and the arrows it makes
    "pair": (lambda: lg.pair_groupoid({"1", "2", "3"}), 9),
    "bundle": (lambda: lg.group_bundle(
        {"1", "2"}, {"1": lg.cyclic_group(2), "2": lg.cyclic_group(3)}), 5),
    "rel_times_group": (lambda: lg.rel_times_group(REL2, lg.cyclic_group(3)),
                        12),
}


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_builtin_kind_is_built_at_its_arrow_bound(kind, monkeypatch):
    build, arrows = BUILTIN_KINDS[kind]
    monkeypatch.setattr(lg.groupoids, "MAX_BUILTIN_ARROWS", arrows)
    assert len(build().arrow_ids) == arrows


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_builtin_kind_past_its_arrow_bound_builds_no_arrow(kind,
                                                           monkeypatch):
    build, arrows = BUILTIN_KINDS[kind]

    def refused(*args):
        raise AssertionError("built arrows past the bound")
    monkeypatch.setattr(lg.groupoids, "_tabulate", refused)
    monkeypatch.setattr(lg.groupoids, "MAX_BUILTIN_ARROWS", arrows - 1)
    with pytest.raises(ResourceLimitError,
                       match=f"^{arrows} arrows exceeds the built-in "
                             f"groupoid bound of {arrows - 1}$"):
        build()


@pytest.mark.parametrize("name, arrows", [
    ("ind2_pair_full.json", 4), ("sier_bundle.json", 4), ("rel_k2.json", 8)])
def test_documents_meet_the_builtin_arrow_bound(name, arrows, monkeypatch):
    monkeypatch.setattr(lg.groupoids, "MAX_BUILTIN_ARROWS", arrows)
    parsed = lg.load_instance(fixture_path(name))
    assert len(parsed.groupoid.arrow_ids) == arrows
    monkeypatch.setattr(lg.groupoids, "MAX_BUILTIN_ARROWS", arrows - 1)
    with pytest.raises(ResourceLimitError, match=f"^{arrows} arrows"):
        lg.load_instance(fixture_path(name))


def test_relation_document_bounds_the_pair_groupoid_it_parses_into(
        monkeypatch):
    # rel_k2 relates 2 points: its relation is read as arrows of the
    # 4-arrow pair groupoid, which the bound refuses before the relation
    monkeypatch.setattr(lg.groupoids, "MAX_BUILTIN_ARROWS", 3)
    with pytest.raises(ResourceLimitError, match="^4 arrows"):
        lg.load_instance(fixture_path("rel_k2.json"))


def test_wide_subgroupoid_names_unknown_base_objects():
    # the unknown objects are reported before any identity is looked up
    with pytest.raises(ValidationError,
                       match=r"^base contains unknown objects: \['y', 'z'\]$"):
        lg.wide_subgroupoid(lg.pair_groupoid({"1", "2"}), {"1", "z", "y"},
                            {"1:2"})
