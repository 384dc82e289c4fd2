"""Brute-force oracles and instance generation.

Everything here recomputes values that the main modules produce by
faster or cleverer routes, straight from raw definitions, so the two
can be compared arrow for arrow. Oracles carry explicit guards and
fail loudly rather than degrade.
"""

from __future__ import annotations

import itertools

from .coherence import coherence_report
from .errors import (InvariantViolationError, ResourceLimitError,
                     ValidationError)
from .groupoids import (Groupoid, WideSubgroupoid, _arrow_closure,
                        cyclic_group, generate_wide, group_bundle,
                        intersect_wide, pair_groupoid,
                        transitivity_components)
from .sections import (Atlas, LocalSubgroupoid, glob,
                       restrict_section, section_from_atlas)
from .spaces import (FiniteSpace, _Frozen, _set, connected_components,
                     enumerate_opens, label_key, relative_openness, set_key,
                     sorted_labels, sorted_sets)

DEFAULT_ARROW_BOUND = 16
MAX_FILTER_ARROWS = 8  # non-identity arrows the subset filter tries
MAX_FOLD_UNIONS = 200_000  # unions the refinement fold forms
MAX_SCAN_OPENS = 4096  # opens the two open-by-open scans restrict to
MAX_SPLIT_POINTS = 20  # points whose clopen splits are searched
MAX_SUBSET_SCAN_POINTS = 12  # points whose subsets are scanned
MAX_SUITE_POINTS = 4  # points of the spaces the suite generator lists


def _arrows_inside(g: Groupoid, region) -> frozenset:
    """The arrows of g with both ends in `region`, by a scan of every
    arrow: the oracles' own `Groupoid.arrows_within`, so that no
    reference value reads the region sets the groupoid keeps."""
    reg = frozenset(region)
    return frozenset(a for a in g.source
                     if g.source[a] in reg and g.target[a] in reg)


def _non_identity_arrows(g: Groupoid, base: frozenset) -> list:
    return sorted((a for a in _arrows_inside(g, base)
                   if a not in g.identity_ids),
                  key=label_key)


def enumerate_wide_subgroupoids(g: Groupoid, base,
                                max_arrows: int = DEFAULT_ARROW_BOUND) -> list:
    """All wide subgroupoids of g restricted to `base`, in deterministic
    order (arrow count, then sorted ids), as a fresh list.

    `_search_wide` runs once per groupoid object and base, which keeps
    its arrow sets; the argument checks run on every call. Every recorded
    set is the base identities or an `_arrow_closure` output, so, as for
    `generate_wide`, the results are built unchecked; the subset filter
    re-derives the family on small instances as a cross-check.
    """
    base = frozenset(base)
    if not base <= g.objects:
        raise ValidationError(
            f"unknown objects: {sorted_labels(base - g.objects)}")
    free = _non_identity_arrows(g, base)
    if len(free) > max_arrows:
        raise ResourceLimitError(
            f"{len(free)} non-identity arrows exceeds the enumeration "
            f"bound of {max_arrows}")
    memo = g._wide_arrow_sets
    found = memo.get(base)
    if found is None:
        found = memo[base] = _search_wide(g, base, free)
    return [WideSubgroupoid._trusted(g, base, arrows) for arrows in found]


def _search_wide(g: Groupoid, base: frozenset, free: list) -> tuple:
    """Arrow sets of the wide subgroupoids over `base`, sorted by
    `set_key`: a decision search over the non-identity arrows `free`
    with closure propagation."""
    identities = frozenset(g.identity[u] for u in base)
    found = []

    def search(i, current, excluded):
        if i == len(free):
            found.append(current)
            return
        a = free[i]
        if a in current:
            search(i + 1, current, excluded)
            return
        search(i + 1, current, excluded | {a})
        grown = _arrow_closure(g, base, (a,), current)
        if not grown & excluded:
            search(i + 1, grown, excluded)

    search(0, identities, frozenset())
    found.sort(key=set_key)
    return tuple(found)


def _enumerate_by_subset_filter(g: Groupoid, base) -> list:
    """Definitional twin of the enumeration: try every subset of
    non-identity arrows and keep the closed ones. Exponential; callers
    keep it to at most a handful of arrows."""
    base = frozenset(base)
    free = _non_identity_arrows(g, base)
    identities = frozenset(g.identity[u] for u in base)
    found = []
    for k in range(len(free) + 1):
        for combo in itertools.combinations(free, k):
            arrows = identities | frozenset(combo)
            if _arrow_closure(g, base, arrows) == arrows:
                found.append(arrows)
    found.sort(key=set_key)
    return [WideSubgroupoid(g, base, arrows) for arrows in found]


def glob_by_subgroupoid_defn(section: LocalSubgroupoid,
                             max_arrows: int = DEFAULT_ARROW_BOUND) -> WideSubgroupoid:
    """Globalisation straight from its definition: the intersection of
    every wide subgroupoid H over the whole space whose germ section
    dominates the given section, tested germ by germ and given up at the
    first point where the section's germ does not lie below H's.

    H's germ at x is read as its arrow set: the arrows of H inside
    m(x), `h.arrows & within` with `within` the arrows of the groupoid
    inside m(x), listed once per point per call. The germ order is the
    inclusion of such arrow sets (see `sections.germ_leq`). Dropping
    `& within` would give the same answers, since the section's germ
    already lies inside m(x); the cut is kept because it is the
    definition of the germ.

    The candidates H are the groupoid's enumeration over the space, kept
    on the groupoid after its first search. That family depends only on
    the groupoid and the point set, never on a section or on `glob`, so
    sharing it across sections keeps this oracle independent of `glob`.
    """
    space = section.space
    g = section.parent
    candidates = enumerate_wide_subgroupoids(g, space.points, max_arrows)
    germs = [(section.germs[x].rep.arrows,
              _arrows_inside(g, space.minimal_open(x)))
             for x in space.points]
    qualifying = [h for h in candidates
                  if all(lower <= h.arrows & within
                         for lower, within in germs)]
    # the full restriction always qualifies, so the family is never empty
    if not qualifying:
        raise InvariantViolationError(
            "no qualifying wide subgroupoid; enumeration is broken")
    return intersect_wide(qualifying)


def glob_by_refinements(section: LocalSubgroupoid,
                        atlas: Atlas) -> WideSubgroupoid:
    """Globalisation as the intersection of the subgroupoids generated by
    the refinements of a defining atlas.

    Only point-indexed refinements are enumerated: families that pick,
    for each point x, one chart (U_i, H_i) with x in U_i and one open V
    with x in V <= U_i, contributing the piece H_i|V. Every refinement
    of the atlas is refined further by such a family, and passing to a
    finer refinement only shrinks the generated subgroupoid, so the
    intersection over point-indexed families equals the intersection
    over all refinements.

    The generated subgroupoid depends only on the union of the chosen
    pieces, so the families are folded point by point into their
    distinct partial unions, and each distinct union is closed once.
    The fold reaches exactly the unions of the product's families, so
    the intersection is the same. The guard counts the unions the fold
    forms, at each point the distinct unions so far times the choices
    there, and refuses the step that would take it past MAX_FOLD_UNIONS.
    """
    if section_from_atlas(atlas) != section:
        raise ValidationError("atlas does not define the given section")
    g = section.parent
    space = section.space
    within = {v: _arrows_inside(g, v) for v in space.opens}
    unions = {frozenset()}
    formed = 0
    for x in sorted_labels(space.points):
        pieces = {sub.arrows & inside  # the piece H_i|V
                  for open_set, sub in atlas.charts if x in open_set
                  for v, inside in within.items() if x in v and v <= open_set}
        if not pieces:
            raise ValidationError(f"no chart covers point {x!r}")
        formed += len(unions) * len(pieces)
        if formed > MAX_FOLD_UNIONS:
            raise ResourceLimitError(
                f"refinement fold needs more than {MAX_FOLD_UNIONS} unions")
        unions = {u | piece for u in unions for piece in pieces}
    intersection = frozenset.intersection(
        *(_arrow_closure(g, space.points, seed) for seed in unions))
    return WideSubgroupoid(g, space.points, intersection)


def _first_failing(section: LocalSubgroupoid, regions, holds):
    """(flag, first region whose restriction fails `holds`, or None)."""
    for u in map(frozenset, regions):
        if not holds(restrict_section(section, u)):
            return False, u
    return True, None


def _scan_opens(space: FiniteSpace) -> list:
    """`enumerate_opens(space)`, refused past MAX_SCAN_OPENS before any
    restriction is made."""
    opens = enumerate_opens(space)
    if len(opens) > MAX_SCAN_OPENS:
        raise ResourceLimitError(
            f"{len(opens)} open sets exceeds the configured cap of "
            f"{MAX_SCAN_OPENS}")
    return opens


def totally_coherent_by_scan(section: LocalSubgroupoid):
    """Total coherence straight from its definition: restrict the section
    to every open set, in `enumerate_opens` order, and test coherence;
    (flag, first failing open or None). Twin of
    `coherence.is_totally_coherent`, which answers by a lemma."""
    return _first_failing(section, _scan_opens(section.space),
                          lambda r: coherence_report(r).coherent)


def restriction_global_coherence_by_scan(section: LocalSubgroupoid):
    """Global coherence on every open set straight from its definition:
    restrict the section to every open set, in `enumerate_opens` order,
    and compare it with its globalisation; (flag, first failing open or
    None). Twin of the restriction-global-coherence conclusion of
    `coherence.verify_restriction_coherence`, which answers by a lemma."""
    return _first_failing(section, _scan_opens(section.space),
                          lambda r: coherence_report(r).globally_coherent)


def cover_restrictions_by_scan(section: LocalSubgroupoid, cover):
    """Global and total coherence on every cover member straight from
    their definitions: restrict the section to each member, in the given
    order, compare it with its globalisation and scan its opens; (flag,
    first failing member or None). Twin of the restriction-total-coherence
    hypothesis of `coherence.verify_restriction_coherence`, which settles
    each member that is some m(x) by a lemma."""
    return _first_failing(
        section, cover, lambda r: (coherence_report(r).globally_coherent
                                   and totally_coherent_by_scan(r)[0]))


def component_clopenness_by_scan(section: LocalSubgroupoid,
                                 wide: WideSubgroupoid, cover):
    """Component clopenness straight from its definition: generate the
    subgroupoid from the restrictions of `wide` to the cover members and
    test each of its components, in sorted order, for relative openness
    and closedness inside the component of `wide` holding it; (flag,
    first certificate or None). Twin of the conclusion of
    `coherence.verify_component_clopenness`, which answers by a lemma."""
    space = section.space
    seed = set()
    for v in cover:
        seed |= wide.arrows & _arrows_inside(wide.parent, v)  # wide|v
    generated = generate_wide(wide.parent, space.points, seed)
    ambient = {x: comp
               for comp in transitivity_components(wide) for x in comp}
    for comp in sorted_sets(transitivity_components(generated)):
        container = ambient[next(iter(comp))]
        if not comp <= container:
            raise InvariantViolationError(
                "component of the generated subgroupoid escapes its "
                "ambient component")
        rel_open, rel_closed = relative_openness(space, comp, container)
        if not (rel_open and rel_closed):
            return False, {
                "component": sorted_labels(comp),
                "ambient_component": sorted_labels(container),
                "relatively_open": rel_open,
                "relatively_closed": rel_closed,
            }
    return True, None


def close_family(points, sets) -> frozenset:
    """Least family containing `sets`, the empty set and `points`, closed
    under pairwise union and intersection: a topology straight from its
    definition. Plain fixpoint over the whole family; twin of the
    minimal-neighbourhood builders in `spaces` (`space_from_basis`,
    `generate_topology`, `FiniteSpace.opens`)."""
    family = {frozenset(), frozenset(points)}
    family.update(frozenset(s) for s in sets)
    grew = True
    while grew:
        grew = False
        members = list(family)
        for a, b in itertools.combinations(members, 2):
            for c in (a | b, a & b):
                if c not in family:
                    family.add(c)
                    grew = True
    return frozenset(family)


def relative_openness_by_traces(space: FiniteSpace, part, whole) -> tuple:
    """(relatively open, relatively closed) for `part` inside `whole`,
    straight from the subspace topology: some open set of the space
    traces `part` on `whole`, or traces its complement there. Twin of
    `spaces.relative_openness`."""
    a = frozenset(part)
    m = frozenset(whole)
    opens = space.opens
    return (any(o & m == a for o in opens), any(o & m == m - a for o in opens))


def connected_by_partition(space: FiniteSpace, subset) -> bool:
    """Connectivity by exhaustive search for a clopen split: a subset is
    disconnected exactly when it falls into two nonempty parts, both
    relatively open in it."""
    sub = frozenset(subset)
    if not sub <= space.points:
        raise ValidationError(
            f"unknown points: {sorted_labels(sub - space.points)}")
    if len(sub) > MAX_SPLIT_POINTS:
        raise ResourceLimitError(
            f"{len(sub)} points exceeds the split-search bound of "
            f"{MAX_SPLIT_POINTS}")
    if len(sub) <= 1:
        return True
    members = sorted_labels(sub)
    anchor = members[0]
    rest = members[1:]
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            part = frozenset((anchor,) + combo)
            if part == sub:
                continue
            if (relative_openness(space, part, sub)[0]
                    and relative_openness(space, sub - part, sub)[0]):
                return False
    return True


def local_connectivity_by_scan(space: FiniteSpace,
                               wide: WideSubgroupoid) -> dict:
    """The local-connectivity hypothesis straight from its definition:
    for each point x, in sorted order, try m(x) and then every other open
    holding x, in `enumerate_opens` order; restrict `wide` to the open by
    a scan of the arrows, close it, and test each of its transitivity
    components for a clopen split. Returns the `details` of
    `coherence.verify_local_connectivity_coherence`, which reads every
    restriction's components as traces of those of `wide`."""
    g = wide.parent
    opens = enumerate_opens(space)
    neighbourhoods, failed = {}, []
    for x in sorted_labels(space.points):
        m = space.minimal_open(x)
        for w in [m] + [o for o in opens if x in o and o != m]:
            inside = wide.arrows & _arrows_inside(g, w)  # wide|w
            if all(connected_by_partition(space, c) for c in
                   transitivity_components(generate_wide(g, w, inside))):
                neighbourhoods[label_key(x)] = sorted_labels(w)
                break
        else:
            failed.append(label_key(x))
    return {"neighbourhoods": neighbourhoods,
            "points_without_neighbourhood": failed}


class Instance(_Frozen):
    """One generated test instance: a space, a groupoid on its points and
    every section of the groupoid over the space, each kept with the
    first atlas that defined it."""

    _fields = ("space", "groupoid", "kind", "sections", "atlases")

    def __init__(self, space, groupoid, kind, sections, atlases):
        _set(self, "space", space)
        _set(self, "groupoid", groupoid)
        _set(self, "kind", kind)
        _set(self, "sections", sections)
        _set(self, "atlases", atlases)


class InstanceSuite(_Frozen):
    """Deterministically generated instances; reproducible from the two
    parameters alone."""

    _fields = ("max_points", "max_extra_arrows", "instances")

    def __init__(self, max_points, max_extra_arrows, instances):
        _set(self, "max_points", max_points)
        _set(self, "max_extra_arrows", max_extra_arrows)
        _set(self, "instances", instances)

    def iter_sections(self):
        for inst in self.instances:
            for section, atlas in zip(inst.sections, inst.atlases):
                yield inst, section, atlas


def all_topologies(n: int) -> list:
    """Every topology on the labeled points 1..n, as its m(x) table, with
    y in m(x) exactly when (x, y) is related: brute force over the
    off-diagonal pairs, keeping a relation iff m(y) lies in m(x) for each
    y in m(x), transitivity and the precondition of `FiniteSpace._trusted`."""
    if n < 1 or n > MAX_SUITE_POINTS:
        raise ResourceLimitError("topology enumeration is limited to 1 "
                                 f"through {MAX_SUITE_POINTS} points")
    points = tuple(range(1, n + 1))
    off_diagonal = [(x, y) for x in points for y in points if x != y]
    spaces = []
    for bits in itertools.product((False, True), repeat=len(off_diagonal)):
        related = [pair for pair, bit in zip(off_diagonal, bits) if bit]
        table = {x: frozenset([x] + [y for a, y in related if a == x])
                 for x in points}
        if all(table[y] <= table[x] for x in points for y in table[x]):
            spaces.append(FiniteSpace._trusted(frozenset(points), table))
    return spaces


def instance_suite(max_points: int, max_extra_arrows: int) -> InstanceSuite:
    """All spaces on up to `max_points` labeled points, paired with pair
    groupoids and order-two group bundles whose non-identity arrow count
    fits the bound. Each instance holds every section once: the gluing
    law makes its atlas of charts (m(x), rep(x)) consistent, so
    `_build_instance` reaches it.

    The pair groupoid and the Z/2 bundle are built from the point set
    alone, and `all_topologies(n)` labels every space's points 1..n, so
    one of each serves all spaces on n points, and its enumeration of
    wide subgroupoids is searched once for all of them."""
    if max_points < 1 or max_points > MAX_SUITE_POINTS:
        raise ResourceLimitError("instance suite is limited to "
                                 f"{MAX_SUITE_POINTS} points")
    z2 = cyclic_group(2)
    instances = []
    for n in range(1, max_points + 1):
        points = frozenset(range(1, n + 1))
        candidates = [
            (kind, g) for kind, g in (
                ("pair", pair_groupoid(points)),
                ("bundle", group_bundle(points, dict.fromkeys(points, z2))))
            if g.non_identity_count() <= max_extra_arrows]
        for space in all_topologies(n):
            for kind, g in candidates:
                instances.append(_build_instance(space, g, kind,
                                                 max_extra_arrows))
    return InstanceSuite(max_points, max_extra_arrows, tuple(instances))


def _build_instance(space, g, kind, max_extra_arrows) -> Instance:
    """Single-chart atlases of every wide H over X, then every consistent
    atlas of charts (m(x), K_x), x in sorted order; each section is kept
    with the first atlas that defines it.

    (E) The wide K over m(x) are the restrictions H|m(x) of the wide H
    over X, read as `h.arrows & within[x]`: each H|m(x) is wide and
    closed (see `restrict_wide`), so the charts are built unchecked, and
    K is H|m(x) for H = K plus the identities outside m(x), which is
    closed as those identities compose only with themselves.
    (G) The charts agree on overlaps iff each K_x has, at every y in m(x)
    that an earlier chart holds, the germ K_x|m(y) the first such chart
    fixed: the earlier charts through y already agree with that one.
    Germs are read as arrow sets, the chart's arrows inside m(y); within
    one instance, the germs in sorted point order key the section.
    (C) Only the first atlas of each key is built, so only it is
    validated, and nothing skipped could fail: a later single chart is
    one open chart over X, and distinct families of charts (m(x), K_x)
    have distinct keys, K_x being the germ at x, so a family whose key
    is taken is the canonical atlas of a section already found, whose
    charts the gluing law makes agree.
    """
    points = sorted_labels(space.points)
    within = {x: _arrows_inside(g, space.minimal_open(x)) for x in points}
    found = {}  # germ key -> charts of its first atlas, in insertion order
    wides = enumerate_wide_subgroupoids(g, space.points, max_extra_arrows)
    for h in wides:
        key = tuple(h.arrows & within[x] for x in points)
        found.setdefault(key, ((space.points, h),))
    partial = [((), {})]  # (charts, germ fixed at each covered point)
    for x in points:
        m = space.minimal_open(x)
        subs = [WideSubgroupoid._trusted(g, m, arrows) for arrows in sorted(
            {h.arrows & within[x] for h in wides}, key=set_key)]
        candidates = [(sub, {y: sub.arrows & within[y] for y in m})
                      for sub in subs]
        partial = [(charts + ((m, sub),), {**germs, **fixed})
                   for charts, fixed in partial
                   for sub, germs in candidates
                   if all(fixed.get(y, germ) == germ
                          for y, germ in germs.items())]
    for charts, fixed in partial:
        found.setdefault(tuple(fixed[x] for x in points), charts)
    atlases = tuple(Atlas(space, charts) for charts in found.values())
    return Instance(space, g, kind, tuple(map(section_from_atlas, atlases)),
                    atlases)


def cross_check_glob(section: LocalSubgroupoid, atlas: Atlas,
                     max_arrows: int = DEFAULT_ARROW_BOUND) -> WideSubgroupoid:
    """Three-way comparison of the globalisation: fast closure against
    both oracles, the refinement oracle over the given defining atlas.
    Raises on any disagreement; returns the common value."""
    fast = glob(section)
    by_defn = glob_by_subgroupoid_defn(section, max_arrows)
    by_refn = glob_by_refinements(section, atlas)
    if not (fast == by_defn == by_refn):
        raise InvariantViolationError(
            "globalisation mismatch: fast "
            f"{sorted_labels(fast.arrows)}, by definition "
            f"{sorted_labels(by_defn.arrows)}, by refinements "
            f"{sorted_labels(by_refn.arrows)}")
    return fast


def cross_check_connectivity(space: FiniteSpace) -> int:
    """Compare graph connectivity with the partition-search oracle on
    every subset of the space; returns the number of subsets checked."""
    points = sorted_labels(space.points)
    if len(points) > MAX_SUBSET_SCAN_POINTS:
        raise ResourceLimitError(
            f"{len(points)} points exceeds the subset-scan bound of "
            f"{MAX_SUBSET_SCAN_POINTS}")
    checked = 0
    for k in range(len(points) + 1):
        for combo in itertools.combinations(points, k):
            subset = frozenset(combo)
            graph = len(connected_components(space, subset)) <= 1
            if graph != connected_by_partition(space, subset):
                raise InvariantViolationError(
                    f"connectivity mismatch on subset {sorted_labels(subset)}")
            checked += 1
    return checked


def cross_check_enumeration(g: Groupoid, base,
                            max_arrows: int = DEFAULT_ARROW_BOUND) -> dict:
    """Compare the decision-search enumeration with the plain subset
    filter. Skipped (reported, not silent) above MAX_FILTER_ARROWS
    non-identity arrows, where the filter is no longer reasonable."""
    free = _non_identity_arrows(g, base)
    if len(free) > MAX_FILTER_ARROWS:
        return {"checked": False,
                "reason": f"{len(free)} non-identity arrows"}
    fast = enumerate_wide_subgroupoids(g, base, max_arrows)
    slow = _enumerate_by_subset_filter(g, base)
    if [h.arrows for h in fast] != [h.arrows for h in slow]:
        raise InvariantViolationError(
            "wide subgroupoid enumeration disagrees with the subset filter")
    return {"checked": True, "count": len(fast)}
