"""Brute-force oracles and instance generation.

Everything here recomputes values that the main modules produce by
faster or cleverer routes, straight from raw definitions, so the two
can be compared arrow for arrow. Oracles carry explicit guards and
fail loudly rather than degrade.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coherence import coherence_report
from .errors import (InvariantViolationError, ResourceLimitError,
                     ValidationError)
from .groupoids import (Groupoid, WideSubgroupoid, _arrow_closure,
                        cyclic_group, generate_wide, group_bundle,
                        intersect_wide, pair_groupoid, restrict_wide,
                        transitivity_components)
from .sections import (Atlas, LocalSubgroupoid, _germ, germ_leq, glob,
                       restrict_section, section_from_atlas)
from .spaces import (FiniteSpace, connected_components, enumerate_opens,
                     label_key, relative_openness, set_key, sorted_labels,
                     sorted_sets)

DEFAULT_ARROW_BOUND = 16


def _non_identity_arrows(g: Groupoid, base: frozenset) -> list:
    return sorted((a for a in g.arrows_within(base)
                   if a not in g.identity_ids),
                  key=label_key)


def enumerate_wide_subgroupoids(g: Groupoid, base,
                                max_arrows: int = DEFAULT_ARROW_BOUND) -> list:
    """All wide subgroupoids of g restricted to `base`, in deterministic
    order (arrow count, then sorted ids).

    Enumerated by a decision search over non-identity arrows with
    closure propagation; the plain subset filter re-derives the same
    family on small instances as a cross-check. Every recorded set is
    the base identities or an `_arrow_closure` output, so, as for
    `generate_wide`, the results are built unchecked.
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
    return [WideSubgroupoid._trusted(g, base, arrows) for arrows in found]


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
    first point where the section's germ does not lie below H's."""
    space = section.space
    candidates = enumerate_wide_subgroupoids(section.parent, space.points,
                                             max_arrows)
    qualifying = [h for h in candidates
                  if all(germ_leq(section.germs[x], _germ(space, h, x))
                         for x in space.points)]
    # the full restriction always qualifies, so the family is never empty
    if not qualifying:
        raise InvariantViolationError(
            "no qualifying wide subgroupoid; enumeration is broken")
    return intersect_wide(qualifying)


def glob_by_refinements(section: LocalSubgroupoid, atlas: Atlas,
                        max_refinements: int = 200_000) -> WideSubgroupoid:
    """Globalisation as the intersection of the subgroupoids generated by
    the refinements of a defining atlas.

    Only point-indexed refinements are enumerated: families that pick,
    for each point x, one chart (U_i, H_i) with x in U_i and one open V
    with x in V <= U_i, contributing the piece H_i|V. Every refinement
    of the atlas is refined further by such a family, and passing to a
    finer refinement only shrinks the generated subgroupoid, so the
    intersection over point-indexed families equals the intersection
    over all refinements. Choices contributing the same piece arrows are
    deduplicated; the generated subgroupoid depends only on the union of
    the chosen pieces.
    """
    if section_from_atlas(atlas) != section:
        raise ValidationError("atlas does not define the given section")
    g = section.parent
    space = section.space
    points = sorted_labels(space.points)
    opens = enumerate_opens(space)
    options = []
    for x in points:
        pieces = set()
        for open_set, sub in atlas.charts:
            if x not in open_set:
                continue
            for v in opens:
                if x in v and v <= open_set:
                    pieces.add(restrict_wide(sub, v).arrows)
        if not pieces:
            raise ValidationError(f"no chart covers point {x!r}")
        options.append(sorted(pieces, key=set_key))
    total = 1
    for opts in options:
        total *= len(opts)
        if total > max_refinements:
            raise ResourceLimitError(
                f"refinement enumeration needs more than "
                f"{max_refinements} families")
    closure_cache = {}
    intersection = None
    for choice in itertools.product(*options):
        seed = frozenset().union(*choice)
        closed = closure_cache.get(seed)
        if closed is None:
            closed = _arrow_closure(g, space.points, seed)
            closure_cache[seed] = closed
        intersection = closed if intersection is None else intersection & closed
    return WideSubgroupoid(g, space.points, intersection)


def totally_coherent_by_scan(section: LocalSubgroupoid,
                             max_opens: int = 4096):
    """Total coherence straight from its definition: restrict the section
    to every open set, in `enumerate_opens` order, and test coherence;
    (flag, first failing open or None). Twin of
    `coherence.is_totally_coherent`, which answers by a lemma."""
    opens = enumerate_opens(section.space)
    if len(opens) > max_opens:
        raise ResourceLimitError(
            f"{len(opens)} open sets exceeds the configured cap of {max_opens}")
    for u in opens:
        if not coherence_report(restrict_section(section, u)).coherent:
            return False, u
    return True, None


def restriction_global_coherence_by_scan(section: LocalSubgroupoid):
    """Global coherence on every open set straight from its definition:
    restrict the section to every open set, in `enumerate_opens` order,
    and compare it with its globalisation; (flag, first failing open or
    None). Twin of the restriction-global-coherence conclusion of
    `coherence.verify_restriction_coherence`, which answers by a lemma."""
    for u in enumerate_opens(section.space):
        if not coherence_report(
                restrict_section(section, u)).globally_coherent:
            return False, u
    return True, None


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
        seed |= restrict_wide(wide, frozenset(v)).arrows
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
    return (any(o & m == a for o in space.opens),
            any(o & m == m - a for o in space.opens))


def connected_by_partition(space: FiniteSpace, subset,
                           max_points: int = 20) -> bool:
    """Connectivity by exhaustive search for a clopen split: a subset is
    disconnected exactly when it falls into two nonempty parts, both
    relatively open in it."""
    sub = frozenset(subset)
    if not sub <= space.points:
        raise ValidationError(
            f"unknown points: {sorted_labels(sub - space.points)}")
    if len(sub) > max_points:
        raise ResourceLimitError(
            f"{len(sub)} points exceeds the split-search bound of {max_points}")
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


@dataclass(frozen=True, eq=False)
class Instance:
    """One generated test instance: a space, a groupoid on its points and
    every section of the groupoid over the space, each kept with the
    first atlas that defined it."""

    space: FiniteSpace
    groupoid: Groupoid
    kind: str
    sections: tuple
    atlases: tuple


@dataclass(frozen=True, eq=False)
class InstanceSuite:
    """Deterministically generated instances; reproducible from the two
    parameters alone."""

    max_points: int
    max_extra_arrows: int
    instances: tuple

    def iter_sections(self):
        for inst in self.instances:
            for section, atlas in zip(inst.sections, inst.atlases):
                yield inst, section, atlas


def all_topologies(n: int) -> list:
    """Every topology on the labeled points 1..n, via reflexive
    transitive relations: y is in the minimal neighbourhood of x exactly
    when (x, y) is related. Brute force over off-diagonal pairs."""
    if n < 1 or n > 4:
        raise ResourceLimitError(
            "topology enumeration is limited to 1 through 4 points")
    points = tuple(range(1, n + 1))
    off_diagonal = [(x, y) for x in points for y in points if x != y]
    spaces = []
    for bits in itertools.product((False, True), repeat=len(off_diagonal)):
        related = {(x, x) for x in points}
        related.update(pair for pair, bit in zip(off_diagonal, bits) if bit)
        if any((x, y) in related and (y, z) in related and (x, z) not in related
               for x in points for y in points for z in points):
            continue
        succ = {x: frozenset(y for y in points if (x, y) in related)
                for x in points}
        opens = frozenset(
            frozenset(u) for r in range(n + 1)
            for u in itertools.combinations(points, r)
            if all(succ[x] <= frozenset(u) for x in u))
        spaces.append(FiniteSpace(frozenset(points), opens))
    return spaces


def instance_suite(max_points: int, max_extra_arrows: int) -> InstanceSuite:
    """All spaces on up to `max_points` labeled points, paired with pair
    groupoids and order-two group bundles whose non-identity arrow count
    fits the bound. Each instance holds every section once: the gluing
    law makes its atlas of charts (m(x), rep(x)) consistent, so
    `_build_instance` reaches it."""
    if max_points < 1 or max_points > 4:
        raise ResourceLimitError("instance suite is limited to 4 points")
    z2 = cyclic_group(2)
    instances = []
    for n in range(1, max_points + 1):
        for space in all_topologies(n):
            candidates = [
                ("pair", pair_groupoid(space.points)),
                ("bundle", group_bundle(space.points,
                                        dict.fromkeys(space.points, z2)))]
            for kind, g in candidates:
                if g.non_identity_count() > max_extra_arrows:
                    continue
                instances.append(_build_instance(space, g, kind,
                                                 max_extra_arrows))
    return InstanceSuite(max_points, max_extra_arrows, tuple(instances))


def _build_instance(space, g, kind, max_extra_arrows) -> Instance:
    """Single-chart atlases of every wide H over X, then every consistent
    atlas of charts (m(x), K_x), x in sorted order; each section is kept
    with the first atlas that defines it.

    (E) The wide K over m(x) are the restrictions H|m(x) of the wide H
    over X: each H|m(x) is wide and closed (`restrict_wide`), and K is
    H|m(x) for H = K plus the identities outside m(x), which is closed as
    those identities compose only with themselves.
    (G) The charts agree on overlaps iff each K_x has, at every y in m(x)
    that an earlier chart holds, the germ K_x|m(y) the first such chart
    fixed: the earlier charts through y already agree with that one.
    """
    wides = enumerate_wide_subgroupoids(g, space.points, max_extra_arrows)
    atlases = [Atlas(space, ((space.points, h),)) for h in wides]
    partial = [((), {})]  # (charts, germ fixed at each covered point)
    for x in sorted_labels(space.points):
        m = space.minimal_open(x)
        subs = [WideSubgroupoid(g, m, arrows) for arrows in sorted(
            {restrict_wide(h, m).arrows for h in wides}, key=set_key)]
        candidates = [(sub, {y: _germ(space, sub, y) for y in m})
                      for sub in subs]
        partial = [(charts + ((m, sub),), {**germs, **fixed})
                   for charts, fixed in partial
                   for sub, germs in candidates
                   if all(fixed.get(y, germ) == germ
                          for y, germ in germs.items())]
    atlases += [Atlas(space, charts) for charts, _ in partial]
    found = {}  # section -> first atlas defining it, in insertion order
    for atlas in atlases:
        found.setdefault(section_from_atlas(atlas), atlas)
    return Instance(space, g, kind, tuple(found), tuple(found.values()))


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


def cross_check_connectivity(space: FiniteSpace, max_points: int = 12) -> int:
    """Compare graph connectivity with the partition-search oracle on
    every subset of the space; returns the number of subsets checked."""
    points = sorted_labels(space.points)
    if len(points) > max_points:
        raise ResourceLimitError(
            f"{len(points)} points exceeds the subset-scan bound of "
            f"{max_points}")
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
    filter. Skipped (reported, not silent) above eight non-identity
    arrows, where the filter is no longer reasonable."""
    free = _non_identity_arrows(g, base)
    if len(free) > 8:
        return {"checked": False,
                "reason": f"{len(free)} non-identity arrows"}
    fast = enumerate_wide_subgroupoids(g, base, max_arrows)
    slow = _enumerate_by_subset_filter(g, base)
    if [h.arrows for h in fast] != [h.arrows for h in slow]:
        raise InvariantViolationError(
            "wide subgroupoid enumeration disagrees with the subset filter")
    return {"checked": True, "count": len(fast)}
