"""Germs, atlases and local subgroupoids.

On a finite space every point x has a minimal open neighbourhood m(x),
so a germ at x has a canonical representative: the defining chart
restricted to m(x). Any witness neighbourhood appearing in a germ
statement can be shrunk to m(x), which turns existential clauses into
single containment checks of canonical representatives. This
canonicalisation is the load-bearing device of the package; the
brute-force oracles recompute the same values from raw definitions.

A local subgroupoid (here: section) assigns a germ to every point and
satisfies the gluing law rep(y) = rep(x)|m(y) for y in m(x), enforced
by the public constructor. `loc`, `section_from_atlas` and
`restrict_section` build sections unchecked, each by a lemma stated in
its docstring, and so does the suite generator in `oracle`, which also
builds its atlases unchecked.
"""

from __future__ import annotations

from .errors import (AtlasConsistencyError, AtlasCoverError, ValidationError)
from .groupoids import (Groupoid, WideSubgroupoid, _arrow_closure,
                        full_restriction, restrict_wide)
from .spaces import FiniteSpace, _Frozen, _set, sorted_labels, subspace


class Germ(_Frozen):
    """Canonical germ at a point: the defining chart restricted to the
    point's minimal open neighbourhood. Equal germs have equal fields."""

    _fields = ("at", "rep")

    def __init__(self, at, rep):
        _set(self, "at", at)
        _set(self, "rep", rep)

    def __eq__(self, other):
        return ((self.at, self.rep) == (other.at, other.rep)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.at, self.rep))


def germ_at(space: FiniteSpace, chart: WideSubgroupoid, x) -> Germ:
    """Germ at x of a wide subgroupoid over an open chart domain."""
    if not space.is_open(chart.base):
        raise ValidationError("chart domain is not an open set")
    if x not in chart.base:
        raise ValidationError(f"point {x!r} is not in the chart domain")
    return Germ(x, restrict_wide(chart, space.minimal_open(x)))


def germ_leq(lower: Germ, upper: Germ) -> bool:
    """Germ order at a point.

    The raw definition asks for some open neighbourhood W of the point
    on which one chart restricts into the other. Restricting further
    only shrinks arrow sets, so W can always be taken to be the minimal
    open neighbourhood, and the order collapses to one arrow-set
    inclusion of canonical representatives. The refinement oracle
    exercises this reduction.
    """
    if lower.at != upper.at:
        raise ValidationError("germs at different points are incomparable")
    if lower.rep.base != upper.rep.base:
        raise ValidationError(
            "germs live over different minimal neighbourhoods")
    return lower.rep.arrows <= upper.rep.arrows


class Atlas(_Frozen):
    """Charts (open set, wide subgroupoid over it) that cover the space
    and induce equal germs at every shared point. Validation keeps the
    first chart's germ at each point: the section the atlas defines."""

    _fields = ("space", "charts")

    def __init__(self, space, charts):
        charts = tuple((frozenset(open_set), sub)
                       for open_set, sub in charts)
        _set(self, "space", space)
        _set(self, "charts", charts)
        if not charts:
            if self.space.points:
                raise AtlasCoverError("atlas has no charts")
            return
        parent = charts[0][1].parent
        for i, (open_set, sub) in enumerate(charts):
            if not self.space.is_open(open_set):
                raise ValidationError(f"chart {i} domain is not an open set")
            if sub.base != open_set:
                raise ValidationError(
                    f"chart {i} subgroupoid base differs from its open set")
            if sub.parent != parent:
                raise ValidationError("charts must share one ambient groupoid")
        if parent.objects != self.space.points:
            raise ValidationError(
                "ambient groupoid must have the space's points as objects")
        covered = frozenset().union(*(o for o, _ in charts))
        if covered != self.space.points:
            missing = sorted_labels(self.space.points - covered)
            raise AtlasCoverError(
                f"charts do not cover the space; missing points: {missing}")
        # the earliest witness in (point, chart pair) order, as arrow sets
        germs = {}
        for x in sorted_labels(self.space.points):
            m = self.space.minimal_open(x)
            hits = [i for i, (o, _) in enumerate(charts) if x in o]
            # the first chart's germ: its open domain holds x and so m
            germs[x] = Germ(x, restrict_wide(charts[hits[0]][1], m))
            kept = germs[x].rep.arrows
            for j in hits[1:]:
                if parent.arrows_within(charts[j][1].arrows, m) != kept:
                    raise AtlasConsistencyError(
                        f"charts {hits[0]} and {j} induce different germs "
                        f"at point {x!r}",
                        point=x, charts=(hits[0], j))
        _set(self, "_section", LocalSubgroupoid._trusted(space, parent, germs))

    @classmethod
    def _trusted(cls, space: FiniteSpace, charts: tuple,
                 section: LocalSubgroupoid) -> Atlas:
        """Build without validation. Only for charts a lemma proves open,
        covering and consistent, given as a tuple of (frozenset, wide
        subgroupoid) pairs, with `section` the germs of the first chart
        holding each point, as validation would keep them."""
        atlas = object.__new__(cls)
        _set(atlas, "space", space)
        _set(atlas, "charts", charts)
        _set(atlas, "_section", section)
        return atlas

    @property
    def parent(self) -> Groupoid:
        return section_from_atlas(self).parent


class LocalSubgroupoid(_Frozen):
    """A total assignment of germs satisfying the gluing law
    rep(y) = rep(x)|m(y) whenever y lies in m(x)."""

    _fields = ("space", "parent", "germs")

    def __init__(self, space, parent, germs):
        _set(self, "space", space)
        _set(self, "parent", parent)
        _set(self, "germs", dict(germs))
        if set(self.germs) != set(self.space.points):
            raise ValidationError(
                "section must assign a germ to exactly the points of the space")
        if self.parent.objects != self.space.points:
            raise ValidationError(
                "ambient groupoid must live on the space's points")
        for x in sorted_labels(self.germs):
            at, rep = self.germs[x].at, self.germs[x].rep
            if at != x:
                raise ValidationError(
                    f"germ stored at {x!r} claims to live at {at!r}")
            if rep.parent != self.parent:
                raise ValidationError(
                    f"germ at {x!r} lives in a different ambient groupoid")
            if rep.base != self.space.minimal_open(x):
                raise ValidationError(
                    f"germ at {x!r} must be represented on the minimal "
                    f"open neighbourhood")
        # the least failing (x, y); rep(x)|m(y) is rep(x)'s arrows in m(y)
        for x in sorted_labels(self.space.points):
            rx = self.germs[x].rep.arrows
            for y in sorted_labels(self.space.minimal_open(x) - {x}):
                ry = self.parent.arrows_within(rx, self.space.minimal_open(y))
                if self.germs[y].rep.arrows != ry:
                    raise ValidationError(
                        f"gluing law fails from {x!r} to {y!r}")

    @classmethod
    def _trusted(cls, space: FiniteSpace, parent: Groupoid,
                 germs: dict) -> LocalSubgroupoid:
        """Build without checking the gluing law. Only for germ families
        a lemma proves to be a section over `space`; `germs` must be a
        fresh dict with one canonical germ per point."""
        section = object.__new__(cls)
        _set(section, "space", space)
        _set(section, "parent", parent)
        _set(section, "germs", germs)
        return section

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LocalSubgroupoid):
            return NotImplemented
        return (self.space == other.space and self.parent == other.parent
                and self.germs == other.germs)

    def __hash__(self):
        return hash((self.space, frozenset(self.germs.values())))


def section_from_atlas(atlas: Atlas) -> LocalSubgroupoid:
    """The section induced by an atlas: the germ of the first chart
    holding each point, kept by atlas validation, which has checked that
    the charts are open, cover the space and induce one germ at each
    point, or by the lemma that let `Atlas._trusted` skip it. The gluing
    law needs no check: for y in m(x), with x in the chart domain U, y
    lies in U too and (H|m(x))|m(y) = H|m(y)."""
    if not atlas.charts:
        raise ValidationError("empty atlas has no ambient groupoid")
    return atlas._section


def _loc_arguments(space: FiniteSpace, wide: WideSubgroupoid) -> None:
    if wide.base != space.points:
        raise ValidationError(
            "loc needs a wide subgroupoid over the whole space")
    if wide.parent.objects != space.points:
        raise ValidationError(
            "ambient groupoid must live on the space's points")


def loc(space: FiniteSpace, wide: WideSubgroupoid) -> LocalSubgroupoid:
    """The section of germs of one wide subgroupoid over the whole space.

    The gluing law holds without a check: for y in m(x), m(y) lies in
    m(x), so (H|m(x))|m(y) = H|m(y)."""
    _loc_arguments(space, wide)
    germs = {x: Germ(x, restrict_wide(wide, space.minimal_open(x)))
             for x in space.points}
    return LocalSubgroupoid._trusted(space, wide.parent, germs)


def glob(section: LocalSubgroupoid) -> WideSubgroupoid:
    """Least wide subgroupoid H over the whole space with
    section <= loc(H).

    Computed as the closure of the union of the canonical germ
    representatives: every qualifying H contains each representative
    (shrink the germ witness to the minimal neighbourhood), and the
    closure itself qualifies. The seed needs no check: each rep(x) is a
    wide subgroupoid of the parent over m(x) inside X, so the base and
    seed checks of `generate_wide` could never fire. The enumeration and
    refinement oracles recompute this from raw definitions and must
    agree arrow for arrow.
    """
    g, points = section.parent, section.space.points
    seed = frozenset().union(*(y.rep.arrows for y in section.germs.values()))
    return WideSubgroupoid._trusted(g, points, _arrow_closure(g, points, seed))


def restrict_section(section: LocalSubgroupoid, region) -> LocalSubgroupoid:
    """Restrict a section to an open set. Minimal neighbourhoods inside
    an open set are unchanged, so germs carry over verbatim; only the
    ambient groupoid is cut down. Nothing is re-checked: each germ keeps
    its arrows, all inside the region, so it stays closed in the cut-down
    groupoid, and the gluing law carries over with the neighbourhoods."""
    reg = frozenset(region)
    if not section.space.is_open(reg):
        raise ValidationError("sections restrict to open sets only")
    sub_space = subspace(section.space, reg)
    sub_parent = full_restriction(section.parent, reg)
    germs = {}
    for x in reg:
        old = section.germs[x].rep
        germs[x] = Germ(x, WideSubgroupoid._trusted(sub_parent, old.base,
                                                    old.arrows))
    return LocalSubgroupoid._trusted(sub_space, sub_parent, germs)


def refines(finer: Atlas, coarser: Atlas) -> bool:
    """True when every chart of `finer` is the restriction of some chart
    of `coarser` to a smaller open set."""
    if finer.space != coarser.space or finer.parent != coarser.parent:
        raise ValidationError(
            "atlases over different spaces or groupoids are incomparable")
    for open_set, sub in finer.charts:
        if not any(open_set <= big and sub.arrows
                   == sub.parent.arrows_within(big_sub.arrows, open_set)
                   for big, big_sub in coarser.charts):
            return False
    return True


def canonical_atlas(section: LocalSubgroupoid) -> Atlas:
    """Point-indexed atlas of minimal-neighbourhood charts. It is defined
    for every section, defines the section back, and refines any atlas
    that defines the section."""
    charts = []
    seen = set()
    for x in sorted_labels(section.space.points):
        rep = section.germs[x].rep
        key = (rep.base, rep.arrows)
        if key in seen:
            continue
        seen.add(key)
        charts.append((rep.base, rep))
    return Atlas(section.space, tuple(charts))
