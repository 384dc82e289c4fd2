"""Finite topological spaces.

Everything in this package runs over finite point sets, and a finite
space is automatically Alexandrov: the open family is closed under all
intersections, so every point x has a smallest open neighbourhood m(x).
That neighbourhood is what makes germ computations over the space
exact, and the whole package leans on it.

A finite topology is the same thing as its specialisation preorder
(y lies in m(x)), so a space stores only its points and m(x), and each
operation below is a one-line lemma on them; the open family is listed
on demand, up to MAX_OPENS sets. The public constructor checks the
topology laws; the builders below skip the check, because their m(x)
are minimal neighbourhoods by construction.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ResourceLimitError, ValidationError
from .unionfind import UnionFind

# the open family has up to 2^n members; past this many it is not listed
MAX_OPENS = 1 << 16


# sort key for point and arrow labels of mixed types: their text
label_key = str


def set_key(subset) -> tuple:
    """Sort key for families of label sets: by size, then by the sorted
    labels themselves."""
    return (len(subset), tuple(sorted(map(str, subset))))


def sorted_labels(labels) -> list:
    return sorted(labels, key=str)


def sorted_sets(sets) -> list:
    return sorted(sets, key=set_key)


def _minimal_cover(space) -> list:
    """The distinct minimal neighbourhoods: a basis of the topology."""
    return sorted_sets({space.minimal_open(x) for x in space.points})


class FiniteSpace:
    """A finite point set with its topology, held as the minimal open
    neighbourhood m(x) of every point. The constructor takes the full
    open family and checks the topology laws on it."""

    def __init__(self, points, opens):
        points = frozenset(points)
        family = frozenset(frozenset(o) for o in opens)
        for o in family:
            if not o <= points:
                bad = sorted_labels(o - points)
                raise ValidationError(f"open set contains unknown labels: {bad}")
        if frozenset() not in family or points not in family:
            raise ValidationError(
                "opens must contain the empty set and the full point set")
        # a topology holds every m(x) (intersection) and o | m(x) for each
        # of its opens o (union: opens are unions of minimal neighbourhoods)
        minimal = {x: points.intersection(*(o for o in family if x in o))
                   for x in points}
        for x in sorted_labels(points):
            if minimal[x] not in family:
                raise ValidationError(
                    f"opens not closed under intersection: the opens "
                    f"containing {x!r} meet in {sorted_labels(minimal[x])}")
        for o in sorted_sets(family):
            for x in sorted_labels(points):
                if o | minimal[x] not in family:
                    raise ValidationError(
                        f"opens not closed under union: {sorted_labels(o)} "
                        f"with {sorted_labels(minimal[x])}")
        self.points = points
        self._minimal = minimal

    @classmethod
    def _trusted(cls, points: frozenset, minimal: dict) -> FiniteSpace:
        """Build without checking. Only for a fresh dict that a lemma
        proves to be minimal neighbourhoods: x lies in m(x) inside
        `points`, and m(y) lies in m(x) for every y in m(x)."""
        space = object.__new__(cls)
        space.points = points
        space._minimal = minimal
        return space

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self._minimal == other._minimal

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.points, frozenset(self._minimal.items())))

    @cached_property
    def opens(self) -> frozenset:
        """Every open set: the unions of minimal neighbourhoods, grown by
        one m(x) at a time. Raises once the family passes MAX_OPENS."""
        family = {frozenset()}
        for m in set(self._minimal.values()):
            for o in list(family):
                family.add(o | m)
                if len(family) > MAX_OPENS:
                    raise ResourceLimitError(
                        f"more than {MAX_OPENS} open sets, too many to list")
        return frozenset(family)

    def minimal_open(self, x) -> frozenset:
        """Smallest open neighbourhood of x: the intersection of every
        open set containing x, itself open because the space is finite."""
        if x not in self.points:
            raise ValidationError(f"unknown point: {x!r}")
        return self._minimal[x]

    def is_open(self, subset) -> bool:
        """U is open iff m(x) lies in U for every x in U."""
        u = frozenset(subset)
        minimal = self._minimal
        for x in u:
            m = minimal.get(x)
            if m is None or not m <= u:
                return False
        return True


def space_from_basis(points, basis) -> FiniteSpace:
    """The topology generated by basis sets: the closure of the basis
    under union and intersection, with the empty and full sets. Its m(x)
    is the point set cut down by every basis set containing x, so only
    the labels are checked."""
    pts = frozenset(points)
    minimal = dict.fromkeys(pts, pts)
    for raw in basis:
        s = frozenset(raw)
        unknown = s - pts
        if unknown:
            raise ValidationError(
                f"basis set {sorted_labels(s)} contains unknown label "
                f"{sorted_labels(unknown)[0]!r}")
        for x in s:
            minimal[x] &= s
    return FiniteSpace._trusted(pts, minimal)


def enumerate_opens(space: FiniteSpace) -> list:
    """All opens, ordered by size then lexicographically by labels."""
    return sorted_sets(space.opens)


def connected_components(space: FiniteSpace, subset) -> frozenset:
    """Partition of `subset` into connected pieces of the subspace
    topology. Two points land in one piece when they are linked by a
    chain of comparabilities of subspace minimal neighbourhoods, which
    on a finite space is exactly topological connectivity; the
    partition-search oracle cross-checks this."""
    sub = frozenset(subset)
    unknown = sub - space.points
    if unknown:
        raise ValidationError(f"unknown points: {sorted_labels(unknown)}")
    uf = UnionFind(sub)
    for a in sub:
        for b in space.minimal_open(a) & sub:
            uf.union(a, b)
    return uf.partition()


def relative_openness(space: FiniteSpace, part, whole) -> tuple:
    """(relatively open, relatively closed) for `part` inside `whole`,
    in the subspace topology on `whole`: open iff m(x) & whole lies in
    `part` for every x in `part`, closed iff the complement is open."""
    a = frozenset(part)
    m = frozenset(whole)
    if not a <= m:
        raise ValidationError("part must lie inside the ambient subset")
    sub = subspace(space, m)
    return sub.is_open(a), sub.is_open(m - a)


def generate_topology(space: FiniteSpace, extra_sets) -> FiniteSpace:
    """Smallest topology on the same points containing the current opens
    and every set in `extra_sets`: m(x) cut down by every extra set
    containing x. The result is finer than `space`."""
    minimal = dict(space._minimal)
    for raw in extra_sets:
        s = frozenset(raw)
        if not s <= space.points:
            raise ValidationError(
                f"unknown points: {sorted_labels(s - space.points)}")
        for x in s:
            minimal[x] &= s
    return FiniteSpace._trusted(space.points, minimal)


def subspace(space: FiniteSpace, region) -> FiniteSpace:
    """Subspace topology on `region`: its opens are the traces of the
    ambient opens, so the trace m(x) & region is the minimal
    neighbourhood of x in it."""
    reg = frozenset(region)
    if not reg <= space.points:
        raise ValidationError(
            f"unknown points: {sorted_labels(reg - space.points)}")
    return FiniteSpace._trusted(
        reg, {x: space._minimal[x] & reg for x in reg})


def is_finer(finer: FiniteSpace, coarser: FiniteSpace) -> bool:
    """True when both spaces share points and every open of `coarser` is
    open in `finer`: m(x) in `finer` lies in m(x) in `coarser`."""
    return finer.points == coarser.points and all(
        finer._minimal[x] <= coarser._minimal[x] for x in finer.points)
