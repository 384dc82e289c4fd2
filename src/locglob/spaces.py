"""Finite topological spaces.

Everything in this package runs over finite point sets, and a finite
space is automatically Alexandrov: the open family is closed under all
intersections, so every point has a smallest open neighbourhood. That
neighbourhood is what makes germ computations over the space exact, and
the whole package leans on it.

A space stores its complete open family explicitly. Bases are a
constructor input only. The public constructor checks the topology
laws; the family-closing and trace operations below build their
results unchecked, because those results are topologies by
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .unionfind import UnionFind


def label_key(label) -> str:
    """Sort key for point and arrow labels of mixed types."""
    return str(label)


def set_key(subset) -> tuple:
    """Sort key for families of label sets: by size, then by the sorted
    labels themselves."""
    return (len(subset), tuple(sorted(label_key(x) for x in subset)))


def sorted_labels(labels) -> list:
    return sorted(labels, key=label_key)


def sorted_sets(sets) -> list:
    return sorted(sets, key=set_key)


def _close_family(points, sets):
    """Least family containing `sets`, the empty set and `points`, closed
    under pairwise union and intersection. Plain fixpoint; families here
    are tiny."""
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


@dataclass(frozen=True)
class FiniteSpace:
    """A finite point set with its full family of open sets."""

    points: frozenset
    opens: frozenset

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        object.__setattr__(self, "opens",
                           frozenset(frozenset(o) for o in self.opens))
        for o in self.opens:
            if not o <= self.points:
                bad = sorted_labels(o - self.points)
                raise ValidationError(f"open set contains unknown labels: {bad}")
        if frozenset() not in self.opens or self.points not in self.opens:
            raise ValidationError(
                "opens must contain the empty set and the full point set")
        for a, b in itertools.combinations(self.opens, 2):
            if a | b not in self.opens:
                raise ValidationError(
                    f"opens not closed under union: "
                    f"{sorted_labels(a)} with {sorted_labels(b)}")
            if a & b not in self.opens:
                raise ValidationError(
                    f"opens not closed under intersection: "
                    f"{sorted_labels(a)} with {sorted_labels(b)}")

    @classmethod
    def _trusted(cls, points: frozenset, opens: frozenset) -> FiniteSpace:
        """Build without checking the topology laws. Only for families
        a lemma proves to be topologies; both arguments must already be
        frozensets (of frozensets)."""
        space = object.__new__(cls)
        object.__setattr__(space, "points", points)
        object.__setattr__(space, "opens", opens)
        return space

    @cached_property
    def _minimal(self) -> dict:
        out = {}
        for x in self.points:
            acc = None
            for o in self.opens:
                if x in o:
                    acc = o if acc is None else acc & o
            out[x] = acc
        return out

    def minimal_open(self, x) -> frozenset:
        """Smallest open neighbourhood of x: the intersection of every
        open set containing x, itself open because the space is finite."""
        if x not in self.points:
            raise ValidationError(f"unknown point: {x!r}")
        return self._minimal[x]

    def is_open(self, subset) -> bool:
        return frozenset(subset) in self.opens


def space_from_basis(points, basis) -> FiniteSpace:
    """Generate the topology from basis sets by closing under union and
    intersection and adding the empty and full sets. The closed family
    is a topology by construction, so only the labels are checked."""
    pts = frozenset(points)
    sets = []
    for raw in basis:
        s = frozenset(raw)
        unknown = s - pts
        if unknown:
            raise ValidationError(
                f"basis set {sorted_labels(s)} contains unknown label "
                f"{sorted_labels(unknown)[0]!r}")
        sets.append(s)
    return FiniteSpace._trusted(pts, _close_family(pts, sets))


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
    in the subspace topology on `whole`."""
    a = frozenset(part)
    m = frozenset(whole)
    if not a <= m:
        raise ValidationError("part must lie inside the ambient subset")
    if not m <= space.points:
        raise ValidationError(
            f"unknown points: {sorted_labels(m - space.points)}")
    rel_open = any(o & m == a for o in space.opens)
    rel_closed = any(o & m == m - a for o in space.opens)
    return rel_open, rel_closed


def generate_topology(space: FiniteSpace, extra_sets) -> FiniteSpace:
    """Smallest topology on the same points containing the current opens
    and every set in `extra_sets`. The result is finer than `space`, and
    a topology because `_close_family` returns a closed family."""
    extras = []
    for raw in extra_sets:
        s = frozenset(raw)
        if not s <= space.points:
            raise ValidationError(
                f"unknown points: {sorted_labels(s - space.points)}")
        extras.append(s)
    return FiniteSpace._trusted(
        space.points,
        _close_family(space.points, set(space.opens) | set(extras)))


def subspace(space: FiniteSpace, region) -> FiniteSpace:
    """Subspace topology on `region`: traces of the ambient opens.

    The traces form a topology on any region: tracing commutes with
    union and intersection, the empty set traces to itself and the whole
    space to the region. So the result needs no law check."""
    reg = frozenset(region)
    if not reg <= space.points:
        raise ValidationError(
            f"unknown points: {sorted_labels(reg - space.points)}")
    return FiniteSpace._trusted(reg, frozenset(o & reg for o in space.opens))


def is_finer(finer: FiniteSpace, coarser: FiniteSpace) -> bool:
    """True when both spaces share points and every open of `coarser` is
    open in `finer`."""
    return finer.points == coarser.points and coarser.opens <= finer.opens
