"""Finite topological spaces.

Everything in this package runs over finite point sets, and a finite
space is automatically Alexandrov: the open family is closed under all
intersections, so every point x has a smallest open neighbourhood m(x).
That neighbourhood is what makes germ computations over the space
exact, and the whole package leans on it.

A finite topology is the same thing as its specialisation preorder
(y lies in m(x)), so a space stores only its points and m(x), and each
operation below is a one-line lemma on them; the open family is listed
on demand, up to MAX_OPENS sets, as integer bitmasks over the sorted
points (`FiniteSpace._open_masks`), and everything that lists or counts
opens reads that one family. The public constructor checks the
topology laws; the builders below skip the check, because their m(x)
are minimal neighbourhoods by construction.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ResourceLimitError, ValidationError

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


def blocks(items, pairs) -> frozenset:
    """Partition of `items` into the classes of the equivalence relation
    generated by `pairs`, each a pair of items. Each pair merges the
    smaller of its two blocks into the larger, so an item changes block
    at most log2(len(items)) times. A merge keeps the larger block's
    first item first, so each block is listed once, by its first item."""
    block = {x: [x] for x in items}  # item -> its block, shared by members
    for a, b in pairs:
        big, small = block[a], block[b]
        if big is small:
            continue
        if len(big) < len(small):
            big, small = small, big
        big += small
        for x in small:
            block[x] = big
    return frozenset(frozenset(b) for x, b in block.items() if b[0] == x)


# sets a field of a `_Frozen` value past its `__setattr__`; the field
# stays in the instance's inline storage, where a `__dict__` would cost
# a dict per value
_set = object.__setattr__


class _Frozen:
    """Immutable values: only `__init__` and `_trusted` builders set
    fields, through `_set`, and only `cached_property` adds to them.
    `__repr__` shows `_fields`."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))


def _minimal_cover(space) -> list:
    """The distinct minimal neighbourhoods: a basis of the topology."""
    return sorted_sets({space.minimal_open(x) for x in space.points})


class FiniteSpace(_Frozen):
    """A finite point set with its topology, held as the minimal open
    neighbourhood m(x) of every point. The constructor takes the full
    open family and checks the topology laws on it."""

    _fields = ("points", "_minimal")

    def __init__(self, points, opens):
        points = frozenset(points)
        family = frozenset(frozenset(o) for o in opens)
        outside = [o for o in family if not o <= points]
        if outside:  # name the least such open, as `sorted_sets` orders them
            bad = sorted_labels(min(outside, key=set_key) - points)
            raise ValidationError(f"open set contains unknown labels: {bad}")
        if frozenset() not in family or points not in family:
            raise ValidationError(
                "opens must contain the empty set and the full point set")
        # a topology holds every m(x) (intersection) and o | m(x) for each
        # of its opens o (union: opens are unions of minimal neighbourhoods)
        minimal = {x: points.intersection(*(o for o in family if x in o))
                   for x in points}
        labels = sorted_labels(points)
        for x in labels:
            if minimal[x] not in family:
                raise ValidationError(
                    f"opens not closed under intersection: the opens "
                    f"containing {x!r} meet in {sorted_labels(minimal[x])}")
        for o in sorted_sets(family):
            for x in labels:
                if o | minimal[x] not in family:
                    raise ValidationError(
                        f"opens not closed under union: {sorted_labels(o)} "
                        f"with {sorted_labels(minimal[x])}")
        _set(self, "points", points)
        _set(self, "_minimal", minimal)

    @classmethod
    def _trusted(cls, points: frozenset, minimal: dict) -> FiniteSpace:
        """Build without checking. Only for a fresh dict that a lemma
        proves to be minimal neighbourhoods: x lies in m(x) inside
        `points`, and m(y) lies in m(x) for every y in m(x)."""
        space = object.__new__(cls)
        _set(space, "points", points)
        _set(space, "_minimal", minimal)
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
    def _open_masks(self) -> list:
        """Every open set as a bitmask, in `set_key` order: the unions of
        the minimal neighbourhoods, grown by one m(x) at a time with
        integer OR. Raises once the family passes MAX_OPENS.

        Bit i (counted from the top) is the i-th point of `sorted_labels`.
        Order lemma: sorting the masks in descending order and then
        stably by bit count gives `set_key` order. Proof. Take opens A
        and B of one size, and let a be the least label of their
        symmetric difference; say a is in A. Every label of A or B below
        a lies in both, so the sorted labels of A and B agree up to a,
        where A has a and B some label above a: A comes first in
        `set_key` order. The highest bit where the masks differ is a's,
        set in A, so A's mask is also the larger. (Where two labels share
        their text, `set_key` ties the opens, and either order is its
        order.)"""
        bit = dict(_bits(self.points))
        family = {0}
        for m in {sum(bit[y] for y in o) for o in self._minimal.values()}:
            for o in list(family):
                family.add(o | m)
                if len(family) > MAX_OPENS:
                    raise ResourceLimitError(
                        f"more than {MAX_OPENS} open sets, too many to list")
        masks = sorted(family, reverse=True)
        masks.sort(key=int.bit_count)
        return masks

    @property
    def opens(self) -> frozenset:
        """Every open set."""
        return frozenset(enumerate_opens(self))

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


def _cut_down(points: frozenset, minimal: dict, sets, refuse) -> FiniteSpace:
    """m(x) = `minimal[x]` met with every set in `sets` that holds x; a
    set with unknown labels raises ValidationError(refuse(set, labels))."""
    for raw in sets:
        s = frozenset(raw)
        unknown = s - points
        if unknown:
            raise ValidationError(refuse(s, unknown))
        for x in s:
            minimal[x] &= s
    return FiniteSpace._trusted(points, minimal)


def space_from_basis(points, basis) -> FiniteSpace:
    """The topology generated by basis sets: the closure of the basis
    under union and intersection, with the empty and full sets. Its m(x)
    is the point set cut down by every basis set containing x, so only
    the labels are checked."""
    pts = frozenset(points)
    return _cut_down(pts, dict.fromkeys(pts, pts), basis, lambda s, u: (
        f"basis set {sorted_labels(s)} contains unknown label "
        f"{sorted_labels(u)[0]!r}"))


def _bits(points) -> list:
    """(label, bit) for each point in `sorted_labels` order, the first
    point on the highest bit: the numbering of `FiniteSpace._open_masks`."""
    top = len(points) - 1
    return [(x, 1 << (top - i)) for i, x in enumerate(sorted_labels(points))]


def open_label_lists(space: FiniteSpace) -> list:
    """All opens, each as its `sorted_labels` list, in `set_key` order:
    `[sorted_labels(o) for o in enumerate_opens(space)]`."""
    bits = _bits(space.points)
    return [[x for x, b in bits if m & b] for m in space._open_masks]


def enumerate_opens(space: FiniteSpace) -> list:
    """All opens, ordered by size then lexicographically by labels."""
    return [frozenset(labels) for labels in open_label_lists(space)]


def count_opens(space: FiniteSpace) -> int:
    """The number of open sets. Lists them, so it raises past MAX_OPENS."""
    return len(space._open_masks)


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
    return blocks(sub, ((a, b) for a in sub
                        for b in space.minimal_open(a) & sub))


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
    return _cut_down(space.points, dict(space._minimal), extra_sets,
                     lambda s, u: f"unknown points: {sorted_labels(u)}")


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
