"""Finite groupoids and their wide subgroupoids.

Arrows carry opaque ids; a subgroupoid is an id set over a base of
objects, which keeps closure, intersection and comparison plain set
algebra. Composition order is diagrammatic: compose(a, b) means
"a then b" and is defined exactly when the target of a is the source
of b. Everything is finite and validated exhaustively at the public
constructors. Restriction, closure and intersection build their results
unchecked: each is closed by a one-line lemma stated where it is built.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (AssociativityError, EndpointMismatchError,
                     InverseLawError, MissingIdentityError,
                     ResourceLimitError, ValidationError)
from .spaces import _Frozen, _set, blocks, label_key, sorted_labels

# regions whose arrow sets one groupoid keeps; past this many, each new
# region evicts the oldest
MAX_REGIONS = 256

# arrows a built-in kind (pair, bundle, relation times group) may have;
# the count is checked before any per-arrow structure is built
MAX_BUILTIN_ARROWS = 1 << 20


class _Composites(dict):
    """The composition table of an equivalence relation times a group,
    filled on first lookup: (x, y, k1) then (y, z, k2) is (x, z, k1 k2).
    A pair that is not composable raises KeyError, as a full table does.
    The groupoid never changes, so a stored composite stays right, and
    the memo never holds more than the full table would."""

    def __init__(self, key: dict, aid: dict, mul: dict):
        super().__init__()
        self._key = key  # arrow id -> (x, y, k)
        self._aid = aid  # (x, y, k) -> arrow id
        self._mul = mul  # object -> multiplication table of its group
        self._full = False

    def __missing__(self, pair):
        first, second = pair
        key = self._key
        if first not in key or second not in key:
            raise KeyError(pair)
        (x, y, k1), (w, z, k2) = key[first], key[second]
        if y != w:
            raise KeyError(pair)
        c = self[pair] = self._aid[x, z, self._mul[x][k1, k2]]
        return c

    def fill(self) -> dict:
        """Store every composite not stored yet, and return the table."""
        if not self._full:
            leaving = {}  # x -> the arrows leaving x
            for a, (x, _, _) in self._key.items():
                leaving.setdefault(x, []).append(a)
            for first, (_, y, _) in self._key.items():
                for second in leaving[y]:
                    self[first, second]  # stored by __missing__ if new
            self._full = True
        return self


class Groupoid(_Frozen):
    """Objects plus arrows with explicit identity, inverse and
    composition tables. Values are immutable; equality is structural.
    A built-in kind composes on first lookup, so `table` answers
    subscripts only; `composites()` gives every composite."""

    _fields = ("objects", "source", "target", "identity", "inverse", "table")

    def __init__(self, objects, source, target, identity, inverse, table):
        _set(self, "objects", frozenset(objects))
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "identity", identity)
        _set(self, "inverse", inverse)
        _set(self, "table", table)  # (first, second) -> composite

    @cached_property
    def arrow_ids(self) -> frozenset:
        return frozenset(self.source)

    @cached_property
    def identity_ids(self) -> frozenset:
        return frozenset(self.identity.values())

    @cached_property
    def _wide_arrow_sets(self) -> dict:
        """base -> arrow sets of every wide subgroupoid over it, filled by
        `oracle.enumerate_wide_subgroupoids`. Plain arrow sets hold no
        reference back to the groupoid, so the memo goes with it."""
        return {}

    @cached_property
    def _regions(self) -> dict:
        """region -> `arrows_within(region)`, for at most MAX_REGIONS
        regions, oldest first. The groupoid never changes, so a kept set
        stays right; the glob oracles scan arrows and never read it."""
        return {}

    def compose(self, first, second):
        """first then second, when target[first] == source[second]."""
        return self.table[(first, second)]

    def composites(self) -> dict:
        """The whole composition table, completed first for a built-in
        kind; the readers that need every composite go through here."""
        table = self.table
        return table.fill() if isinstance(table, _Composites) else table

    def non_identity_count(self) -> int:
        return len(self.arrow_ids - self.identity_ids)

    def arrows_within(self, region) -> frozenset:
        """Arrows with both ends in `region`, kept per region."""
        reg = frozenset(region)
        memo = self._regions
        found = memo.get(reg)
        if found is None:
            if len(memo) >= MAX_REGIONS:
                del memo[next(iter(memo))]
            target = self.target
            found = memo[reg] = frozenset(
                a for a, x in self.source.items()
                if x in reg and target[a] in reg)
        return found

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Groupoid):
            return NotImplemented
        return ((self.objects, self.source, self.target, self.identity,
                 self.inverse)
                == (other.objects, other.source, other.target,
                    other.identity, other.inverse)
                and self.composites() == other.composites())

    def __hash__(self):
        return hash(self.objects)


def _raise_least(message: str, witnesses) -> None:
    """Raise a ValidationError naming the least witness, in sorted order."""
    if witnesses:
        least = min(witnesses, key=lambda w: tuple(map(label_key, w)))
        raise ValidationError(message.format(*least))


def validate_groupoid(candidate: Groupoid) -> Groupoid:
    """Check every groupoid law exhaustively and return the value.

    Each defect kind raises its own error; scans run in sorted order so
    the first reported witness is deterministic.
    """
    g = candidate
    table = g.composites()
    if set(g.source) != set(g.target):
        raise ValidationError("source and target must cover the same arrows")
    arrows = sorted(g.source, key=label_key)
    for a in arrows:
        if g.source[a] not in g.objects or g.target[a] not in g.objects:
            raise ValidationError(
                f"arrow {a!r} has endpoints outside the object set")
    unknown_objs = set(g.identity) - set(g.objects)
    if unknown_objs:
        raise ValidationError(
            f"identity assigned to unknown objects: {sorted_labels(unknown_objs)}")
    unknown_arrows = set(g.inverse) - set(g.source)
    if unknown_arrows:
        raise ValidationError(
            f"inverse assigned to unknown arrows: {sorted_labels(unknown_arrows)}")
    for x in sorted(g.objects, key=label_key):
        e = g.identity.get(x)
        if e is None or e not in g.source or g.source[e] != x or g.target[e] != x:
            raise MissingIdentityError(
                f"object {x!r} lacks an identity loop arrow")
    for a in arrows:
        b = g.inverse.get(a)
        if b is None or b not in g.source:
            raise InverseLawError(f"arrow {a!r} has no inverse arrow")
    for (a, b), c in sorted(table.items(),
                            key=lambda kv: (label_key(kv[0][0]), label_key(kv[0][1]))):
        if a not in g.source or b not in g.source or c not in g.source:
            raise ValidationError(
                f"composition entry ({a!r}, {b!r}) -> {c!r} mentions unknown arrows")
        if g.target[a] != g.source[b]:
            raise EndpointMismatchError(
                f"composition defined on non-composable pair ({a!r}, {b!r})")
        if g.source[c] != g.source[a] or g.target[c] != g.target[b]:
            raise EndpointMismatchError(
                f"compose({a!r}, {b!r}) = {c!r} should run "
                f"{g.source[a]!r} -> {g.target[b]!r}")
    leaving = {x: [] for x in g.objects}  # arrows by source, in scan order
    for a in arrows:
        leaving[g.source[a]].append(a)
    for a in arrows:
        for b in leaving[g.target[a]]:
            if (a, b) not in table:
                raise ValidationError(
                    f"composition missing for composable pair ({a!r}, {b!r})")
    for a in arrows:
        x, y = g.source[a], g.target[a]
        if table[(g.identity[x], a)] != a or table[(a, g.identity[y])] != a:
            raise ValidationError(f"identity law fails at arrow {a!r}")
    for a in arrows:
        b = g.inverse[a]
        if (table[(a, b)] != g.identity[g.source[a]]
                or table[(b, a)] != g.identity[g.target[a]]):
            raise InverseLawError(f"inverse law fails at arrow {a!r}")
    for a in arrows:
        for b in leaving[g.target[a]]:
            ab = table[(a, b)]
            for c in leaving[g.target[b]]:
                if table[(ab, c)] != table[(a, table[(b, c)])]:
                    raise AssociativityError(
                        f"associativity fails on triple ({a!r}, {b!r}, {c!r})",
                        triple=(a, b, c))
    return g


class WideSubgroupoid(_Frozen):
    """A subgroupoid of parent restricted to `base`, containing every
    identity of the base. Closure is checked on construction."""

    _fields = ("parent", "base", "arrows")

    def __init__(self, parent, base, arrows):
        _set(self, "parent", parent)
        _set(self, "base", frozenset(base))
        _set(self, "arrows", frozenset(arrows))
        g = self.parent
        if not self.base <= g.objects:
            raise ValidationError(
                f"base contains unknown objects: "
                f"{sorted_labels(self.base - g.objects)}")
        unknown = self.arrows - g.arrow_ids
        if unknown:
            raise ValidationError(
                f"unknown arrows: {sorted_labels(unknown)}")
        _raise_least("arrow {!r} leaves the base",
                     [(a,) for a in self.arrows if g.source[a] not in self.base
                      or g.target[a] not in self.base])
        _raise_least("not wide: identity arrow of {!r} is missing",
                     [(u,) for u in self.base
                      if g.identity[u] not in self.arrows])
        _raise_least("not closed under inverse at {!r}",
                     [(a,) for a in self.arrows
                      if g.inverse[a] not in self.arrows])
        leaving = {}  # the arrows, by source: the composable pairs only
        for b in self.arrows:
            leaving.setdefault(g.source[b], []).append(b)
        _raise_least("not closed under composition at ({!r}, {!r})",
                     [(a, b) for a in self.arrows
                      for b in leaving.get(g.target[a], ())
                      if g.table[(a, b)] not in self.arrows])

    @classmethod
    def _trusted(cls, parent: Groupoid, base: frozenset,
                 arrows: frozenset) -> WideSubgroupoid:
        """Build without checking the subgroupoid laws. Only for arrow
        sets a lemma proves wide and closed over `base`; both sets must
        already be frozensets."""
        h = object.__new__(cls)
        _set(h, "parent", parent)
        _set(h, "base", base)
        _set(h, "arrows", arrows)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WideSubgroupoid):
            return NotImplemented
        return (self.base == other.base and self.arrows == other.arrows
                and self.parent == other.parent)

    def __hash__(self):
        return hash((self.base, self.arrows))


def wide_subgroupoid(parent: Groupoid, base, arrows=()) -> WideSubgroupoid:
    """Build a wide subgroupoid, adding the identity arrows of the base."""
    base = frozenset(base)
    # the constructor rejects unknown objects first, with its own message
    ids = {parent.identity[u] for u in base & parent.objects}
    return WideSubgroupoid(parent, base, frozenset(arrows) | ids)


def full_restriction(g: Groupoid, region) -> Groupoid:
    """The groupoid of all arrows of g that start and end in `region`."""
    reg = frozenset(region)
    if not reg <= g.objects:
        raise ValidationError(
            f"unknown objects: {sorted_labels(reg - g.objects)}")
    keep = g.arrows_within(reg)
    return Groupoid(
        objects=reg,
        source={a: g.source[a] for a in keep},
        target={a: g.target[a] for a in keep},
        identity={x: g.identity[x] for x in reg},
        inverse={a: g.inverse[a] for a in keep},
        table={(a, b): g.table[a, b] for a in keep for b in keep
               if g.target[a] == g.source[b]},
    )


def restrict_wide(h: WideSubgroupoid, region) -> WideSubgroupoid:
    """Arrows of h with both endpoints in `region`: h's arrows met with
    the parent's arrows inside the region, which the parent keeps.

    Closed without a check: the identities of the region, the inverse of
    a kept arrow and the composite of two kept arrows all lie in h and
    have both endpoints in the region."""
    reg = frozenset(region)
    if not reg <= h.base:
        raise ValidationError("restriction region must lie inside the base")
    return WideSubgroupoid._trusted(h.parent, reg,
                                    h.arrows & h.parent.arrows_within(reg))


def _arrow_closure(g: Groupoid, base: frozenset, seed,
                   start=frozenset()) -> frozenset:
    """Least arrow set over `base` containing the base identities, the
    closed arrow set `start` and `seed`, closed under inverse and
    composition. Worklist fixpoint: the identities and `start` are
    closed already, and each further arrow is inverted and composed with
    the taken arrows that meet it end to end, so only composable pairs
    are visited. A composite of two arrows of `start` lies in it, and
    one involving a new arrow is pushed when the later of the two is
    taken, so `start` is only indexed, never worked."""
    source, target, table = g.source, g.target, g.table
    current = {g.identity[u] for u in base}
    leaving = {u: [g.identity[u]] for u in base}    # taken, by source
    entering = {u: [g.identity[u]] for u in base}   # taken, by target
    for b in start - current:
        leaving[source[b]].append(b)
        entering[target[b]].append(b)
    current |= start
    todo = list(seed)
    while todo:
        a = todo.pop()
        if a in current:
            continue
        current.add(a)
        s, t = source[a], target[a]
        leaving[s].append(a)
        entering[t].append(a)
        todo.append(g.inverse[a])
        todo += [table[a, b] for b in leaving[t]]
        todo += [table[b, a] for b in entering[s]]
    return frozenset(current)


def generate_wide(g: Groupoid, base, seed=()) -> WideSubgroupoid:
    """Smallest wide subgroupoid over `base` containing the seed arrows.
    The seed is checked; the closure is not, being a fixpoint of the
    identity, inverse and composition steps."""
    base = frozenset(base)
    if not base <= g.objects:
        raise ValidationError(
            f"unknown objects: {sorted_labels(base - g.objects)}")
    seed = frozenset(seed)
    unknown = seed - g.arrow_ids
    if unknown:
        raise ValidationError(f"unknown seed arrows: {sorted_labels(unknown)}")
    for a in seed:
        if g.source[a] not in base or g.target[a] not in base:
            raise ValidationError(f"seed arrow {a!r} leaves the base")
    return WideSubgroupoid._trusted(g, base, _arrow_closure(g, base, seed))


def transitivity_components(h: WideSubgroupoid) -> frozenset:
    """Partition of the base: objects linked by arrows of h."""
    return _generated_components(h.parent, h.base, h.arrows)


def _generated_components(g: Groupoid, base, seed) -> frozenset:
    """Transitivity components of `generate_wide(g, base, seed)`, read
    off the seed: objects linked by a chain of seed arrows. <S> and S
    link the same objects, as an identity, inverse or composite of arrows
    joins objects that its factors already link."""
    source, target = g.source, g.target
    return blocks(base, ((source[a], target[a]) for a in seed))


def intersect_wide(subgroupoids) -> WideSubgroupoid:
    """Common arrows of wide subgroupoids sharing a parent and a base.
    Every law is closed under intersection, so the result is unchecked."""
    subs = list(subgroupoids)
    if not subs:
        raise ValidationError("intersection of no subgroupoids is undefined")
    first = subs[0]
    for h in subs[1:]:
        if h.parent != first.parent:
            raise ValidationError("parent mismatch")
        if h.base != first.base:
            raise ValidationError("base mismatch")
    arrows = frozenset.intersection(*(h.arrows for h in subs))
    return WideSubgroupoid._trusted(first.parent, first.base, arrows)


def _check_printable_labels(labels, what):
    """Synthesized arrow ids embed labels as strings, so labels must
    stringify injectively and avoid the id separators."""
    _raise_least(f"{what} label {{!r}} may not contain ':' or '#'",
                 [(x,) for x in labels if ":" in str(x) or "#" in str(x)])
    seen = {}
    for x in labels:
        s = str(x)
        if s in seen and seen[s] != x:
            raise ValidationError(
                f"{what} labels {seen[s]!r} and {x!r} collide as strings")
        seen[s] = x


class FiniteGroup(_Frozen):
    """A finite group given by its multiplication table."""

    _fields = ("elements", "unit", "mul", "inv")

    def __init__(self, elements, unit, mul, inv):
        _set(self, "elements", elements)
        _set(self, "unit", unit)
        _set(self, "mul", mul)
        _set(self, "inv", inv)


def finite_group(elements, unit, mul) -> FiniteGroup:
    """Validate the table exhaustively and derive the inverse map."""
    els = frozenset(elements)
    if unit not in els:
        raise ValidationError("group unit must be an element")
    _check_printable_labels(els, "group element")
    mul = dict(mul)
    for key in mul:
        if not (isinstance(key, tuple) and len(key) == 2
                and key[0] in els and key[1] in els):
            raise ValidationError(f"multiplication keyed on unknown pair {key!r}")
    _raise_least("multiplication undefined for ({!r}, {!r})",
                 [(a, b) for a in els for b in els if (a, b) not in mul])
    _raise_least("product of ({!r}, {!r}) escapes the element set",
                 [key for key, c in mul.items() if c not in els])
    _raise_least("unit law fails at element {!r}",
                 [(a,) for a in els if mul[(unit, a)] != a
                  or mul[(a, unit)] != a])
    _raise_least("group multiplication not associative at "
                 "({!r}, {!r}, {!r})",
                 [(a, b, c) for a in els for b in els for c in els
                  if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]])
    inv = {}
    ordered = sorted(els, key=label_key)
    for a in ordered:
        found = [b for b in ordered
                 if mul[(a, b)] == unit and mul[(b, a)] == unit]
        if not found:
            raise ValidationError(f"element {a!r} has no inverse")
        inv[a] = found[0]
    return FiniteGroup(els, unit, mul, inv)


def cyclic_group(order: int) -> FiniteGroup:
    if order < 1:
        raise ValidationError("cyclic group order must be positive")
    els = range(order)
    mul = {(a, b): (a + b) % order for a in els for b in els}
    return finite_group(els, 0, mul)


_TRIVIAL_GROUP = cyclic_group(1)


def _check_arrow_count(count: int) -> None:
    if count > MAX_BUILTIN_ARROWS:
        raise ResourceLimitError(
            f"{count} arrows exceeds the built-in groupoid bound of "
            f"{MAX_BUILTIN_ARROWS}")


def _tabulate(pairs, group_at, name) -> Groupoid:
    """An equivalence relation times a group over each class, on the
    points it relates: an arrow name(x, y, k) for each pair (x, y) and
    each k in group_at(x), which must be the group over all of x's class.
    (x, y, k1) then (y, z, k2) is (x, z, k1 k2); the identity of x is
    (x, x, unit) and the inverse of (x, y, k) is (y, x, k^-1). The
    composites are worked out on first lookup, by `_Composites`.

    No law needs a check. The relation is reflexive, symmetric and
    transitive, so identities, inverses and composites are arrows with
    the right ends, and every composable pair composes. The laws hold in
    the first component, where (x, z) is the one pair from x to z, and
    in the second, which `finite_group` has validated. The callers'
    label checks keep the names distinct."""
    key = {name(x, y, k): (x, y, k)
           for x, y in pairs for k in group_at(x).elements}
    aid = {xyk: a for a, xyk in key.items()}
    groups = {x: group_at(x) for x, _ in pairs}
    source, target, inverse = {}, {}, {}
    for a, (x, y, k) in key.items():
        source[a], target[a] = x, y
        inverse[a] = aid[y, x, groups[x].inv[k]]
    identity = {x: aid[x, x, grp.unit] for x, grp in groups.items()}
    table = _Composites(key, aid, {x: grp.mul for x, grp in groups.items()})
    return Groupoid(frozenset(groups), source, target, identity, inverse,
                    table)


def pair_groupoid(points) -> Groupoid:
    """One arrow p:q for every ordered pair; compose(p:q, q:r) = p:r."""
    pts = frozenset(points)
    if not pts:
        raise ValidationError("pair groupoid needs at least one point")
    _check_printable_labels(pts, "point")
    _check_arrow_count(len(pts) ** 2)
    return _tabulate([(p, q) for p in pts for q in pts],
                     lambda x: _TRIVIAL_GROUP, lambda p, q, k: f"{p}:{q}")


def group_bundle(points, fibers) -> Groupoid:
    """A loops-only groupoid: source equals target everywhere, with the
    fiber group sitting over each point. Arrow ids are p#g."""
    pts = frozenset(points)
    _check_printable_labels(pts, "point")
    _raise_least("missing fiber for point {!r}",
                 [(p,) for p in pts if p not in fibers])
    _raise_least("fiber keyed on unknown point {!r}",
                 [(p,) for p in fibers if p not in pts])
    _check_arrow_count(sum(len(fibers[p].elements) for p in pts))
    return _tabulate([(p, p) for p in pts], fibers.__getitem__,
                     lambda p, q, k: f"{p}#{k}")


def rel_times_group(relation: WideSubgroupoid, group: FiniteGroup) -> Groupoid:
    """Pairs (relation arrow, group element) with componentwise
    composition: compose((x:y, k1), (y:z, k2)) = (x:z, k1 k2). Arrow ids
    are x:y#k. The relation needs one arrow per pair of ends, and those
    pairs lie inside the union of B x B over the blocks B they link: so
    they form the equivalence relation `_tabulate` needs exactly when
    they are all of it."""
    _check_arrow_count(len(relation.arrows) * len(group.elements))
    source, target = relation.parent.source, relation.parent.target
    ends = [(source[a], target[a]) for a in relation.arrows]
    pairs = set(ends)
    if len(pairs) != len(ends) or len(pairs) != sum(
            len(c) ** 2 for c in blocks(relation.base, pairs)):
        raise ValidationError("relation must be an equivalence relation "
                              "with one arrow per related pair")
    return _tabulate(ends, lambda x: group, lambda x, y, k: f"{x}:{y}#{k}")
