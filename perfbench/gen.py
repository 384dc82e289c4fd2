"""Seeded input generators for the chain-large and docs-cli workloads.

Everything here uses only the standard library and `random.Random(seed)`,
never the program under test, so the program receives generated data and
nothing it derived itself. Each generator also returns the expected
values that the workload checks the program against; those come from
small independent twins (union-find, cyclic subgroup generation, up-set
counting) written here.
"""

from __future__ import annotations

import copy
import json
import math
import random


def canonical_bytes(value) -> bytes:
    """Canonical JSON encoding used for input identity checks and digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)

    def blocks(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def _pair_arrows(blocks) -> list:
    return sorted(f"{p}:{q}" for block in blocks for p in block for q in block)


# ---------------------------------------------------------------- chain-large

# (n, largest transitivity block) for pair-groupoid slots and (n, group
# order) for bundle slots. The multiset is fixed, so every seed runs the
# same mix of sizes and block layouts; the seed decides the seed arrows
# and the order of the slots. Most instances have 8-12
# points; the 90th percentile falls among those of 12-16 points, and
# above them come a pair whose one block is the whole chain of 10 points
# and a bundle on 20 points. A pass over the pool takes about 2.2 s on a
# shared 2-core machine when it is not slowed down. Larger instances are
# left out to keep passes short, so that enough of them fit into a run
# to filter out the machine's drift: whole-chain blocks of 14-16 points
# take 0.5-1.7 s each and bundles on 24 points 0.3 s or more; with the
# first three of them a pass took three times as long, and those three
# inputs alone made half of ops_per_s.
CHAIN_PAIR_SLOTS = ([(n, b) for n in range(8, 13) for b in (2, 3, 4)] * 3
                    + [(13, 2), (14, 2)] + [(16, 2)] * 4 + [(10, 10)])
CHAIN_BUNDLE_SLOTS = ([(n, k) for n in (8, 10, 12) for k in (2, 3, 4)] * 5
                      + [(14, 2), (14, 3), (16, 2), (20, 2)])


def _chain_space(n):
    points = [f"c{i:02d}" for i in range(n)]
    # minimal open of point i is {0..i}: n + 1 opens counting the empty set
    return points, [points[:i + 1] for i in range(n)]


def _pair_slot(rng, n, largest):
    """Seed arrows joining the points of each transitivity block. The
    blocks are fixed: every k-th point of the chain, for the fewest k
    blocks of at most `largest` points, so that the slot costs the same
    for every seed; the seed picks the arrows and their directions."""
    points, basis = _chain_space(n)
    k = -(-n // largest)
    blocks = [points[j::k] for j in range(k)]
    seed = []
    for block in blocks:
        for i in range(1, len(block)):
            a, b = block[i], rng.choice(block[:i])
            seed.append(f"{a}:{b}" if rng.random() < 0.5 else f"{b}:{a}")
        if len(block) > 2:
            a, b = rng.sample(block, 2)
            seed.append(f"{a}:{b}")
    rng.shuffle(seed)
    uf = _UnionFind(points)
    for arrow in seed:
        a, b = arrow.split(":")
        uf.union(a, b)
    return {"kind": "pair", "n": n, "points": points, "basis": basis,
            "seed_arrows": seed, "expected": _pair_arrows(uf.blocks())}


def _cyclic_subgroup(order, generators) -> list:
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = (x + g) % order
            if y not in members:
                members.add(y)
                frontier.append(y)
    return sorted(members)


def _bundle_slot(rng, n, order):
    """Two seed arrows p#g at each point, generating the multiples of
    one divisor of the order. The divisors go round-robin along the
    chain, so that the slot costs the same for every seed; the seed
    picks the generators."""
    points, basis = _chain_space(n)
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    seed, expected = [], []
    for i, p in enumerate(points):
        d = divisors[i % len(divisors)]
        gens = [d * rng.choice([u for u in range(1, order + 1)
                                if math.gcd(u, order // d) == 1]) % order
                for _ in range(2)]
        seed.extend(f"{p}#{g}" for g in gens)
        expected.extend(f"{p}#{g}" for g in _cyclic_subgroup(order, gens))
    rng.shuffle(seed)
    return {"kind": "bundle", "n": n, "order": order, "points": points,
            "basis": basis, "seed_arrows": seed, "expected": sorted(expected)}


def chain_inputs(seed: int) -> list:
    rng = random.Random(seed)
    slots = ([("pair",) + s for s in CHAIN_PAIR_SLOTS]
             + [("bundle",) + s for s in CHAIN_BUNDLE_SLOTS])
    rng.shuffle(slots)
    make = {"pair": _pair_slot, "bundle": _bundle_slot}
    return [make[kind](rng, n, x) for kind, n, x in slots]


# ------------------------------------------------------------------ docs-cli

# (points, kind, mutated) of each generated document: a fixed multiset,
# so that every seed runs the same mix of sizes and kinds; the seed
# decides the preorder, the section, the mutation and the order. With
# the fixtures, the median falls among the 6-point documents and the
# 90th percentile at their top, where the 7-point ones begin; the 8- and
# 10-point ones lie above it. A mutated document must be rejected as
# invalid.
#
# The open-set caps and the size mix set where the time goes and how
# long a pass over the pool takes. With 10-14 opens, per-object
# revalidation in `groupoids` took a third of the time and `spaces` 14%.
# With 30-60 opens and foliations of up to 160, `spaces` takes about 40%
# and `groupoids` a third (cProfile), and a pass takes about 2.5 s on a
# shared 2-core machine when it is not slowed down. With 40-80 opens,
# foliations of up to 256 and 14 documents each on 7 and 8 points,
# `spaces` took half, but a pass took 7 s: too long for enough passes in
# a run to filter out the machine's drift.
_DOCS_KINDS = ("pair-atlas", "pair-sub", "pair-atlas", "explicit")


def _docs_slots(counts, mutated):
    return [(n, _DOCS_KINDS[i % len(_DOCS_KINDS)], mutated)
            for n, count in counts for i in range(count)]


DOCS_SLOTS = (
    _docs_slots([(6, 54), (7, 5), (8, 2), (10, 1)], False)
    + _docs_slots([(6, 18), (7, 8), (8, 4)], True))
DOCS_MIN_OPENS = 30              # open sets of a generated space
DOCS_MAX_OPENS = 60
DOCS_MAX_FOLIATION_OPENS = 160   # open sets of its foliation topology
DOCS_LARGEST_BLOCK = 3           # points in one transitivity component


def _down_closure(points, below):
    """Reflexive-transitive closure: m(x) = x with everything below it."""
    minimal = {}
    for x in points:
        seen = {x}
        stack = [x]
        while stack:
            for y in below[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        minimal[x] = frozenset(seen)
    return minimal


def count_opens(points, minimal, limit) -> int:
    """Open sets of the Alexandrov topology with minimal neighbourhoods
    `minimal`. Exact up to `limit`; past it, counting stops early and
    the result only says that it exceeds `limit`. Each point is either
    put in, with its minimal neighbourhood, or left out, with every point
    whose neighbourhood holds it; the in-set stays open and the out-set
    closed, so both choices are always possible and every leaf is one
    open set."""
    above = {x: frozenset(y for y in points if x in minimal[y])
             for x in points}
    count = 0

    def walk(i, inside, outside):
        nonlocal count
        while i < len(points) and (points[i] in inside
                                   or points[i] in outside):
            i += 1
        if i == len(points):
            count += 1
            return
        x = points[i]
        walk(i + 1, inside | minimal[x], outside)
        if count <= limit:
            walk(i + 1, inside, outside | above[x])

    walk(0, frozenset(), frozenset())
    return count


def _random_preorder(rng, n):
    """Random preorder on n points with DOCS_MIN_OPENS to DOCS_MAX_OPENS
    open sets; denser orders have fewer opens."""
    points = [f"p{i}" for i in range(n)]
    density = 0.25
    while True:
        below = {x: set() for x in points}
        for i, x in enumerate(points):
            for y in points[:i]:
                if rng.random() < density:
                    below[x].add(y)
        # an equivalent pair makes it a preorder, not only a partial order
        if rng.random() < 0.4:
            a, b = rng.sample(points, 2)
            below[a].add(b)
            below[b].add(a)
        minimal = _down_closure(points, below)
        opens = count_opens(points, minimal, DOCS_MAX_OPENS)
        if opens > DOCS_MAX_OPENS:
            density = min(0.9, density + 0.05)
        elif opens < DOCS_MIN_OPENS:
            density = max(0.05, density - 0.05)
        else:
            return points, minimal, opens


def _random_partition(rng, items, largest):
    order = list(items)
    rng.shuffle(order)
    blocks = []
    while order:
        size = rng.randint(1, largest)
        blocks.append(order[:size])
        order = order[size:]
    return blocks


def _pair_atlas(rng, minimal):
    """Minimal-neighbourhood charts of the pair groupoid, as blocks of an
    equivalence relation per chart, obeying the gluing law
    chart(x)|m(y) = chart(y) for y in m(x).

    Charts are built from the smallest neighbourhood up. A chart joins
    the blocks of the charts inside it, groups the points new to it, and
    may merge two more points, kept only when the law still holds. Such
    local merges can make a later join break the law; then the charts
    are restrictions of one global partition, which always obey it."""
    neighbourhoods = sorted(set(minimal.values()),
                            key=lambda s: (len(s), sorted(s)))
    charts = {}
    for u in neighbourhoods:
        inner = [v for v in charts if v < u]
        base = _UnionFind(sorted(u))
        for v in inner:
            for block in charts[v]:
                for y in block[1:]:
                    base.union(block[0], y)
        new = sorted(u.difference(*inner))
        for i in range(0, len(new), DOCS_LARGEST_BLOCK):
            for y in new[i + 1:i + DOCS_LARGEST_BLOCK]:
                base.union(new[i], y)
        choices = [base]
        if len(u) > 1 and rng.random() < 0.5:
            extra = copy.deepcopy(base)
            if _union_bounded(extra, *rng.sample(sorted(u), 2)):
                choices.insert(0, extra)
        for uf in choices:
            blocks = sorted(sorted(b) for b in uf.blocks())
            if all(_restrict_blocks(blocks, v) == charts[v] for v in inner):
                charts[u] = blocks
                break
        else:
            points = sorted(set().union(*neighbourhoods))
            blocks = _random_partition(rng, points, DOCS_LARGEST_BLOCK)
            return {u: _restrict_blocks(blocks, u) for u in neighbourhoods}
    return charts


def _union_bounded(uf, a, b) -> bool:
    """Merge the blocks of a and b unless that makes a block too large."""
    blocks = uf.blocks()
    size = sum(len(blk) for blk in blocks if a in blk or b in blk)
    if size > DOCS_LARGEST_BLOCK:
        return False
    uf.union(a, b)
    return True


def _restrict_blocks(blocks, region):
    return sorted(sorted(y for y in b if y in region)
                  for b in blocks if any(y in region for y in b))


def _explicit_groupoid(blocks, order):
    """Relation-times-cyclic-group groupoid written out explicitly:
    arrows x:y#g for x, y in one block and g in Z/order."""
    arrows, inverse, compose = [], {}, []
    for block in blocks:
        for x in block:
            for y in block:
                for g in range(order):
                    aid = f"{x}:{y}#{g}"
                    arrows.append({"id": aid, "src": x, "tgt": y})
                    inverse[aid] = f"{y}:{x}#{(-g) % order}"
                    for z in block:
                        for h in range(order):
                            compose.append([aid, f"{y}:{z}#{h}",
                                            f"{x}:{z}#{(g + h) % order}"])
    identity = {x: f"{x}:{x}#0" for block in blocks for x in block}
    return {"kind": "explicit", "arrows": arrows, "identity_of": identity,
            "inverse_of": inverse, "compose": compose}


def _explicit_sub(rng, blocks, order):
    """A wide subgroupoid of the explicit groupoid: a refinement of the
    blocks times the subgroup of multiples of a divisor of the order.
    Returns its transitivity components and its arrows."""
    step = rng.choice([d for d in range(1, order + 1) if order % d == 0])
    parts = [part for block in blocks
             for part in _random_partition(rng, block, len(block))]
    arrows = sorted(f"{x}:{y}#{g}" for part in parts for x in part
                    for y in part for g in range(0, order, step))
    return parts, arrows


def _arrow_ends(arrow) -> set:
    x, rest = arrow.split(":")
    return {x, rest.split("#")[0]}


def _section(rng, kind, points, minimal):
    """Groupoid and section part of a document, the groupoid's arrow
    count, and the transitivity components of every chart."""
    neighbourhoods = sorted(set(minimal.values()), key=sorted)
    if kind == "explicit":
        order = rng.randint(1, 2)
        blocks = _random_partition(rng, points, DOCS_LARGEST_BLOCK)
        groupoid = _explicit_groupoid(blocks, order)
        parts, arrows = _explicit_sub(rng, blocks, order)
        count = len(groupoid["arrows"])
        if rng.random() < 0.5:
            return (groupoid, {"subgroupoid": {"base": points,
                                               "arrows": arrows}},
                    count, parts)
        atlas = [{"open": sorted(m),
                  "arrows": [a for a in arrows if _arrow_ends(a) <= m]}
                 for m in neighbourhoods]
        comps = [[x for x in part if x in m]
                 for m in neighbourhoods for part in parts]
        return groupoid, {"atlas": atlas}, count, [c for c in comps if c]
    groupoid = {"kind": "pair"}
    count = len(points) ** 2
    if kind == "pair-atlas":
        charts = _pair_atlas(rng, minimal)
        atlas = [{"open": sorted(u), "arrows": _pair_arrows(blocks)}
                 for u, blocks in charts.items()]
        return (groupoid, {"atlas": atlas}, count,
                [b for blocks in charts.values() for b in blocks])
    blocks = _random_partition(rng, points, DOCS_LARGEST_BLOCK)
    return (groupoid, {"subgroupoid": {"base": points,
                                       "arrows": _pair_arrows(blocks)}},
            count, blocks)


def _valid_doc(rng, index, n, kind):
    """A valid document on n points whose space and foliation topology
    stay within the open-set caps."""
    while True:
        points, minimal, opens = _random_preorder(rng, n)
        for _ in range(5):
            groupoid, section, arrows, comps = _section(rng, kind, points,
                                                        minimal)
            # the foliation refines m(x) by every chart component through x
            foliated = {x: minimal[x].intersection(
                *(c for c in comps if x in c)) for x in points}
            foliation_opens = count_opens(points, foliated,
                                           DOCS_MAX_FOLIATION_OPENS)
            if foliation_opens <= DOCS_MAX_FOLIATION_OPENS:
                basis = sorted(sorted(m) for m in set(minimal.values()))
                rng.shuffle(basis)
                doc = {"space": {"points": points, "basis": basis},
                       "groupoid": groupoid, **section}
                expect = {"code": 0, "points": points, "open_sets": opens,
                          "arrows": arrows, "foliation_opens": foliation_opens}
                return {"name": f"gen-{index:03d}", "doc": doc,
                        "expect": expect}


def _mutate(rng, item, index):
    """A document that must be rejected as invalid (exit code 2)."""
    doc = copy.deepcopy(item["doc"])
    choices = ["unknown-basis-label", "unknown-arrow"]
    if doc["groupoid"]["kind"] == "explicit":
        choices += ["endpoint-mismatch", "missing-inverse"]
    how = rng.choice(choices)
    if how == "unknown-basis-label":
        doc["space"]["basis"].append(["zz-unknown"])
    elif how == "unknown-arrow":
        target = (doc["atlas"][rng.randrange(len(doc["atlas"]))]
                  if "atlas" in doc else doc["subgroupoid"])
        target["arrows"].append("zz-no-such-arrow")
    elif how == "endpoint-mismatch":
        g = doc["groupoid"]
        row = g["compose"][rng.randrange(len(g["compose"]))]
        src = row[0].split(":")[0]
        other = next(p for p in doc["space"]["points"] if p != src)
        row[2] = g["identity_of"][other]
    else:
        inverse = doc["groupoid"]["inverse_of"]
        del inverse[rng.choice(sorted(inverse))]
    return {"name": f"bad-{index:03d}-{how}", "doc": doc,
            "expect": {"code": 2}}


def docs_inputs(seed: int) -> list:
    rng = random.Random(seed)
    slots = DOCS_SLOTS[:]
    rng.shuffle(slots)
    items = []
    for i, (n, kind, mutated) in enumerate(slots):
        item = _valid_doc(rng, i, n, kind)
        items.append(_mutate(rng, item, i) if mutated else item)
    return items
