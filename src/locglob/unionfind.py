"""Union-find over arbitrary hashable items.

Used for transitivity components of groupoids and for connectivity of
finite spaces, where the item universe is a handful of labels.
"""


class UnionFind:
    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        # path compression
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def partition(self):
        """The current blocks, as a frozenset of frozensets."""
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return frozenset(frozenset(g) for g in groups.values())
