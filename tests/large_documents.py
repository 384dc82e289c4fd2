"""Six large instance documents, three with CLI outputs pinned by digest.

Each has the pair groupoid and a subgroupoid that holds every pair
arrow within each of its components:
- `discrete16`: the discrete space on 16 points, so the space and its
  foliation both have 2^16 opens, the most that `spaces.MAX_OPENS`
  lets a space list; components are blocks of 4 consecutive points;
- `chain20`: the 20-point chain, m(p_i) = {p_0, ..., p_i}, with the
  same blocks;
- `rescue18`: three disjoint copies of the 5-point space with basis
  {a}, {b}, {a, b, c}, {a, b, d}, {a, b, x} and the component
  {a, b, c, d}, beside the 3-point space with basis {p}, {q},
  {p, q, r} and the component {p, q}: 6,655 opens. m(x) splits
  {a, b}, which {a, b, c, x} joins up through c, so every x needs the
  local-connectivity search past its minimal neighbourhood; no open
  joins p and q, so r has no neighbourhood;
- `chain128`: the 128-point chain with the same blocks. Its foliation
  has more than 2^16 opens, so `analyze` and `verify` exit 3 once the
  pair groupoid on 128 points is built and the foliation is listed;
- `chain256`: the 256-point chain with the same blocks, which stops
  where `chain128` does. The 256 nested m(p_i) hold about 5.6 million
  pair arrows between them, so a cache of the arrows inside each
  region would show in the peak memory of `verify`, which is pinned;
- `pair4096`: 4,096 points, an empty basis and a subgroupoid with no
  arrows. Its pair groupoid would have 2^24 arrows, past
  `groupoids.MAX_BUILTIN_ARROWS`, so `analyze` and `verify` exit 3
  before building any of them.

The first three have `analyze` and `verify --format json` outputs of
megabytes, so `test_golden.py` pins their sha256 digests instead of the
bytes; it pins the exits of `chain128`, `chain256` and `pair4096`, and
the peak memory of `verify` on `chain256`.

    python tests/large_documents.py DIR

writes every document to DIR, as `<name>.json`.
"""

import json
import pathlib
import sys


def _document(points, basis, components) -> dict:
    arrows = [f"{x}:{y}" for c in components for x in c for y in c if x != y]
    return {"space": {"points": points, "basis": basis},
            "groupoid": {"kind": "pair"},
            "subgroupoid": {"base": points, "arrows": arrows}}


def _points(n) -> list:
    return [f"p{i:02d}" for i in range(n)]


def _blocks(points) -> list:
    return [points[i:i + 4] for i in range(0, len(points), 4)]


def discrete16() -> dict:
    points = _points(16)
    return _document(points, [[x] for x in points], _blocks(points))


def _chain(n) -> dict:
    points = _points(n)
    return _document(points, [points[:i + 1] for i in range(n)],
                     _blocks(points))


def chain20() -> dict:
    return _chain(20)


def chain128() -> dict:
    return _chain(128)


def chain256() -> dict:
    return _chain(256)


def pair4096() -> dict:
    return _document(_points(4096), [], [])


def rescue18() -> dict:
    points, components = ["p", "q", "r"], [["p", "q"]]
    basis = [["p"], ["q"], ["p", "q", "r"]]
    for i in range(1, 4):
        a, b, c, d, x = (f"{name}{i}" for name in "abcdx")
        points += [a, b, c, d, x]
        basis += [[a], [b], [a, b, c], [a, b, d], [a, b, x]]
        components.append([a, b, c, d])
    return _document(points, basis, components)


DOCUMENTS = {"discrete16": discrete16, "chain20": chain20,
             "rescue18": rescue18, "chain128": chain128,
             "chain256": chain256, "pair4096": pair4096}


def write_documents(directory) -> dict:
    """Write every document to `directory`; return name -> path."""
    paths = {}
    for name, build in DOCUMENTS.items():
        path = pathlib.Path(directory) / f"{name}.json"
        path.write_text(json.dumps(build()), encoding="utf-8")
        paths[name] = str(path)
    return paths


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for path in write_documents(out).values():
        print(path)
