"""Two large instance documents whose CLI outputs are pinned by digest.

Each has the pair groupoid and the subgroupoid of pair arrows within
blocks of 4 consecutive points:
- `discrete16`: the discrete space on 16 points, so the space and its
  foliation both have 2^16 opens, the most that `spaces.MAX_OPENS`
  lets a space list;
- `chain20`: the 20-point chain, m(p_i) = {p_0, ..., p_i}.

Their `analyze` and `verify --format json` outputs run to megabytes,
so `test_golden.py` pins their sha256 digests instead of the bytes.

    python tests/large_documents.py DIR

writes both documents to DIR, as `<name>.json`.
"""

import json
import pathlib
import sys


def _document(points, basis) -> dict:
    arrows = [f"{x}:{y}" for i, x in enumerate(points)
              for y in points[i - i % 4:i - i % 4 + 4] if x != y]
    return {"space": {"points": points, "basis": basis},
            "groupoid": {"kind": "pair"},
            "subgroupoid": {"base": points, "arrows": arrows}}


def _points(n) -> list:
    return [f"p{i:02d}" for i in range(n)]


def discrete16() -> dict:
    points = _points(16)
    return _document(points, [[x] for x in points])


def chain20() -> dict:
    points = _points(20)
    return _document(points, [points[:i + 1] for i in range(20)])


DOCUMENTS = {"discrete16": discrete16, "chain20": chain20}


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
