"""JSON reading and writing for problem instances.

A document carries a finite space, an ambient groupoid, and optionally
an atlas and a wide subgroupoid over the whole space. Structural
problems with the document (wrong shapes, missing keys) raise
ParseError; semantic problems surface as the validation errors of the
core modules. Serialisation always emits the explicit groupoid form and
the minimal neighbourhoods as the basis, and parse(serialize(parse(doc)))
equals parse(doc) value for value.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .groupoids import (FiniteGroup, Groupoid, finite_group, group_bundle,
                        pair_groupoid, rel_times_group, validate_groupoid,
                        wide_subgroupoid)
from .sections import Atlas
from .spaces import (FiniteSpace, _Frozen, _minimal_cover, _set, label_key,
                     sorted_labels, space_from_basis)

GROUPOID_KINDS = ("pair", "bundle", "rel_times_group", "explicit")


class ParsedInstance(_Frozen):
    _fields = ("space", "groupoid", "atlas", "subgroupoid")

    def __init__(self, space, groupoid, atlas, subgroupoid):
        _set(self, "space", space)
        _set(self, "groupoid", groupoid)
        _set(self, "atlas", atlas)
        _set(self, "subgroupoid", subgroupoid)


def _expect(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be an object")
    if key not in doc:
        raise ParseError(f"{where} is missing the key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseError(
            f"{where}.{key} must be of type {kind.__name__}")
    return value


def _string_list(value, where, noun=None) -> list:
    """A list of strings; given a `noun` for its entries, the first
    entry that repeats an earlier one is rejected."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where} must be a list of strings")
    if noun is not None:
        seen = set()
        for x in value:
            if x in seen:
                raise ParseError(f"{where} repeats the {noun} {x!r}")
            seen.add(x)
    return value


def _triple_table(rows, where, roles) -> dict:
    """A table of string triples [a, b, c] as {(a, b): c}, each pair once."""
    table = {}
    for i, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != 3
                or not all(isinstance(v, str) for v in row)):
            raise ParseError(f"{where}[{i}] must be a [{roles}] triple")
        key = (row[0], row[1])
        if key in table:
            raise ParseError(f"{where} repeats the pair {key!r}")
        table[key] = row[2]
    return table


def _parse_space(doc) -> FiniteSpace:
    points = _string_list(_expect(doc, "points", list, "space"),
                          "space.points", "label")
    basis_raw = _expect(doc, "basis", list, "space")
    basis = [frozenset(_string_list(b, f"space.basis[{i}]"))
             for i, b in enumerate(basis_raw)]
    return space_from_basis(frozenset(points), basis)


def _parse_group(doc, where) -> FiniteGroup:
    elements = _string_list(_expect(doc, "elements", list, where),
                            f"{where}.elements", "element")
    unit = _expect(doc, "unit", str, where)
    mul = _triple_table(_expect(doc, "mul", list, where), f"{where}.mul",
                        "left, right, product")
    return finite_group(frozenset(elements), unit, mul)


def _parse_explicit_groupoid(doc, points) -> Groupoid:
    # the ambient groupoid always lives on the space's points
    arrows_raw = _expect(doc, "arrows", list, "groupoid")
    source, target = {}, {}
    for i, row in enumerate(arrows_raw):
        where = f"groupoid.arrows[{i}]"
        aid = _expect(row, "id", str, where)
        if aid in source:
            raise ParseError(f"groupoid.arrows repeats the id {aid!r}")
        source[aid] = _expect(row, "src", str, where)
        target[aid] = _expect(row, "tgt", str, where)
    identity_raw = _expect(doc, "identity_of", dict, "groupoid")
    inverse_raw = _expect(doc, "inverse_of", dict, "groupoid")
    for name, mapping in (("identity_of", identity_raw),
                          ("inverse_of", inverse_raw)):
        for k, v in mapping.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ParseError(f"groupoid.{name} must map strings to strings")
    table = _triple_table(_expect(doc, "compose", list, "groupoid"),
                          "groupoid.compose", "first, second, composite")
    candidate = Groupoid(frozenset(points), source, target,
                         dict(identity_raw), dict(inverse_raw), table)
    return validate_groupoid(candidate)


def _parse_groupoid(doc, space: FiniteSpace) -> Groupoid:
    kind = _expect(doc, "kind", str, "groupoid")
    if kind not in GROUPOID_KINDS:
        raise ParseError(
            f"groupoid.kind must be one of {', '.join(GROUPOID_KINDS)}")
    if kind == "pair":
        return pair_groupoid(space.points)
    if kind == "bundle":
        fibers_raw = _expect(doc, "fibers", dict, "groupoid")
        fibers = {point: _parse_group(body, f"groupoid.fibers[{point!r}]")
                  for point, body in fibers_raw.items()}
        return group_bundle(space.points, fibers)
    if kind == "rel_times_group":
        pairs_raw = _expect(doc, "relation", list, "groupoid")
        arrows = set()
        for i, row in enumerate(pairs_raw):
            if (not isinstance(row, list) or len(row) != 2
                    or not all(isinstance(v, str) for v in row)):
                raise ParseError(
                    f"groupoid.relation[{i}] must be an [x, y] pair")
            arrows.add(f"{row[0]}:{row[1]}")
        relation = wide_subgroupoid(pair_groupoid(space.points),
                                    space.points, arrows)
        group = _parse_group(_expect(doc, "group", dict, "groupoid"),
                             "groupoid.group")
        return rel_times_group(relation, group)
    return _parse_explicit_groupoid(doc, space.points)


def parse_instance(doc) -> ParsedInstance:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    space = _parse_space(_expect(doc, "space", dict, "instance"))
    groupoid = _parse_groupoid(_expect(doc, "groupoid", dict, "instance"),
                               space)
    atlas = None
    if doc.get("atlas") is not None:
        charts_raw = doc["atlas"]
        if not isinstance(charts_raw, list):
            raise ParseError("atlas must be a list of charts")
        charts = []
        for i, chart in enumerate(charts_raw):
            where = f"atlas.charts[{i}]"
            open_set = frozenset(_string_list(
                _expect(chart, "open", list, where), f"{where}.open"))
            arrows = _string_list(_expect(chart, "arrows", list, where),
                                  f"{where}.arrows")
            # identity arrows are implied by wideness; listing them is fine
            charts.append((open_set,
                           wide_subgroupoid(groupoid, open_set, arrows)))
        atlas = Atlas(space, tuple(charts))
    subgroupoid = None
    if doc.get("subgroupoid") is not None:
        sub_doc = doc["subgroupoid"]
        base = frozenset(_string_list(
            _expect(sub_doc, "base", list, "subgroupoid"), "subgroupoid.base"))
        arrows = _string_list(_expect(sub_doc, "arrows", list, "subgroupoid"),
                              "subgroupoid.arrows")
        subgroupoid = wide_subgroupoid(groupoid, base, arrows)
    return ParsedInstance(space, groupoid, atlas, subgroupoid)


def load_instance(path) -> ParsedInstance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the digit limit
        raise ParseError(f"{path} cannot be parsed: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply to parse") from exc
    return parse_instance(doc)


def _serialize_space(space: FiniteSpace) -> dict:
    return {"points": sorted_labels(space.points),
            "basis": [sorted_labels(o) for o in _minimal_cover(space)]}


def _serialize_groupoid(g: Groupoid) -> dict:
    arrows = [{"id": a, "src": g.source[a], "tgt": g.target[a]}
              for a in sorted(g.source, key=label_key)]
    compose = [[a, b, c] for (a, b), c in sorted(
        g.composites().items(),
        key=lambda kv: (label_key(kv[0][0]), label_key(kv[0][1])))]
    return {"kind": "explicit",
            "arrows": arrows,
            "identity_of": {x: g.identity[x]
                            for x in sorted_labels(g.objects)},
            "inverse_of": {a: g.inverse[a]
                           for a in sorted(g.source, key=label_key)},
            "compose": compose}


def serialize_instance(parsed: ParsedInstance) -> dict:
    doc = {"space": _serialize_space(parsed.space),
           "groupoid": _serialize_groupoid(parsed.groupoid)}
    if parsed.atlas is not None:
        doc["atlas"] = [
            {"open": sorted_labels(open_set),
             "arrows": sorted_labels(sub.arrows)}
            for open_set, sub in parsed.atlas.charts]
    if parsed.subgroupoid is not None:
        doc["subgroupoid"] = {
            "base": sorted_labels(parsed.subgroupoid.base),
            "arrows": sorted_labels(parsed.subgroupoid.arrows)}
    return doc
