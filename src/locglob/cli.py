"""Command line interface.

Subcommands:
  analyze       report germs, globalisation, coherence and foliation data
  verify        run every structural checker on an instance or a suite
  oracle-check  compare fast computations against brute-force oracles

A completed run exits 0, checker counterexamples included: they are
reported outcomes, not failures. Every error is a `LocglobError`, whose
class in `errors.py` carries the stderr category and the exit code.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _quote

from .coherence import (_set_list, coherence_report, foliation_space,
                        is_totally_coherent, subgroupoid_coherence,
                        verify_component_clopenness,
                        verify_connectivity_globalization,
                        verify_foliation_components,
                        verify_local_connectivity_coherence,
                        verify_restriction_coherence)
from .errors import LocglobError, UsageError, ValidationError
from .groupoids import transitivity_components
from .instance_io import ParsedInstance, load_instance
from .oracle import (DEFAULT_ARROW_BOUND, cross_check_connectivity,
                     cross_check_enumeration, cross_check_glob, instance_suite)
from .sections import Atlas, glob, loc, section_from_atlas
from .spaces import (_minimal_cover, connected_components, count_opens,
                     label_key, open_label_lists, sorted_labels)


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2 on argv mistakes by default; 2 is
    # reserved for invalid instances here, so report them as usage errors
    def error(self, message):
        raise UsageError(message)


def _at_least(what: str, low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(
            f"expected {what} >= {low}, got {text!r}")
    return value


def _suite_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected \"points,arrows\", got {text!r}")
    return _at_least("points", 1, parts[0]), _at_least("arrows", 0, parts[1])


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="locglob",
                     description="local subgroupoids of finite groupoids "
                                 "over finite spaces")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, with_suite):
        sub = commands.add_parser(name, help=summary)
        source = (sub.add_mutually_exclusive_group(required=True)
                  if with_suite else sub)
        source.add_argument("--input", metavar="PATH",
                            required=not with_suite,
                            help="instance file (JSON)")
        if with_suite:
            source.add_argument("--suite", metavar="POINTS,ARROWS",
                                type=_suite_arg,
                                help="generated suite instead of a file")
        sub.add_argument("--format", choices=("json", "text"),
                         default="text", help="report format")
        return sub

    command("analyze", "summarise one instance", with_suite=False)
    command("verify", "run the structural checkers", with_suite=True)
    oracle = command("oracle-check", "brute-force cross checks",
                     with_suite=True)
    oracle.add_argument("--max-arrows", default=DEFAULT_ARROW_BOUND,
                        metavar="N",
                        type=functools.partial(_at_least, "N", 0),
                        help="non-identity arrow cap for enumeration oracles")
    return parser


def _section_source(parsed: ParsedInstance):
    """The section an instance describes, with an atlas defining it."""
    if parsed.atlas is not None:
        return section_from_atlas(parsed.atlas), parsed.atlas
    if parsed.subgroupoid is not None:
        wide = parsed.subgroupoid
        if wide.base != parsed.space.points:
            raise ValidationError(
                "subgroupoid must be based on the whole space")
        atlas = Atlas(parsed.space, ((parsed.space.points, wide),))
        return section_from_atlas(atlas), atlas
    raise UsageError("instance has neither an atlas nor a subgroupoid")


def cmd_analyze(parsed: ParsedInstance) -> dict:
    section, atlas = _section_source(parsed)
    space, g = parsed.space, parsed.groupoid
    globalised = glob(section)
    report = coherence_report(section, globalised=globalised)
    total = is_totally_coherent(section)[0]
    foliated = foliation_space(section, atlas)
    doc = {
        "space": {
            "points": sorted_labels(space.points),
            "open_sets": count_opens(space),
        },
        "groupoid": {
            "objects": len(g.objects),
            "arrows": len(g.arrow_ids),
            "non_identity_arrows": g.non_identity_count(),
        },
        "germs": {
            label_key(x): {
                "neighbourhood": sorted_labels(section.germs[x].rep.base),
                "arrows": sorted_labels(section.germs[x].rep.arrows),
            }
            for x in sorted_labels(space.points)
        },
        "globalisation": {
            "arrows": sorted_labels(globalised.arrows),
            "transitivity_components":
                _set_list(transitivity_components(globalised)),
        },
        "coherence": {
            "coherent": report.coherent,
            "globally_coherent": report.globally_coherent,
            "witness_points": [label_key(w[0]) for w in report.witnesses],
        },
        "totally_coherent": total,
        "first_failing_open": None,  # none, by the total-coherence lemma
        "foliation": {
            "opens": open_label_lists(foliated),
            "components":
                _set_list(connected_components(foliated, foliated.points)),
        },
    }
    if parsed.subgroupoid is not None:
        locally, coherent = subgroupoid_coherence(space, parsed.subgroupoid)
        doc["subgroupoid_coherence"] = {
            "locally_coherent": locally,
            "coherent": coherent,
        }
    return doc


def _theorem_reports(space, section, atlas, wide, globalised=None) -> list:
    """The seven checker reports; `globalised`, if given, is
    glob(section), which the restriction checker then reuses."""
    cover = _minimal_cover(space)
    reports = [
        verify_component_clopenness(loc(space, wide), wide, cover),
        verify_local_connectivity_coherence(space, wide),
    ]
    reports.extend(verify_connectivity_globalization(space, wide))
    reports.append(verify_foliation_components(section, atlas))
    reports.extend(verify_restriction_coherence(section, cover,
                                                globalised=globalised))
    return reports


def cmd_verify_instance(parsed: ParsedInstance) -> dict:
    section, atlas = _section_source(parsed)
    wide, globalised = parsed.subgroupoid, None
    if wide is None:
        wide = globalised = glob(section)
    reports = _theorem_reports(parsed.space, section, atlas, wide,
                               globalised)
    summary = {"pass": 0, "vacuous": 0, "counterexample": 0}
    for report in reports:
        summary[report.status] += 1
    return {"mode": "instance",
            "reports": [r.as_dict() for r in reports],
            "summary": summary}


def cmd_verify_suite(max_points: int, max_extra_arrows: int) -> dict:
    suite = instance_suite(max_points, max_extra_arrows)
    theorems = {}
    sections = 0
    for inst, section, atlas in suite.iter_sections():
        wide = cross_check_glob(section, atlas)
        sections += 1
        for report in _theorem_reports(inst.space, section, atlas, wide,
                                       wide):
            tally = theorems.setdefault(
                report.theorem, {"pass": 0, "vacuous": 0, "counterexample": 0})
            tally[report.status] += 1
    return {"mode": "suite",
            "suite": {"max_points": max_points,
                      "max_extra_arrows": max_extra_arrows},
            "instances": len(suite.instances),
            "sections": sections,
            "glob_cross_checked": sections,
            "theorems": theorems}


def cmd_oracle_check_instance(parsed: ParsedInstance,
                              max_arrows: int) -> dict:
    doc = {"mode": "instance"}
    doc["connectivity"] = {
        "subsets_checked": cross_check_connectivity(parsed.space)}
    doc["enumeration"] = cross_check_enumeration(
        parsed.groupoid, parsed.space.points, max_arrows)
    if parsed.atlas is not None or parsed.subgroupoid is not None:
        section, atlas = _section_source(parsed)
        confirmed = cross_check_glob(section, atlas, max_arrows)
        doc["glob"] = {"checked": True,
                       "arrows": sorted_labels(confirmed.arrows)}
    else:
        doc["glob"] = {"checked": False,
                       "reason": "no atlas or subgroupoid in the instance"}
    return doc


def cmd_oracle_check_suite(max_points: int, max_extra_arrows: int,
                           max_arrows: int) -> dict:
    suite = instance_suite(max_points, max_extra_arrows)
    glob_checked = 0
    subsets = 0
    enumerations = {"checked": 0, "skipped": 0}
    for inst in suite.instances:
        subsets += cross_check_connectivity(inst.space)
        outcome = cross_check_enumeration(inst.groupoid, inst.space.points,
                                          max_arrows)
        enumerations["checked" if outcome["checked"] else "skipped"] += 1
    for _, section, atlas in suite.iter_sections():
        cross_check_glob(section, atlas, max_arrows)
        glob_checked += 1
    return {"mode": "suite",
            "suite": {"max_points": max_points,
                      "max_extra_arrows": max_extra_arrows},
            "instances": len(suite.instances),
            "glob_cross_checked": glob_checked,
            "connectivity_subsets_checked": subsets,
            "enumeration": enumerations}


def _inline(value) -> str | None:
    """Single-line rendering for scalars and lists of scalars."""
    if isinstance(value, dict):
        return "{}" if not value else None
    if isinstance(value, list):
        parts = [_inline(item) for item in value]
        if all(p is not None for p in parts):
            return "[" + ", ".join(parts) + "]"
        return None
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    return str(value)


def _text_lines(value, indent: int) -> list:
    pad = "  " * indent
    if not isinstance(value, (dict, list)):
        return [f"{pad}{_inline(value)}"]
    entries = ([(f"{key}:", item) for key, item in value.items()]
               if isinstance(value, dict) else [("-", item) for item in value])
    lines = []
    for head, item in entries:
        flat = _inline(item)
        if flat is not None and len(flat) <= 72:
            lines.append(f"{pad}{head} {flat}")
        else:
            lines.append(f"{pad}{head}")
            lines.extend(_text_lines(item, indent + 1))
    return lines


def _json(value, pad: str) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, for
    dicts with str keys, lists, str, int, bool and None; any other type
    raises TypeError. With `indent` set, `json.dumps` falls back to its
    pure-Python encoder; here the C string encoder does the escaping."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if kind is list:
        if not value:
            return "[]"
        try:
            body = (",\n" + inner).join(map(_quote, value))
        except TypeError:  # not a list of strings
            body = (",\n" + inner).join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is dict:
        if not value:
            return "{}"
        body = (",\n" + inner).join([_quote(k) + ": " + _json(value[k], inner)
                                     for k in sorted(value)])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"cannot render {kind.__name__} as JSON")


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(doc, "")
    return "\n".join(_text_lines(doc, 0))


def _dispatch(args) -> dict:
    if args.command == "analyze":
        return cmd_analyze(load_instance(args.input))
    if args.command == "verify":
        if args.suite is not None:
            return cmd_verify_suite(*args.suite)
        return cmd_verify_instance(load_instance(args.input))
    if args.suite is not None:
        return cmd_oracle_check_suite(*args.suite, args.max_arrows)
    return cmd_oracle_check_instance(load_instance(args.input),
                                     args.max_arrows)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        doc = _dispatch(args)
    except SystemExit as exc:  # --help; argv mistakes raise UsageError
        return exc.code
    except LocglobError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    print(_render(doc, args.format))
    return 0
