import ast
import contextlib
import copy
import functools
import importlib
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locglob as lg
from locglob import cli
from locglob.cli import main
from locglob.instance_io import (load_instance, parse_instance,
                                 serialize_instance)

from conftest import FIXTURE_DIR, fixture_path, full_wide

VALID_FIXTURES = [
    "nc_pair_atlas.json",
    "sier_bundle.json",
    "disc2_pair_full.json",
    "ind2_pair_full.json",
    "identities_single_chart.json",
    "rel_k2.json",
]


def _instances_equal(a, b):
    assert a.space == b.space
    assert a.groupoid == b.groupoid
    assert (a.atlas is None) == (b.atlas is None)
    if a.atlas is not None:
        assert a.atlas.charts == b.atlas.charts
    assert a.subgroupoid == b.subgroupoid


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_round_trip_identity(name):
    first = load_instance(fixture_path(name))
    doc = serialize_instance(first)
    second = parse_instance(json.loads(json.dumps(doc)))
    _instances_equal(first, second)
    # serialising the reparsed value reproduces the document exactly
    assert serialize_instance(second) == doc


def test_round_trip_of_a_space_with_too_many_opens_to_list():
    # 17 discrete points have 2^17 opens; the basis written is the 17
    # minimal neighbourhoods
    points = [f"p{i:02d}" for i in range(17)]
    space = lg.space_from_basis(points, [{p} for p in points])
    first = lg.ParsedInstance(space, lg.group_bundle(
        points, dict.fromkeys(points, lg.cyclic_group(1))), None, None)
    doc = serialize_instance(first)
    assert doc["space"]["basis"] == [[p] for p in points]
    second = parse_instance(json.loads(json.dumps(doc)))
    _instances_equal(first, second)
    assert serialize_instance(second) == doc


def test_round_trip_rejects_inverses_of_unknown_arrows():
    # a written document lists the inverse of each arrow and no other,
    # so a stray inverse_of key could not survive the round trip
    doc = serialize_instance(load_instance(fixture_path("rel_k2.json")))
    doc["groupoid"]["inverse_of"]["zz"] = doc["groupoid"]["arrows"][0]["id"]
    with pytest.raises(lg.ValidationError, match=(
            r"^inverse assigned to unknown arrows: \['zz'\]$")):
        parse_instance(doc)


def test_analyze_json_output(capsys):
    code = main(["analyze", "--input", fixture_path("nc_pair_atlas.json"),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coherence"]["coherent"] is True
    assert doc["coherence"]["globally_coherent"] is False
    assert doc["coherence"]["witness_points"] == ["x"]
    assert doc["globalisation"]["transitivity_components"] == [
        ["x"], ["y"], ["z"], ["p", "q", "r"]]


def test_analyze_closes_the_germs_once(monkeypatch, capsys):
    # `coherence_report` is given the globalisation `analyze` holds
    calls = []
    for module in (cli, lg.coherence):  # where `glob` is looked up
        original = module.glob

        def counted(section, original=original):
            calls.append(section)
            return original(section)
        monkeypatch.setattr(module, "glob", counted)
    assert main(["analyze", "--input", fixture_path("nc_pair_atlas.json"),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_analyze_text_output(capsys):
    code = main(["analyze", "--input", fixture_path("sier_bundle.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "globally_coherent: true" in out
    assert "locally_coherent: true" in out


def test_analyze_requires_section_source(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({
        "space": {"points": ["1"], "basis": []},
        "groupoid": {"kind": "pair"}}))
    assert main(["analyze", "--input", str(path)]) == 1
    assert "error[usage]" in capsys.readouterr().err


def test_verify_instance_reports_counterexample(capsys):
    code = main(["verify", "--input", fixture_path("nc_pair_atlas.json"),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["counterexample"] == 1
    by_name = {r["theorem"]: r for r in doc["reports"]}
    assert by_name["foliation-components"]["status"] == "counterexample"
    assert by_name["component-clopenness"]["status"] == "pass"


def test_verify_trivial_instance_all_pass_or_vacuous(capsys):
    code = main(["verify", "--input",
                 fixture_path("identities_single_chart.json"),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["counterexample"] == 0


def test_verify_suite_small(capsys):
    code = main(["verify", "--suite", "2,4", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instances"] == 10
    assert doc["glob_cross_checked"] == doc["sections"]
    assert set(doc["theorems"]) == {
        "component-clopenness", "local-connectivity-coherence",
        "connectivity-globalization-forward",
        "connectivity-globalization-converse", "foliation-components",
        "restriction-global-coherence", "restriction-total-coherence"}


# the documents `--format json` prints, built without rendering
RENDERED_DOCS = {
    **{f"{command} {name}": functools.partial(
        build, load_instance(fixture_path(name)))
       for name in VALID_FIXTURES
       for command, build in (("analyze", cli.cmd_analyze),
                              ("verify", cli.cmd_verify_instance))},
    "verify --suite 3,6": functools.partial(cli.cmd_verify_suite, 3, 6),
    "oracle-check --suite 3,6": functools.partial(
        cli.cmd_oracle_check_suite, 3, 6, 16),
}


@pytest.mark.parametrize("name", sorted(RENDERED_DOCS))
def test_json_renderer_matches_json_dumps_on_cli_documents(name):
    doc = RENDERED_DOCS[name]()
    assert cli._render(doc, "json") == json.dumps(doc, indent=2,
                                                  sort_keys=True)


# text that needs escaping: quotes, backslashes, control characters,
# non-ASCII and astral characters, and lone surrogates
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t'
                                          "\u00e9\u2028\U0001f600\ud800"),
                          st.characters(exclude_categories=())),
                max_size=10)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner) | st.dictionaries(_TEXT, inner),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES)
def test_json_renderer_matches_json_dumps(value):
    assert cli._render(value, "json") == json.dumps(value, indent=2,
                                                    sort_keys=True)


@pytest.mark.parametrize("doc", [
    {"a": 1.5}, {"a": (1, 2)}, {1: "a"}, {True: "a"}, {"a": ["b", 0.0]},
    {"a": [{"b": ("c",)}]}], ids=repr)
def test_json_renderer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._render(doc, "json")


def test_oracle_check_instance(capsys):
    code = main(["oracle-check", "--input",
                 fixture_path("disc2_pair_full.json"), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["connectivity"]["subsets_checked"] == 4
    assert doc["enumeration"] == {"checked": True, "count": 2}
    assert doc["glob"]["checked"] is True


def test_oracle_check_respects_arrow_cap(capsys):
    code = main(["oracle-check", "--input",
                 fixture_path("nc_pair_atlas.json")])
    assert code == 3
    assert "error[resource-limit]" in capsys.readouterr().err
    code = main(["oracle-check", "--input",
                 fixture_path("nc_pair_atlas.json"), "--max-arrows", "32",
                 "--format", "json"])
    assert code == 0


def test_exit_code_associativity_names_triple(capsys):
    code = main(["analyze", "--input", fixture_path("invalid_assoc.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[associativity]" in err
    # recompute the expected first violating triple from the document
    with open(fixture_path("invalid_assoc.json")) as fh:
        doc = json.load(fh)
    table = {(a, b): c for a, b, c in doc["groupoid"]["compose"]}
    arrows = sorted(row["id"] for row in doc["groupoid"]["arrows"])
    expected = next(
        (a, b, c)
        for a in arrows for b in arrows for c in arrows
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])])
    assert expected == ("v#a", "v#a", "v#b")
    assert str(expected) in err


def test_exit_code_parse_errors(capsys, tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "absent.json")]) == 1
    assert "error[parse]" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["analyze", "--input", str(broken)]) == 1
    assert "error[parse]" in capsys.readouterr().err
    shaped = tmp_path / "shaped.json"
    shaped.write_text(json.dumps({"space": {"points": ["1"]}}))
    assert main(["analyze", "--input", str(shaped)]) == 1
    assert "error[parse]" in capsys.readouterr().err


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{}", "is not UTF-8 text"),
    (b"[" * 100_000 + b"]" * 100_000, "nests too deeply to parse"),
    # `json` stops this at the interpreter's integer digit limit; an
    # interpreter without the limit reaches the shape checks instead
    (b'{"space": ' + b"1" * 5000 + b"}", None),
], ids=["not-utf8", "deeply-nested", "long-integer"])
@pytest.mark.parametrize("command", ["analyze", "verify", "oracle-check"])
def test_undecodable_documents_are_parse_errors(capsys, tmp_path, command,
                                                content, reason):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main([command, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    expected = "error[parse]: " if reason is None else (
        f"error[parse]: {path} {reason}")
    assert captured.err.startswith(expected)


def test_usage_errors(capsys):
    # argparse checks every argv mistake; each is one error[usage] line
    mistakes = [
        ["analyze"],
        ["verify"],
        ["verify", "--input", "x.json", "--suite", "3,6"],
        ["oracle-check"],
        ["oracle-check", "--input", "x.json", "--suite", "3,6"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "1,2,3"],
        ["no-such-command"],
        ["verify", "--suite", "3,6", "--max-arrows", "8"],
        ["verify", "--suite", "3,-1"],
        ["verify", "--suite", "0,5"],
        ["oracle-check", "--suite", "2,4", "--max-arrows", "-1"],
    ]
    for argv in mistakes:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1, argv
        assert lines[0].startswith("error[usage]: "), argv
    # in range for argparse, but past the suite generator's 4-point cap
    assert main(["verify", "--suite", "5,4"]) == 3
    assert capsys.readouterr().err.startswith("error[resource-limit]: ")
    assert main(["--help"]) == 0
    capsys.readouterr()


def _readme_exit_codes() -> dict:
    """Category -> exit code, from the README's exit code table."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Exit codes")[1]
    codes = {}
    for row in section.split("\n## ")[0].splitlines():
        cells = row.split("|")
        if len(cells) > 3 and cells[1].strip().isdigit():
            for category in re.findall(r"`([a-z-]+)`", cells[2]):
                codes[category] = int(cells[1])
    return codes


def test_readme_bounds_match_the_constants():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Bounds")[1]
    documented = {}
    for row in section.split("\n## ")[0].splitlines():
        cells = row.split("|")
        if len(cells) > 5:
            for name in re.findall(
                    r"`((?:spaces|oracle|groupoids)\.[A-Z_]+)`",
                                   cells[4]):
                bound = re.match(r"[\d,]+", cells[3].strip())
                documented[name] = int(bound.group().replace(",", ""))
    assert len(documented) == 9
    for name, bound in documented.items():
        module, constant = name.split(".")
        assert getattr(getattr(lg, module), constant) == bound, name
    # `--max-arrows` defaults to the constant its row names
    args = cli._build_parser().parse_args(["oracle-check", "--suite", "3,6"])
    assert args.max_arrows == documented["oracle.DEFAULT_ARROW_BOUND"]


ERROR_CLASSES = [
    (lg.LocglobError, "invariant", 4),
    (lg.UsageError, "usage", 1),
    (lg.ParseError, "parse", 1),
    (lg.ValidationError, "validation", 2),
    (lg.AssociativityError, "associativity", 2),
    (lg.MissingIdentityError, "missing-identity", 2),
    (lg.InverseLawError, "inverse-law", 2),
    (lg.EndpointMismatchError, "endpoint-mismatch", 2),
    (lg.AtlasCoverError, "atlas-cover", 2),
    (lg.AtlasConsistencyError, "atlas-consistency", 2),
    (lg.ResourceLimitError, "resource-limit", 3),
    (lg.InvariantViolationError, "invariant", 4),
]


@pytest.mark.parametrize("cls, category, exit_code", ERROR_CLASSES,
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_error_class_carries_its_readme_category(cls, category, exit_code):
    assert (cls.category, cls.exit_code) == (category, exit_code)
    assert _readme_exit_codes()[category] == exit_code


def test_every_error_class_is_pinned():
    classes = {cls for cls in vars(lg.errors).values()
               if isinstance(cls, type) and issubclass(cls, lg.LocglobError)}
    assert classes == {cls for cls, _, _ in ERROR_CLASSES}
    assert set(_readme_exit_codes()) == {c for _, c, _ in ERROR_CLASSES}


# adding or removing a public name shows up as a diff of this list
PUBLIC_NAMES = [
    "AssociativityError", "Atlas", "AtlasConsistencyError", "AtlasCoverError",
    "CoherenceReport", "EndpointMismatchError", "FiniteGroup", "FiniteSpace",
    "Germ", "Groupoid", "Instance", "InstanceSuite", "InvariantViolationError",
    "InverseLawError", "LocalSubgroupoid", "LocglobError",
    "MissingIdentityError", "ParseError", "ParsedInstance",
    "ResourceLimitError", "TheoremReport", "UsageError", "ValidationError",
    "WideSubgroupoid", "all_topologies", "canonical_atlas", "coherence",
    "coherence_report", "connected_by_partition", "connected_components",
    "count_opens", "cross_check_connectivity", "cross_check_enumeration",
    "cross_check_glob", "cyclic_group", "enumerate_opens",
    "enumerate_wide_subgroupoids", "errors", "finite_group", "foliation_space",
    "full_restriction", "generate_topology", "generate_wide", "germ_at",
    "germ_leq", "glob", "glob_by_refinements", "glob_by_subgroupoid_defn",
    "group_bundle", "groupoids", "instance_io", "instance_suite",
    "intersect_wide", "is_totally_coherent", "load_instance", "loc",
    "open_label_lists", "oracle", "pair_groupoid", "parse_instance", "refines",
    "rel_times_group", "relative_openness", "restrict_section",
    "restrict_wide", "section_from_atlas", "sections", "serialize_instance",
    "space_from_basis", "spaces", "subgroupoid_coherence", "subspace",
    "totally_coherent_by_scan", "transitivity_components", "validate_groupoid",
    "verify_component_clopenness", "verify_connectivity_globalization",
    "verify_foliation_components", "verify_local_connectivity_coherence",
    "verify_restriction_coherence", "wide_subgroupoid",
]


def test_public_names_are_pinned():
    assert sorted(lg.__all__) == PUBLIC_NAMES


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_step_calls_resolve(monkeypatch):
    # the benchmark harness wraps every STEP_CALLS name with getattr on
    # each run, and passes its max_opens positionally to two checkers
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for module, names in workloads.STEP_CALLS.items():
        found = importlib.import_module(f"locglob.{module}")
        for name in names:
            assert callable(getattr(found, name, None)), (module, name)
    co, section = lg.coherence, object()
    inspect.signature(co.is_totally_coherent).bind(section,
                                                    workloads.MAX_OPENS)
    inspect.signature(co.verify_restriction_coherence).bind(
        section, [], workloads.MAX_OPENS)


def _benchmark_library_names() -> set:
    """(module, name) for every `lg.<module>.<name>` in the benchmark's
    workloads, also through an alias such as `co = lg.coherence`."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {}

    def module_of(node):  # `lg.<module>`, `self.lg.<module>` or an alias
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        root = getattr(node, "value", None)
        if isinstance(node, ast.Attribute) and (
                isinstance(root, ast.Name) and root.id == "lg"
                or isinstance(root, ast.Attribute) and root.attr == "lg"):
            return node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value,
                                                                ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                for name, value in pairs:
                    if isinstance(name, ast.Name) and module_of(value):
                        aliases[name.id] = module_of(value)
    return {(module_of(node.value), node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and module_of(node.value)}


def test_benchmark_library_names_resolve_on_their_modules():
    # a name moved to another module, even one kept at the package
    # level, breaks the benchmark before it measures anything
    names = _benchmark_library_names()
    assert {("oracle", "instance_suite"), ("spaces", "sorted_sets"),
            ("groupoids", "generate_wide"), ("sections", "Atlas"),
            ("instance_io", "load_instance"), ("errors", "ParseError"),
            ("coherence", "foliation_space"), ("cli", "main")} <= names
    for module, name in sorted(names):
        found = importlib.import_module(f"locglob.{module}")
        assert hasattr(found, name), (module, name)


_Z2_MUL = [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"],
           ["1", "1", "0"]]


def _explicit_doc(arrows, compose, points=("p",), identity_of=None,
                  inverse_of=None):
    """An explicit groupoid document; by default each arrow is its own
    inverse and the identity of point p is the arrow 1p."""
    return {"space": {"points": list(points), "basis": []},
            "groupoid": {
                "kind": "explicit",
                "arrows": [{"id": a, "src": s, "tgt": t}
                           for a, s, t in arrows],
                "identity_of": identity_of or {p: f"1{p}" for p in points},
                "inverse_of": inverse_of or {a: a for a, _, _ in arrows},
                "compose": compose}}


# one input per input check whose stderr no golden pins: (document or
# None, argv, exit code, the one stderr line); a document is written to
# a file and passed with --input
REJECTIONS = {
    "suite-not-an-integer": (
        None, ["verify", "--suite", "a,6"], 1,
        "error[usage]: argument --suite: expected points >= 1, got 'a'"),
    "max-arrows-not-an-integer": (
        None, ["oracle-check", "--suite", "3,6", "--max-arrows", "x"], 1,
        "error[usage]: argument --max-arrows: expected N >= 0, got 'x'"),
    "subgroupoid-on-part-of-the-space": (
        {"space": {"points": ["a", "b"], "basis": []},
         "groupoid": {"kind": "pair"},
         "subgroupoid": {"base": ["a"], "arrows": []}}, ["analyze"], 2,
        "error[validation]: subgroupoid must be based on the whole space"),
    "repeated-mul-pair": (
        {"space": {"points": ["p"], "basis": []},
         "groupoid": {"kind": "bundle", "fibers": {"p": {
             "elements": ["0", "1"], "unit": "0",
             "mul": _Z2_MUL + [["1", "1", "0"]]}}}}, ["analyze"], 1,
        "error[parse]: groupoid.fibers['p'].mul repeats the pair "
        "('1', '1')"),
    "repeated-compose-pair": (
        _explicit_doc([("1p", "p", "p")],
                      [["1p", "1p", "1p"], ["1p", "1p", "1p"]]),
        ["analyze"], 1,
        "error[parse]: groupoid.compose repeats the pair ('1p', '1p')"),
    "repeated-arrow-id": (
        _explicit_doc([("1p", "p", "p"), ("1p", "p", "p")],
                      [["1p", "1p", "1p"]]), ["analyze"], 1,
        "error[parse]: groupoid.arrows repeats the id '1p'"),
    "identity-of-not-a-string": (
        _explicit_doc([("1p", "p", "p")], [["1p", "1p", "1p"]],
                      identity_of={"p": 1}), ["analyze"], 1,
        "error[parse]: groupoid.identity_of must map strings to strings"),
    "inverse-of-not-a-string": (
        _explicit_doc([("1p", "p", "p")], [["1p", "1p", "1p"]],
                      inverse_of={"1p": ["1p"]}), ["analyze"], 1,
        "error[parse]: groupoid.inverse_of must map strings to strings"),
    "inverse-of-an-unknown-arrow": (
        _explicit_doc([("1p", "p", "p")], [["1p", "1p", "1p"]],
                      inverse_of={"1p": "1p", "zz": "1p", "yy": "1p"}),
        ["analyze"], 2,
        "error[validation]: inverse assigned to unknown arrows: "
        "['yy', 'zz']"),
    "atlas-not-a-list": (
        {"space": {"points": ["a"], "basis": []},
         "groupoid": {"kind": "pair"},
         "atlas": {"open": ["a"], "arrows": []}}, ["analyze"], 1,
        "error[parse]: atlas must be a list of charts"),
    "compose-on-a-non-composable-pair": (
        _explicit_doc([("1p", "p", "p"), ("1q", "q", "q")],
                      [["1p", "1p", "1p"], ["1q", "1q", "1q"],
                       ["1p", "1q", "1q"]], points=("p", "q")),
        ["analyze"], 2,
        "error[endpoint-mismatch]: composition defined on non-composable "
        "pair ('1p', '1q')"),
    "identity-law": (
        _explicit_doc([("1p", "p", "p"), ("a", "p", "p")],
                      [["1p", "1p", "1p"], ["1p", "a", "1p"],
                       ["a", "1p", "a"], ["a", "a", "1p"]]),
        ["analyze"], 2, "error[validation]: identity law fails at arrow 'a'"),
    "atlas-charts-disagree": (
        {"space": {"points": ["1", "2", "3"],
                   "basis": [["1", "2"], ["2", "3"]]},
         "groupoid": {"kind": "bundle", "fibers": {
             p: {"elements": ["0", "1"], "unit": "0", "mul": _Z2_MUL}
             for p in ("1", "2", "3")}},
         "atlas": [{"open": ["1", "2"], "arrows": ["1#1"]},
                   {"open": ["2", "3"], "arrows": ["2#1"]}]}, ["analyze"], 2,
        "error[atlas-consistency]: charts 0 and 1 induce different germs "
        "at point '2'"),
    "atlas-misses-a-point": (
        {"space": {"points": ["1", "2"], "basis": [["1"], ["2"]]},
         "groupoid": {"kind": "pair"},
         "atlas": [{"open": ["1"], "arrows": []}]}, ["analyze"], 2,
        "error[atlas-cover]: charts do not cover the space; missing "
        "points: ['2']"),
    "group-element-without-inverse": (
        {"space": {"points": ["p"], "basis": []},
         "groupoid": {"kind": "bundle", "fibers": {"p": {
             "elements": ["e", "z"], "unit": "e",
             "mul": [["e", "e", "e"], ["e", "z", "z"], ["z", "e", "z"],
                     ["z", "z", "z"]]}}}}, ["analyze"], 2,
        "error[validation]: element 'z' has no inverse"),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_input_check_rejects_with_one_line(tmp_path, capsys, name):
    doc, argv, exit_code, line = REJECTIONS[name]
    if doc is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ["--input", str(path)]
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


# each oracle-check comparison, made to disagree by patching one oracle
DISAGREEMENTS = {
    "glob": ("glob_by_refinements",
             lambda section, atlas: full_wide(section.parent,
                                              section.space.points),
             "error[invariant]: globalisation mismatch: fast ['1:1', '2:2'], "
             "by definition ['1:1', '2:2'], by refinements "
             "['1:1', '1:2', '2:1', '2:2']"),
    "connectivity": ("connected_by_partition", lambda space, subset: False,
                     "error[invariant]: connectivity mismatch on subset []"),
    "enumeration": ("_enumerate_by_subset_filter", lambda g, base: [],
                    "error[invariant]: wide subgroupoid enumeration "
                    "disagrees with the subset filter"),
}


@pytest.mark.parametrize("name", sorted(DISAGREEMENTS))
def test_oracle_check_exits_4_on_a_disagreement(monkeypatch, capsys, name):
    attribute, patched, line = DISAGREEMENTS[name]
    monkeypatch.setattr(lg.oracle, attribute, patched)
    assert main(["oracle-check", "--input",
                 fixture_path("disc2_pair_full.json")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_cli_neither_compares_distinct_groupoids_nor_fills_a_table(
        monkeypatch, capsys):
    # comparing two distinct built-in groupoids completes both tables,
    # so no command may make such a comparison or complete one otherwise
    distinct, fills = [], []
    eq, fill = lg.Groupoid.__eq__, lg.groupoids._Composites.fill

    def counted_eq(self, other):
        if self is not other:
            distinct.append((self, other))
        return eq(self, other)

    def counted_fill(self):
        fills.append(self)
        return fill(self)
    monkeypatch.setattr(lg.Groupoid, "__eq__", counted_eq)
    monkeypatch.setattr(lg.groupoids._Composites, "fill", counted_fill)
    runs = [[command, "--input", str(path), "--format", "json"]
            for path in sorted(FIXTURE_DIR.glob("*.json"))
            for command in ("analyze", "verify", "oracle-check")]
    runs += [[command, "--suite", "3,6", "--format", "json"]
             for command in ("verify", "oracle-check")]
    for argv in runs:
        main(argv)
        capsys.readouterr()
    assert (len(distinct), len(fills)) == (0, 0)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "locglob", "analyze", "--input",
         fixture_path("rel_k2.json"), "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["coherence"]["globally_coherent"] is True


def test_import_loads_neither_dataclasses_nor_inspect():
    # the value classes are plain classes: importing the package and the
    # CLI pulls in no `dataclasses`, and so no `inspect`, at start-up
    src = pathlib.Path(lg.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import locglob, locglob.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code,
                           str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _discrete40(tmp_path):
    # a 40-point discrete space has 2^40 opens, far past spaces.MAX_OPENS
    points = [f"p{i:02d}" for i in range(40)]
    trivial = {"elements": ["e"], "unit": "e", "mul": [["e", "e", "e"]]}
    doc = {"space": {"points": points, "basis": [[x] for x in points]},
           "groupoid": {"kind": "bundle",
                        "fibers": {x: trivial for x in points}},
           "subgroupoid": {"base": points, "arrows": []}}
    path = tmp_path / "discrete40.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_analyze_exits_3_when_the_open_family_is_too_large(tmp_path, capsys):
    # analyze must trip the enumeration bound instead of listing the opens
    code = main(["analyze", "--input", _discrete40(tmp_path),
                 "--format", "json"])
    assert code == 3
    assert "open sets" in capsys.readouterr().err


def test_verify_exits_3_when_the_open_family_is_too_large(tmp_path, capsys):
    # every m(x) of a discrete space passes the neighbourhood search, so
    # the bound trips later in verify, with the same message and code
    code = main(["verify", "--input", _discrete40(tmp_path),
                 "--format", "json"])
    assert code == 3
    assert ("more than 65536 open sets, too many to list"
            in capsys.readouterr().err)


def _one_point_above_twelve(tmp_path):
    # twelve isolated points and one point t with m(t) the whole space:
    # the opens are the 2^12 sets of isolated points and the whole space
    points = [f"p{i:02d}" for i in range(12)] + ["t"]
    doc = {"space": {"points": points, "basis": [[x] for x in points[:12]]},
           "groupoid": {"kind": "pair"},
           "subgroupoid": {"base": points,
                           "arrows": [f"{x}:{y}" for x in points
                                      for y in points if x != y]}}
    path = tmp_path / "above12.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_4097_opens_are_answered_without_a_cap(tmp_path, capsys):
    # total coherence is a lemma, so no open-family cap stands between a
    # space of 4097 opens and its report
    path = _one_point_above_twelve(tmp_path)
    assert main(["analyze", "--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["space"]["open_sets"] == 4097
    assert doc["totally_coherent"] is True
    assert main(["verify", "--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {r["theorem"]: r for r in doc["reports"]}
    assert by_name["restriction-global-coherence"]["details"] == {
        "opens_checked": 4097}
    assert doc["summary"]["counterexample"] == 0


# the non-associative four-element table of invalid_assoc.json, as a group
_NOT_ASSOCIATIVE = [
    ["e", "e", "e"], ["e", "a", "a"], ["e", "b", "b"], ["e", "c", "c"],
    ["a", "e", "a"], ["a", "a", "e"], ["a", "b", "c"], ["a", "c", "e"],
    ["b", "e", "b"], ["b", "a", "c"], ["b", "b", "e"], ["b", "c", "a"],
    ["c", "e", "c"], ["c", "a", "e"], ["c", "b", "a"], ["c", "c", "b"]]


def _bundle_doc(mul, elements=("e", "a", "b", "c"), points=("p",)):
    fiber = {"elements": list(elements), "unit": "e", "mul": mul}
    return {"space": {"points": list(points), "basis": []},
            "groupoid": {"kind": "bundle",
                         "fibers": {p: fiber for p in points}}}


def _pair_doc(base, arrows):
    return {"space": {"points": ["a", "b", "c", "d"], "basis": []},
            "groupoid": {"kind": "pair"},
            "subgroupoid": {"base": base, "arrows": arrows}}


# each document fails one validator with several witnesses; the one
# reported must be the least in sorted order, whatever the set order
INVALID_WITH_MANY_WITNESSES = {
    "leaves_base": (_pair_doc(["a", "b"], ["a:c", "b:d", "c:a", "d:b"]),
                    "arrow 'a:c' leaves the base"),
    "inverse_closure": (_pair_doc(["a", "b", "c", "d"], ["c:d", "a:b"]),
                        "not closed under inverse at 'a:b'"),
    "composition_closure": (
        _pair_doc(["a", "b", "c", "d"],
                  ["a:b", "b:a", "b:c", "c:b", "c:d", "d:c"]),
        "not closed under composition at ('a:b', 'b:c')"),
    "undefined_product": (
        _bundle_doc([["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"]],
                    elements=("e", "a", "b")),
        "multiplication undefined for ('a', 'a')"),
    "product_escapes": (
        _bundle_doc([[x, y, "z" if "e" not in (x, y) else x + y]
                     for x in ("e", "a", "b") for y in ("e", "a", "b")],
                    elements=("e", "a", "b")),
        "product of ('a', 'a') escapes the element set"),
    "unit_law": (
        _bundle_doc([[x, y, "e" if x != y else x]
                     for x in ("e", "a", "b") for y in ("e", "a", "b")],
                    elements=("e", "a", "b")),
        "unit law fails at element 'a'"),
    "associativity": (_bundle_doc(_NOT_ASSOCIATIVE),
                      "group multiplication not associative at "
                      "('a', 'a', 'b')"),
    "label_separators": (
        {"space": {"points": ["g#h", "e:f", "c#d", "a:b"], "basis": []},
         "groupoid": {"kind": "pair"}},
        "point label 'a:b' may not contain ':' or '#'"),
    "missing_fiber": (
        {"space": {"points": ["p", "q", "r"], "basis": []},
         "groupoid": {"kind": "bundle", "fibers": {}}},
        "missing fiber for point 'p'"),
    "unknown_fiber": (
        {"space": {"points": ["p"], "basis": []},
         "groupoid": {"kind": "bundle", "fibers": dict.fromkeys(
             ("r", "q", "p"),
             {"elements": ["e"], "unit": "e", "mul": [["e", "e", "e"]]})}},
        "fiber keyed on unknown point 'q'"),
}


def test_bundle_fiber_on_an_unknown_point_exits_2(tmp_path, capsys):
    # a fiber keyed outside the point set is rejected like an unknown
    # label anywhere else in the document
    with open(fixture_path("sier_bundle.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["groupoid"]["fibers"]["zz"] = doc["groupoid"]["fibers"]["1"]
    path = tmp_path / "sier_bundle_extra_fiber.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "error[validation]: fiber keyed on unknown point 'zz'")


@pytest.mark.parametrize("fixture, path, labels, message", [
    ("sier_bundle.json", ("space", "points"), ["1", "2", "1"],
     "space.points repeats the label '1'"),
    # the first repeat in list order, not the least repeated label
    ("sier_bundle.json", ("space", "points"), ["2", "1", "2", "1"],
     "space.points repeats the label '2'"),
    ("sier_bundle.json", ("groupoid", "fibers", "2", "elements"),
     ["0", "1", "0"],
     "groupoid.fibers['2'].elements repeats the element '0'"),
    ("rel_k2.json", ("groupoid", "group", "elements"), ["1", "0", "1"],
     "groupoid.group.elements repeats the element '1'"),
], ids=["points", "points-list-order", "fiber-elements", "group-elements"])
@pytest.mark.parametrize("command", ["analyze", "verify", "oracle-check"])
def test_repeated_labels_are_parse_errors(tmp_path, capsys, command, fixture,
                                          path, labels, message):
    # a repeated point or element used to be folded away, exiting 0
    with open(fixture_path(fixture), encoding="utf-8") as handle:
        doc = json.load(handle)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = labels
    doc_path = tmp_path / "repeated.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--input", str(doc_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[parse]: {message}\n"


@pytest.mark.parametrize("name", sorted(INVALID_WITH_MANY_WITNESSES))
def test_invalid_documents_report_the_least_witness(tmp_path, name):
    doc, message = INVALID_WITH_MANY_WITNESSES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for seed in ("0", "1", "2", "3", "5"):
        proc = subprocess.run(
            [sys.executable, "-m", "locglob", "analyze", "--input",
             str(path)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 2, (seed, proc.stderr)
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, (seed, proc.stderr)
        assert lines[0].startswith("error[validation]: "), (seed, lines)
        assert lines[0].endswith(message), (seed, lines)


# every fixture document, valid or not, as parsed JSON
FIXTURE_DOCS = {p.name: json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(FIXTURE_DIR.glob("*.json"))}
MUTATIONS = ("drop a key", "change a type", "add an unknown label",
             "truncate a list")
OTHER_TYPES = (None, 0, 1.5, True, "zz", [], {})


def _node_paths(node, path=()):
    """Every path from the root of a JSON value to one of its nodes."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _applies(mutation, doc, path) -> bool:
    node = _at(doc, path)
    if mutation == "drop a key":
        return bool(path) and isinstance(_at(doc, path[:-1]), dict)
    if mutation == "add an unknown label":
        return isinstance(node, (str, list, dict))
    if mutation == "truncate a list":
        return isinstance(node, list) and bool(node)
    return True


@st.composite
def mutant_documents(draw):
    """A fixture document with one to three of these mutations: a dict
    key dropped, a value replaced by one of another type, the label
    "zz" added to a list or dict or put in place of a string, a list cut
    short."""
    doc = copy.deepcopy(FIXTURE_DOCS[draw(st.sampled_from(
        sorted(FIXTURE_DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        paths = [p for p in _node_paths(doc) if _applies(mutation, doc, p)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        node = _at(doc, path)
        if mutation == "drop a key":
            del _at(doc, path[:-1])[path[-1]]
            continue
        if mutation == "change a type":
            new = draw(st.sampled_from(
                [v for v in OTHER_TYPES if type(v) is not type(node)]))
        elif mutation == "truncate a list":
            new = node[:draw(st.integers(0, len(node) - 1))]
        elif isinstance(node, list):
            new = node + ["zz"]
        elif isinstance(node, dict):
            new = dict(node, zz=next(iter(node.values()), "zz"))
        else:
            new = "zz"
        if path:
            _at(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutant_documents())
def test_mutated_documents_exit_cleanly(doc):
    # malformed input ends in an exit code, never an escaped exception
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "mutant.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command in ("analyze", "verify", "oracle-check"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([command, "--input", path, "--format", "json"])
            assert code in (0, 1, 2, 3), (command, code, err.getvalue())
