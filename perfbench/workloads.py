"""The three workloads. Each one builds a pool of inputs from the seed,
runs one operation per pool item through locglob's public functions,
and checks every output.

`inputs` generates the seeded inputs without the program; it is not
timed. `build` is the program's own set-up work on them, timed together
with the import as setup_s; `identity` gives the bytes that must come
out the same for the same seed.

`op` makes only the program's calls, each through `tracer.call` so a
traced run gets one span per call; it is the timed part. `time_steps`
routes some calls that the program makes inside it through the
end-to-end run's clock too, so that they are timed as steps of their
own. `verdict`
runs after the clock stops: it checks the outputs, adds to the
per-layer counters and returns the canonical result that goes into the
output digest.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random

import gen

MAX_OPENS = 4096                 # the CLI's default --max-opens
THEOREMS = ("component-clopenness", "local-connectivity-coherence",
            "connectivity-globalization-forward",
            "connectivity-globalization-converse", "foliation-components",
            "restriction-global-coherence", "restriction-total-coherence")
STATUSES = ("pass", "vacuous", "counterexample")


class CheckFailed(Exception):
    """An output failed a correctness check; `layer` produced it."""

    def __init__(self, layer, message):
        super().__init__(message)
        self.layer = layer


def require(condition, layer, message):
    if not condition:
        raise CheckFailed(layer, message)


def _labels(values) -> list:
    return sorted(str(v) for v in values)


def _check_reports(reports, counts):
    names = tuple(r.theorem for r in reports)
    require(names == THEOREMS, "coherence", f"checker reports {names}")
    for r in reports:
        require(r.status in STATUSES, "coherence", f"status {r.status!r}")
        if r.status == "counterexample":
            counts[f"coherence.counterexamples.{r.theorem}"] += 1


class ScanCounter:
    """Counts the opens that the program's total-coherence scans visit.

    While installed, `coherence.is_totally_coherent` is wrapped where
    the program looks it up: in `coherence`, whose checkers call it, and
    in `cli`, which imported it by name. A scan stops at its first
    failing open, in `spaces.enumerate_opens` order, so a passing call
    visited every open and a failing one the opens up to the failing
    one. Only traced passes install it."""

    def __init__(self):
        self.paused = False

    def install(self, lg, counts):
        self.lg = lg
        self.original = original = lg.coherence.is_totally_coherent
        enumerate_opens = lg.spaces.enumerate_opens

        def counted(section, *args, **kwargs):
            flag, failing = original(section, *args, **kwargs)
            if not self.paused:
                counts["coherence.opens_scanned"] += (
                    len(section.space.opens) if flag else
                    enumerate_opens(section.space).index(failing) + 1)
                counts["coherence.failing_opens"] += not flag
            return flag, failing

        lg.coherence.is_totally_coherent = counted
        lg.cli.is_totally_coherent = counted

    def remove(self):
        self.lg.coherence.is_totally_coherent = self.original
        self.lg.cli.is_totally_coherent = self.original

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False


SCANS = ScanCounter()

# Calls that end-to-end runs time as steps of their own, by the module
# whose global names they are looked up in: the CLI's calls into the
# other layers, and the per-open calls inside the coherence checkers.
STEP_CALLS = {
    "cli": ("load_instance", "section_from_atlas", "glob", "loc",
            "coherence_report", "is_totally_coherent", "foliation_space",
            "transitivity_components", "connected_components",
            "subgroupoid_coherence", "verify_component_clopenness",
            "verify_local_connectivity_coherence",
            "verify_connectivity_globalization",
            "verify_foliation_components", "verify_restriction_coherence"),
    "coherence": ("coherence_report", "restrict_section",
                  "is_totally_coherent"),
}


def time_steps(lg, clock):
    """Route the STEP_CALLS of a freshly imported locglob through
    `clock`. The wrapped functions behave as before."""
    for module_name, names in STEP_CALLS.items():
        module = getattr(lg, module_name)
        for name in names:
            setattr(module, name, functools.partial(
                clock.call, f"{module_name}.{name}", getattr(module, name)))


def _minimal_cover(lg, space) -> list:
    return lg.spaces.sorted_sets({space.minimal_open(x) for x in space.points})


def theorem_reports(lg, t, space, section, atlas, wide, cover) -> list:
    """The seven checker reports, in the order `verify` produces them."""
    co = lg.coherence
    local = t.call("sections.loc", lg.sections.loc, space, wide)
    reports = [
        t.call("coherence.verify_component_clopenness",
               co.verify_component_clopenness, local, wide, cover),
        t.call("coherence.verify_local_connectivity_coherence",
               co.verify_local_connectivity_coherence, space, wide)]
    reports.extend(t.call("coherence.verify_connectivity_globalization",
                          co.verify_connectivity_globalization, space, wide))
    reports.append(t.call("coherence.verify_foliation_components",
                          co.verify_foliation_components, section, atlas))
    reports.extend(t.call("coherence.verify_restriction_coherence",
                          co.verify_restriction_coherence, section, cover,
                          MAX_OPENS))
    return reports


class SuiteWorkload:
    """One op is one section of instance_suite(4, 12) taken through what
    `verify --suite` does with it."""

    name = "suite-4-12"
    setup_repeats = 3
    sample = 200

    def inputs(self, seed, workdir):
        return None

    def build(self, lg, seed, raw, tracer):
        suite = tracer.call("oracle.instance_suite",
                            lg.oracle.instance_suite, 4, 12)
        sections = list(suite.iter_sections())
        # one section from each of `sample` equal runs of the suite order,
        # which groups sections by point count and space
        rng = random.Random(seed)
        step = len(sections) / self.sample
        picks = [int(i * step) + rng.randrange(max(1, int(step)))
                 for i in range(self.sample)]
        return [(i,) + sections[i] for i in picks]

    def identity(self, pool):
        return gen.canonical_bytes([item[0] for item in pool])

    def op(self, lg, item, t):
        _, inst, section, atlas = item
        checked = t.call("oracle.cross_check_glob", lg.oracle.cross_check_glob,
                         section, atlas)
        wide = t.call("sections.glob", lg.sections.glob, section)
        report = t.call("coherence.coherence_report",
                        lg.coherence.coherence_report, section)
        cover = _minimal_cover(lg, inst.space)
        reports = theorem_reports(lg, t, inst.space, section, atlas, wide,
                                  cover)
        return checked, wide, report, reports

    def verdict(self, lg, item, outputs, counts):
        index, inst, section, _ = item
        checked, wide, report, reports = outputs
        require(checked.arrows == wide.arrows, "oracle",
                "cross-checked globalisation differs from glob")
        seed = set().union(*(g.rep.arrows for g in section.germs.values()))
        require(seed <= wide.arrows, "sections",
                "glob misses a germ representative arrow")
        require(report.coherent, "coherence", "section is not coherent")
        _check_reports(reports, counts)
        counts["spaces.opens"] += len(inst.space.opens)
        counts["groupoids.arrows"] += len(inst.groupoid.arrow_ids)
        counts["sections.glob_arrows"] += len(wide.arrows)
        counts["oracle.glob_cross_checks"] += 1
        return {"section": index, "glob": _labels(wide.arrows),
                "coherent": report.coherent,
                "globally_coherent": report.globally_coherent,
                "reports": [r.as_dict() for r in reports]}


class ChainWorkload:
    """One op is one pair-groupoid or cyclic-bundle instance on a chain
    space, from seeded arrows through loc, glob and the coherence
    checks. The chain spaces and their ambient groupoids are the
    program's input construction, built in set-up."""

    name = "chain-large"
    setup_repeats = 11

    def inputs(self, seed, workdir):
        return gen.chain_inputs(seed)

    def build(self, lg, seed, raw, tracer):
        gr = lg.groupoids
        pool = []
        for item in raw:
            space = tracer.call("spaces.space_from_basis",
                                lg.spaces.space_from_basis,
                                item["points"], item["basis"])
            if item["kind"] == "pair":
                g = tracer.call("groupoids.pair_groupoid", gr.pair_groupoid,
                                space.points)
            else:
                group = tracer.call("groupoids.cyclic_group", gr.cyclic_group,
                                    item["order"])
                g = tracer.call("groupoids.group_bundle", gr.group_bundle,
                                space.points, {p: group for p in space.points})
            pool.append((item, space, g))
        return pool

    def identity(self, pool):
        return gen.canonical_bytes([item for item, _, _ in pool])

    def op(self, lg, entry, t):
        item, space, g = entry
        co = lg.coherence
        h = t.call("groupoids.generate_wide", lg.groupoids.generate_wide, g,
                   space.points, item["seed_arrows"])
        section = t.call("sections.loc", lg.sections.loc, space, h)
        back = t.call("sections.glob", lg.sections.glob, section)
        report = t.call("coherence.coherence_report", co.coherence_report,
                        section)
        directions = t.call("coherence.verify_connectivity_globalization",
                            co.verify_connectivity_globalization, space, h)
        total = t.call("coherence.is_totally_coherent",
                       co.is_totally_coherent, section)
        return space, g, h, back, report, directions, total

    def verdict(self, lg, entry, outputs, counts):
        item = entry[0]
        space, g, h, back, report, directions, total = outputs
        require(_labels(h.arrows) == item["expected"], "groupoids",
                "generate_wide differs from the independent closure")
        require(back.arrows <= h.arrows, "sections",
                "glob(loc(H)) is not contained in H")
        require(report.coherent, "coherence", "loc(H) is not coherent")
        require(total == (True, None), "coherence",
                "loc(H) is not totally coherent")
        for r in directions:
            if r.status == "counterexample":
                counts[f"coherence.counterexamples.{r.theorem}"] += 1
        counts["spaces.opens"] += len(space.opens)
        counts["groupoids.arrows"] += len(g.arrow_ids)
        counts["sections.glob_arrows"] += len(back.arrows)
        return {"kind": item["kind"], "n": item["n"],
                "wide": _labels(h.arrows), "glob_loc": _labels(back.arrows),
                "coherent": report.coherent,
                "globally_coherent": report.globally_coherent,
                "directions": [r.as_dict() for r in directions],
                "totally_coherent": total[0]}


def _exit_code(lg, exc) -> int:
    """The exit code `locglob` gives for an exception (see cli.main)."""
    errors = lg.errors
    for cls, code in ((errors.ParseError, 1), (errors.ResourceLimitError, 3),
                      (errors.ValidationError, 2),
                      (errors.InvariantViolationError, 4)):
        if isinstance(exc, cls):
            return code
    raise exc


class DocsWorkload:
    """One op is one JSON document through `analyze` and then `verify`,
    in process, with --format json and the output captured."""

    name = "docs-cli"
    setup_repeats = 11

    def __init__(self, root):
        self.fixtures = root / "tests" / "fixtures"

    def inputs(self, seed, workdir):
        """The fixtures and the generated documents, written to workdir."""
        pool = []
        for path in sorted(self.fixtures.glob("*.json")):
            code = 2 if path.name.startswith("invalid_") else 0
            pool.append({"name": path.name, "path": str(path),
                         "data": path.read_bytes(), "expect": {"code": code}})
        for item in gen.docs_inputs(seed):
            data = gen.canonical_bytes(item["doc"])
            path = workdir / f"{item['name']}.json"
            path.write_bytes(data)
            pool.append({"name": item["name"], "path": str(path),
                         "data": data, "expect": item["expect"]})
        return pool

    def build(self, lg, seed, raw, tracer):
        return raw

    def identity(self, pool):
        return b"\n".join(item["data"] for item in pool)

    def _cli(self, lg, command, path, t):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = t.call("cli.main", lg.cli.main,
                          [command, "--input", path, "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def op(self, lg, item, t):
        return (self._cli(lg, "analyze", item["path"], t),
                self._cli(lg, "verify", item["path"], t))

    def traced_op(self, lg, item, t):
        """The CLI calls, then a replay of the public calls that
        cmd_analyze and cmd_verify_instance make, each in its own span.
        The replay's scans repeat the CLI's and are not counted again."""
        outputs = self.op(lg, item, t)
        with SCANS.pause():
            return outputs + (self._replay(lg, item["path"], t),)

    def _source(self, lg, parsed, t):
        se = lg.sections
        atlas = parsed.atlas
        if atlas is None:
            wide = parsed.subgroupoid
            if wide.base != parsed.space.points:
                raise lg.errors.ValidationError(
                    "subgroupoid must be based on the whole space")
            atlas = t.call("sections.Atlas", se.Atlas, parsed.space,
                           ((parsed.space.points, wide),))
        return t.call("sections.section_from_atlas", se.section_from_atlas,
                      atlas), atlas

    def _replay(self, lg, path, t):
        co, load = lg.coherence, lg.instance_io.load_instance
        try:
            parsed = t.call("instance_io.load_instance", load, path)
            section, atlas = self._source(lg, parsed, t)
            globalised = t.call("sections.glob", lg.sections.glob, section)
            t.call("coherence.coherence_report", co.coherence_report, section)
            total = t.call("coherence.is_totally_coherent",
                           co.is_totally_coherent, section, MAX_OPENS)
            foliated = t.call("coherence.foliation_space", co.foliation_space,
                              section, atlas)
            t.call("groupoids.transitivity_components",
                   lg.groupoids.transitivity_components, globalised)
            t.call("spaces.connected_components",
                   lg.spaces.connected_components, foliated, foliated.points)
            if parsed.subgroupoid is not None:
                t.call("coherence.subgroupoid_coherence",
                       co.subgroupoid_coherence, parsed.space,
                       parsed.subgroupoid)

            parsed = t.call("instance_io.load_instance", load, path)
            section, atlas = self._source(lg, parsed, t)
            wide = parsed.subgroupoid
            if wide is None:
                wide = t.call("sections.glob", lg.sections.glob, section)
            report = t.call("coherence.coherence_report", co.coherence_report,
                            section)
            reports = theorem_reports(lg, t, parsed.space, section, atlas,
                                      wide, _minimal_cover(lg, parsed.space))
        except lg.errors.LocglobError as exc:
            return {"code": _exit_code(lg, exc)}
        return {"code": 0, "totally_coherent": total[0],
                "coherent": report.coherent,
                "statuses": [r.status for r in reports]}

    def verdict(self, lg, item, outputs, counts):
        (code_a, out_a, err_a), (code_v, out_v, err_v) = outputs[:2]
        expect = item["expect"]
        require(code_a == expect["code"], "cli",
                f"{item['name']}: analyze exited {code_a}: {err_a.strip()}")
        require(code_v == expect["code"], "cli",
                f"{item['name']}: verify exited {code_v}: {err_v.strip()}")
        counts["instance_io.bytes_in"] += 2 * len(item["data"])
        counts["cli.bytes_out"] += len(out_a) + len(out_v)
        if code_a != 0:
            counts["instance_io.rejected"] += 2
            shown = {"code": code_a}
        else:
            analysis, verification = json.loads(out_a), json.loads(out_v)
            self._check_outputs(item, analysis, verification, counts)
            shown = {"code": 0,
                     "totally_coherent": analysis["totally_coherent"],
                     "coherent": analysis["coherence"]["coherent"],
                     "statuses": [r["status"]
                                  for r in verification["reports"]]}
        if len(outputs) > 2:
            require(outputs[2] == shown, "cli",
                    f"{item['name']}: the replay gives {outputs[2]}, "
                    f"the CLI {shown}")
        return {"name": item["name"], "analyze": [code_a, out_a, err_a],
                "verify": [code_v, out_v, err_v]}

    def _check_outputs(self, item, analysis, verification, counts):
        expect = item["expect"]
        opens = analysis["space"]["open_sets"]
        if "open_sets" in expect:
            require(analysis["space"]["points"] == sorted(expect["points"]),
                    "spaces", "points differ from the document")
            require(opens == expect["open_sets"], "spaces",
                    f"{opens} open sets, expected {expect['open_sets']}")
            require(len(analysis["foliation"]["opens"])
                    == expect["foliation_opens"], "spaces",
                    "foliation topology has the wrong number of opens")
            require(analysis["groupoid"]["arrows"] == expect["arrows"],
                    "groupoids", "groupoid has the wrong number of arrows")
        require(analysis["coherence"]["coherent"] is True, "coherence",
                "section is not coherent")
        require(analysis["totally_coherent"] is True, "coherence",
                "section is not totally coherent")
        reports = verification["reports"]
        require(tuple(r["theorem"] for r in reports) == THEOREMS, "coherence",
                "verify reports the wrong checkers")
        require(sum(verification["summary"].values()) == len(THEOREMS),
                "coherence", "verify summary does not add up")
        for r in reports:
            if r["status"] == "counterexample":
                counts[f"coherence.counterexamples.{r['theorem']}"] += 1
        counts["spaces.opens"] += opens
        counts["groupoids.arrows"] += analysis["groupoid"]["arrows"]
        counts["sections.glob_arrows"] += len(
            analysis["globalisation"]["arrows"])


WORKLOADS = ("suite-4-12", "chain-large", "docs-cli")


def make(name, root):
    if name == "docs-cli":
        return DocsWorkload(root)
    return {"suite-4-12": SuiteWorkload, "chain-large": ChainWorkload}[name]()
