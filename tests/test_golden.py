"""Golden command line outputs, compared byte for byte.

Each case under fixtures/golden/cli holds the argument list, the exit
code, and the exact stdout and stderr of one in-process `locglob` run:
`analyze` and `verify` on every fixture (the invalid ones included),
`verify --suite 3,6` and `oracle-check --suite 3,6`, each once with
--format json and once with --format text (the default; its cases end
in `__text`). A refactor must leave all of them as they are; a
deliberate output change regenerates them with

    python tests/test_golden.py

and says so in CHANGES.md.

Three large documents of `large_documents.py` have outputs of up to
12 MB, too large to commit, so their `--format json` stdout is pinned as
a sha256 digest instead. The other three are pinned by their exits:
`chain128` and `chain256` on the open-set bound, `pair4096` on the
built-in arrow bound. `verify` on `chain256` also has its peak memory
pinned, in a process of its own.

The suite goldens hold only tallies, so every checker report of the
3,6 suite, details and certificates included, is pinned by one digest.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from large_documents import write_documents

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = FIXTURES / "golden" / "cli"


def _cases() -> dict:
    cases = {}
    for fmt, suffix in (("json", ""), ("text", "__text")):
        for path in sorted(FIXTURES.glob("*.json")):
            for command in ("analyze", "verify"):
                cases[f"{command}__{path.stem}{suffix}"] = [
                    command, "--input", f"fixtures/{path.name}",
                    "--format", fmt]
        for command in ("verify", "oracle-check"):
            cases[f"{command}__suite_3_6{suffix}"] = [
                command, "--suite", "3,6", "--format", fmt]
    return cases


CASES = _cases()


def capture(argv) -> dict:
    """Run the CLI in process; fixture paths are relative to tests/."""
    from locglob.cli import main

    args = [str(HERE / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"argv": list(argv), "exit_code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden_text(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    actual = _golden_text(capture(CASES[name])).encode("utf-8")
    assert actual == expected


LARGE_DIGESTS = {
    ("analyze", "discrete16"):
        "6bf8705e28773b3c0d73555117298dd6330c5fae9b2d9b21736dbbb2f2e30443",
    ("verify", "discrete16"):
        "e7a14617e3ae4ea8a63fd8b36281fba67f7e27ba407d807729ebd6ce8acc66d0",
    ("analyze", "chain20"):
        "7448ad8326e51f1c1bc9b4a0937547211f7ad736b0bdff9b12df6652ee8d1353",
    ("verify", "chain20"):
        "979942ba1718e207bfde7509b2dff51c3454d83d0a39a2fdf4fe35fbe7a19b4e",
    ("analyze", "rescue18"):
        "f8b80e998b29e50b6e8ee87087755bd3b6d4ff854e656348a2c964836b492176",
    ("verify", "rescue18"):
        "227730f90672fb0f3008afe306edb66a28a110d96a58ab20ecbac29687b01d4a",
}


@pytest.fixture(scope="module")
def large_paths(tmp_path_factory):
    return write_documents(tmp_path_factory.mktemp("large"))


@pytest.mark.parametrize("command, name", sorted(LARGE_DIGESTS))
def test_large_document_output_matches_its_digest(command, name,
                                                  large_paths):
    run = capture([command, "--input", large_paths[name],
                   "--format", "json"])
    assert (run["exit_code"], run["stderr"]) == (0, "")
    digest = hashlib.sha256(run["stdout"].encode("utf-8")).hexdigest()
    assert digest == LARGE_DIGESTS[command, name]


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_chain128_stops_at_the_open_set_bound(command, large_paths):
    # the 128 points, in 32 blocks of 4, build the pair groupoid on 128
    # points before the foliation's opens pass spaces.MAX_OPENS
    run = capture([command, "--input", large_paths["chain128"],
                   "--format", "json"])
    assert (run["exit_code"], run["stdout"], run["stderr"]) == (
        3, "", "error[resource-limit]: more than 65536 open sets, "
               "too many to list\n")


def test_chain256_verify_stops_at_the_open_set_bound_in_bounded_memory(
        large_paths):
    # a fresh process, so that its peak RSS is this run's alone; the
    # pair groupoid on 256 points is built, and no arrow set per
    # minimal neighbourhood is kept (one per m(p_i) peaked at 327 MB)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
            "from locglob.cli import main; code = main(sys.argv[2:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); "
            "sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), "verify", "--input",
         large_paths["chain256"], "--format", "json"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (
        3, "error[resource-limit]: more than 65536 open sets, "
           "too many to list\n")
    peak_kb = int(proc.stdout)  # ru_maxrss is in kilobytes on Linux
    assert peak_kb < 150 * 1024


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_pair4096_stops_at_the_builtin_arrow_bound(command, large_paths):
    # 4,096 points would make 2^24 pair arrows: refused before any is built
    run = capture([command, "--input", large_paths["pair4096"],
                   "--format", "json"])
    assert (run["exit_code"], run["stdout"], run["stderr"]) == (
        3, "", "error[resource-limit]: 16777216 arrows exceeds the "
               "built-in groupoid bound of 1048576\n")


SUITE_3_6_REPORTS_DIGEST = (
    "f3be4c8a2952805564d4f6354c32a2dc13c595d03853a7ab4fd68474f2ba8a43")


def test_suite_3_6_reports_match_their_digest():
    # canonical JSON of each report's `as_dict()`, one line per report,
    # for every section of the 3,6 suite, made as `verify --suite` makes
    # the reports it tallies
    from locglob.cli import _theorem_reports
    from locglob.oracle import cross_check_glob, instance_suite

    digest, reports = hashlib.sha256(), 0
    for inst, section, atlas in instance_suite(3, 6).iter_sections():
        wide = cross_check_glob(section, atlas)
        for report in _theorem_reports(inst.space, section, atlas, wide,
                                       wide):
            digest.update(json.dumps(report.as_dict(), sort_keys=True,
                                     separators=(",", ":")).encode("utf-8")
                          + b"\n")
            reports += 1
    assert (reports, digest.hexdigest()) == (
        7 * 369, SUITE_3_6_REPORTS_DIGEST)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(_golden_text(capture(argv)),
                                             encoding="utf-8")
        print(name)
