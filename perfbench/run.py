"""locglob benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload chain-large --seed 0 --trace 0

Run from the root of a checkout; locglob is imported from its `src/`.
A closed loop with one client calls the program's public functions
in process, one operation after another, on one thread.

--trace 0 sets up the workload several times and reports the median as
setup_s. One set-up generates the seeded inputs, untimed, then times a
fresh import of locglob plus the program's own set-up work (for
suite-4-12, building instance_suite(4, 12)). The run makes passes over
the input pool, each in a seeded order, until every input has run at
least MIN_PASSES times and --seconds of passes have gone by; the set-ups
are spread evenly over that time, each replacing the program and pool
of the one before, so that neither the set-ups nor the passes see only
one stretch of the machine's drift. An input's latency is the sum, over
the timed calls into locglob its operation makes, of each call's fastest
self time over the passes (the rest of the operation's time counting as
one more call). The timed calls are those the operation makes, those
the CLI makes into the other layers and the per-open calls inside the
coherence checkers (workloads.STEP_CALLS). Other tenants of
the machine slow the process down in bursts a few milliseconds apart,
for stretches of seconds to minutes; a call of a few milliseconds often
runs between two bursts, a whole operation seldom does. op_p50_ms and
op_p90_ms are taken over these per-input latencies and ops_per_s is the
number of inputs over their sum.
--trace 1 sets up once, runs one pass untraced and one pass with a span
around every call into locglob, and reports per-layer self time, call
counts, work counters and the tracing overhead. The spans are written
to .perfbench/ in the checkout.

Every output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gen
import workloads
from spans import StepClock, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAYERS = ("spaces", "groupoids", "sections", "coherence", "oracle",
          "instance_io", "cli")
MIN_INPUTS = 100      # p90 then has at least ten samples beyond it
MIN_PASSES = 3
DEFAULT_SEED = 0
PINNED = Path(__file__).resolve().parent / "digests.json"

# every span the workloads record, reported as <name>.self_s and .calls
SPAN_NAMES = (
    "spaces.space_from_basis", "spaces.connected_components",
    "groupoids.pair_groupoid", "groupoids.cyclic_group",
    "groupoids.group_bundle", "groupoids.generate_wide",
    "groupoids.transitivity_components",
    "sections.Atlas", "sections.section_from_atlas", "sections.loc",
    "sections.glob",
    "coherence.coherence_report", "coherence.is_totally_coherent",
    "coherence.foliation_space", "coherence.subgroupoid_coherence",
    "coherence.verify_component_clopenness",
    "coherence.verify_local_connectivity_coherence",
    "coherence.verify_connectivity_globalization",
    "coherence.verify_foliation_components",
    "coherence.verify_restriction_coherence",
    "oracle.instance_suite", "oracle.cross_check_glob",
    "instance_io.load_instance", "cli.main")
# work counters the workloads keep, with their units
COUNTS = (
    ("spaces.opens", "count"), ("groupoids.arrows", "count"),
    ("sections.glob_arrows", "count"), ("coherence.opens_scanned", "count"),
    ("oracle.glob_cross_checks", "count"), ("instance_io.bytes_in", "bytes"),
    ("instance_io.rejected", "count"), ("cli.bytes_out", "bytes"),
) + tuple((f"coherence.counterexamples.{t}", "count")
          for t in workloads.THEOREMS)


def load_program():
    """Import locglob afresh, so each set-up pays the import again."""
    for name in [n for n in sys.modules
                 if n == "locglob" or n.startswith("locglob.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"locglob.{layer}")
               for layer in LAYERS}
    return SimpleNamespace(errors=importlib.import_module("locglob.errors"),
                           **modules)


def layer_of(exc):
    """The locglob module the benchmark called into when `exc` was
    raised: the outermost program frame of its traceback."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "locglob" and path.stem in LAYERS:
            return path.stem
    return None


class Measurement:
    """Latencies, failures, counters and result digests of the passes
    over one input pool."""

    def __init__(self, workload, lg, pool):
        self.workload, self.lg, self.pool = workload, lg, pool
        self.runs = [0] * len(pool)           # per input
        self.best_steps = [None] * len(pool)  # per input, fastest of each step
        self.best_total = [float("inf")] * len(pool)
        self.uneven = set()                   # inputs whose runs differed
        self.attempted = 0
        self.failures = Counter()        # layer (or None) -> failed ops
        self.first_failure = None
        self.counts = Counter()
        self.digests = [None] * len(pool)

    def _fail(self, layer, message):
        self.failures[layer] += 1
        if self.first_failure is None:
            self.first_failure = f"[{layer}] {message}"

    def run_pass(self, op, tracer) -> float:
        """One pass over the pool in pool order; returns the time spent
        in `op`."""
        return sum(self.run_op(slot, op, tracer)
                   for slot in range(len(self.pool)))

    def run_op(self, slot, op, tracer) -> float:
        """Input `slot` through `op` once, then its checks; returns the
        time spent in `op`. Keeps the op's steps (see `latency`)."""
        item = self.pool[slot]
        tracer.begin_op(self.attempted)
        self.attempted += 1
        start = perf_counter()
        try:
            outputs = op(self.lg, item, tracer)
        except Exception as exc:
            elapsed = perf_counter() - start
            self._fail(layer_of(exc), f"{type(exc).__name__}: {exc}")
            self._keep(slot, (elapsed,))
            return elapsed
        elapsed = perf_counter() - start
        steps = getattr(tracer, "steps", [])
        self._keep(slot, steps + [elapsed - sum(steps)])
        self._judge(slot, item, outputs)
        return elapsed

    def _keep(self, slot, steps):
        self.runs[slot] += 1
        self.best_total[slot] = min(self.best_total[slot], sum(steps))
        best = self.best_steps[slot]
        if best is None:
            self.best_steps[slot] = list(steps)
        elif len(best) != len(steps):
            self.uneven.add(slot)
        else:
            for i, t in enumerate(steps):
                if t < best[i]:
                    best[i] = t

    def latency(self, slot) -> float:
        """An input's latency: the sum over the op's steps of each step's
        fastest time over the runs. A step is the self time of one timed
        call into locglob (see StepClock); the rest of the op's time is
        one more step. If the runs made different steps, the fastest
        run."""
        if slot in self.uneven:
            return self.best_total[slot]
        return sum(self.best_steps[slot])

    def _judge(self, slot, item, outputs):
        try:
            result = self.workload.verdict(self.lg, item, outputs,
                                           self.counts)
        except workloads.CheckFailed as exc:
            self._fail(exc.layer, str(exc))
            return
        except Exception as exc:
            self._fail(layer_of(exc), f"{type(exc).__name__}: {exc}")
            return
        digest = hashlib.sha256(gen.canonical_bytes(result)).digest()
        if self.digests[slot] is None:
            self.digests[slot] = digest
        elif self.digests[slot] != digest:
            self._fail(None, f"result of input {slot} changed between passes")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def output_digest(self) -> str:
        """sha256 over the per-input result digests, in pool order."""
        whole = hashlib.sha256()
        for digest in self.digests:
            whole.update(digest or b"missing")
        return whole.hexdigest()


def set_up(workload, seed, tracer, workdir):
    """Untimed input generation, then a timed fresh import plus the
    program's set-up work. Returns the program, the pool, the set-up
    time and the digest of the inputs."""
    rep_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
    raw = workload.inputs(seed, rep_dir)
    gc.collect()
    start = perf_counter()
    lg = load_program()
    pool = workload.build(lg, seed, raw, tracer)
    elapsed = perf_counter() - start
    return lg, pool, elapsed, hashlib.sha256(
        workload.identity(pool)).hexdigest()


def pinned_digest(workload_name, seed):
    if seed != DEFAULT_SEED or not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text()).get(workload_name)


def end_to_end(args, workload, workdir):
    """Passes over the pool in a seeded order, with the set-ups spread
    evenly over the measured time, until every input has run
    MIN_PASSES times and --seconds of passes have gone by."""
    repeats = workload.setup_repeats
    lg, pool, elapsed, digest = set_up(workload, args.seed, StepClock(),
                                       workdir)
    if len(pool) < MIN_INPUTS:
        raise SystemExit(f"perfbench: {len(pool)} inputs, need {MIN_INPUTS}")
    setup_times, inputs = [elapsed], {digest}
    steps = StepClock()
    workloads.time_steps(lg, steps)
    run = Measurement(workload, lg, pool)
    rng = random.Random(args.seed)
    order, passes, clock = [], 0, 0.0
    while (passes < MIN_PASSES or clock < args.seconds
           or len(setup_times) < repeats):
        if len(setup_times) < repeats and (
                clock >= args.seconds * len(setup_times) / repeats):
            run.lg = run.pool = lg = pool = None
            lg, pool, elapsed, digest = set_up(workload, args.seed,
                                               StepClock(), workdir)
            workloads.time_steps(lg, steps)
            run.lg, run.pool = lg, pool
            setup_times.append(elapsed)
            inputs.add(digest)
        if not order:
            order = list(range(len(pool)))
            rng.shuffle(order)
        start = perf_counter()
        run.run_op(order.pop(), workload.op, steps)
        clock += perf_counter() - start
        if not order:
            passes += 1
    samples = run.runs
    best_ms = sorted(run.latency(slot) * 1000.0 for slot in range(len(pool)))
    metrics = {
        "ops_per_s": (len(best_ms) * 1000.0 / sum(best_ms), "1/s"),
        "op_p50_ms": (statistics.median(best_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(best_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    print(f"  {run.attempted} ops in {clock:.1f} s over {len(pool)} inputs, "
          f"{min(samples)}-{max(samples)} runs each "
          f"({len(best_ms)} latency samples)")
    print(f"  set-up times: {', '.join(f'{t:.3f} s' for t in setup_times)}")
    print(f"  ops_failed_frac: {run.failed / run.attempted} "
          f"({run.failed} of {run.attempted})")
    return run, inputs, metrics


def per_layer(args, workload, workdir):
    tracer = Tracer()
    tracer.begin_op("setup")
    lg, pool, _, digest = set_up(workload, args.seed, tracer, workdir)
    inputs = {digest}
    op = getattr(workload, "traced_op", workload.op)
    run = Measurement(workload, lg, pool)
    untraced = run.run_pass(op, StepClock())
    run.counts.clear()
    workloads.SCANS.install(lg, run.counts)
    try:
        traced = run.run_pass(op, tracer)
    finally:
        workloads.SCANS.remove()
    self_s, calls = tracer.self_times()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    unknown = set(calls) - set(SPAN_NAMES)
    if unknown:
        raise SystemExit(f"perfbench: unlisted spans {sorted(unknown)}")
    for name, unit in COUNTS:
        metrics[name] = (run.counts[name], unit)
    scanned = run.counts["coherence.opens_scanned"]
    metrics["coherence.total_scan_useful_ratio"] = (
        run.counts["coherence.failing_opens"] / scanned if scanned else 0.0,
        "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (run.failures[layer], "count")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(path)
    print(f"  {len(pool)} inputs, one untraced and one traced pass; "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return run, inputs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "locglob" / "__init__.py").is_file():
        print(f"perfbench: no locglob sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    located = Path(load_program().spaces.__file__).resolve()
    if SRC.resolve() not in located.parents:
        print(f"perfbench: locglob imported from {located}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, ROOT)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        measure = per_layer if args.trace else end_to_end
        run, inputs, metrics = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = run.output_digest()
    pinned = pinned_digest(args.workload, args.seed)
    problems = []
    if run.failed:
        problems.append(f"{run.failed} failed ops, first: {run.first_failure}")
    if len(inputs) != 1:
        problems.append("the same seed built different inputs")
    if pinned is not None and pinned != digest:
        problems.append(f"output digest differs from the pinned {pinned}")
    print(f"  output digest: {digest}"
          + ("" if pinned is None else
             f" (pinned for seed {DEFAULT_SEED}: "
             f"{'match' if pinned == digest else 'MISMATCH'})"))
    for problem in problems:
        print(f"  incorrect: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
