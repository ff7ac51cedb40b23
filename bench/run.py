"""Benchmark of the arcstab library and CLI, with independent output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of seeded operations in this process, in whole passes
over a fixed operation list, until S seconds have gone by.  Outputs of
the first pass are checked against the oracles in oracles.py after the
timed passes; every later pass must reproduce them exactly.  The last
line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 runs half the time untraced and half with spans around every
layer, and reports the per-layer metrics and the tracing overhead.

Times are given at the reference speed of speed.py, which takes out the
swings of a shared machine's speed; the wall-clock figures go to standard
error.  The program is imported from the src directory beside this
script's directory; without it the benchmark exits with a nonzero status
before printing a result.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("fig7-continuation", "cold-solve", "design-tables")
# fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import arcstab and the workloads from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import arcstab

    import_s = time.perf_counter() - t0
    if Path(arcstab.__file__).resolve().parent != SRC / "arcstab":
        sys.exit("bench: arcstab was imported from %s, not %s" % (arcstab.__file__, SRC))
    import workloads

    return workloads, import_s


def _setup_probe(args):
    """Child side of the set-up timing: import, generate the inputs, report."""
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        workloads, import_s = _import_program()
        workloads.make_ops(args.workload, args.seed)
        t1 = time.perf_counter()
    print(json.dumps({"setup_s": sampler.at_reference(t0, t1), "wall_s": t1 - t0,
                      "import_s": import_s}))


def _time_setup(args):
    """Median set-up time, set-up wall time and import time of fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit("bench: set-up probe failed: %s" % proc.stderr.strip())
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def _same_tree(a, b):
    """True when directories a and b hold the same files with the same bytes."""
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return fa == fb and all((a / f).read_bytes() == (b / f).read_bytes() for f in fa)


class Runner:
    """Runs whole passes over the operation list and keeps the first pass's outputs.

    Every pass and every operation is kept as its (start, end) interval of
    time.perf_counter, to be converted to seconds after the run.
    """

    def __init__(self, workloads, ops, work):
        from arcstab.elastica import MultipleRootWarning

        self.workloads = workloads
        self.ops = ops
        self.work = work
        self.warning = MultipleRootWarning
        self.passes = []
        self.op_spans = []
        self.attempted = 0
        self.failures = []
        self.mismatches = []
        self.multi_root_warnings = []
        self.reference = None

    def _pass_dir(self, index):
        return self.work / ("pass%d" % index)

    def run_pass(self):
        index = len(self.passes)
        pass_dir = self._pass_dir(index)
        results = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self.warning)
            t_pass = time.perf_counter()
            for i, op in enumerate(self.ops):
                out = str(pass_dir / str(i))
                t0 = time.perf_counter()
                try:
                    result = self.workloads.run_op(op, out)
                except (Exception, SystemExit) as exc:
                    result = exc
                self.op_spans.append((t0, time.perf_counter()))
                results.append(result)
            self.passes.append((t_pass, time.perf_counter()))
        self.attempted += len(self.ops)
        self.multi_root_warnings.append(
            sum(issubclass(w.category, self.warning) for w in caught))
        for i, result in enumerate(results):
            if isinstance(result, BaseException):
                self.failures.append("pass %d op %d (%s): %r %s"
                                     % (index, i, self.ops[i].kind, result, sink.getvalue()[-500:]))
        if self.reference is None:
            self.reference = results
            return
        for i, (got, ref) in enumerate(zip(results, self.reference)):
            if isinstance(got, BaseException) or isinstance(ref, BaseException):
                continue
            if got != ref or (self.ops[i].argv is not None and not _same_tree(
                    self._pass_dir(0) / str(i), pass_dir / str(i))):
                self.mismatches.append("pass %d op %d (%s) differs from pass 0"
                                       % (index, i, self.ops[i].kind))
        shutil.rmtree(pass_dir, ignore_errors=True)

    def run_for(self, seconds):
        """Passes until `seconds` have gone by, at least one; returns their intervals."""
        first = len(self.passes)
        t0 = time.perf_counter()
        while True:
            self.run_pass()
            if time.perf_counter() - t0 >= seconds:
                return self.passes[first:]

    def check(self):
        """Messages for every first-pass output the oracles reject."""
        errors = list(self.mismatches)
        for i, (op, result) in enumerate(zip(self.ops, self.reference)):
            if isinstance(result, BaseException):
                continue
            try:
                self.workloads.check_op(op, result, str(self._pass_dir(0) / str(i)))
            except Exception as exc:  # a missing or unreadable output is wrong too
                errors.append("op %d (%s): %r" % (i, op.kind, exc))
        return errors


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _wall(span):
    return span[1] - span[0]


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "arcstab" / "__init__.py").is_file():
        sys.exit("bench: no arcstab sources under %s" % SRC)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    setup = _time_setup(args)
    workloads, _ = _import_program()
    ops = workloads.make_ops(args.workload, args.seed)
    work = WORK / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workloads, ops, work)
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            with speed.Sampler() as sampler:
                untraced = runner.run_for(args.seconds / 2.0)
                tracer.install()
                try:
                    traced = runner.run_for(args.seconds / 2.0)
                finally:
                    tracer.remove()
            warned = runner.multi_root_warnings[-len(traced):]
            overhead = (statistics.median(sampler.at_reference(*s) for s in traced)
                        - statistics.median(sampler.at_reference(*s) for s in untraced))
            metrics = tracing.layer_metrics(tracer.summary(), tracer.tallies, len(traced))
            metrics.update({
                "elastica.multi_root_warnings": (sum(warned) / len(warned), "count"),
                "setup.import_s": (setup["import_s"], "s"),
                "trace.overhead_s": (overhead, "s"),
            })
            WORK.mkdir(exist_ok=True)
            tracer.save(WORK / ("spans-%s.npz" % args.workload))
        else:
            with speed.Sampler() as sampler:
                runner.run_for(args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            lat = [sampler.at_reference(*s) for s in runner.op_spans]
            metrics = {
                "setup_s": (setup["setup_s"], "s"),
                "wall_s": (statistics.median(sampler.at_reference(*s) for s in runner.passes), "s"),
                "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "op_p90_ms": (1e3 * _percentile(lat, 90), "ms"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
            print("bench: wall clock: setup %.4f s, pass median %.4f s, op p50 %.4f ms, "
                  "%d passes" % (setup["wall_s"], statistics.median(map(_wall, runner.passes)),
                                 1e3 * statistics.median(map(_wall, runner.op_spans)),
                                 len(runner.passes)), file=sys.stderr)
        errors = runner.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in runner.failures[:10] + errors[:10]:
        print("bench: %s" % msg, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
