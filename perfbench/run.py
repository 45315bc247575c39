"""Run one workload of the bcd benchmark and print its metrics.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 15 --trace 0

Run from the repository root; `bcd` is imported from ./src, never from an
installed copy.  Workloads: queries, oracle, models, bulk (see README.md).

The client is a closed loop with one thread and one request in flight: each
op starts when the previous one has been answered, as `bcd` callers wait
for each answer.  Every run makes its inputs from the seed, warms up on
inputs from a disjoint seed, then runs the fixed op list once.

--trace 0 prints the end-to-end metrics; --trace 1 runs the op list untraced
and then traced, prints the per-layer metrics and writes the spans to
perfbench/out/.  Either way the next-to-last stdout line is a JSON report
(digests, input properties, machine) and the last line is the result:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 means the run
completed, whatever it found; anything else means it could not run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
RECURSION_LIMIT = 20000  # what bcd.cli.main sets; gc and all else stay as users have them
NOMINAL_SECONDS = 15  # --seconds at which the workloads run at scale 1.0
SETUP_SAMPLES = 9
SUBPROCESS_TIMEOUT = 60
# The shared machine's speed changes by tens of percent within tens of
# milliseconds and drifts over minutes, so every time the benchmark reports
# is calibrated: each measured duration is multiplied by
# CALIBRATION_REFERENCE_S / (the mean duration of a fixed pure-Python task,
# timed every CALIBRATION_EVERY_S between ops, around it).  The task
# builds, renders and interns tuple trees, so it allocates and hashes like
# `bcd` does, and it uses no `bcd` code, so a change to `bcd` cannot move it.
# Raw times are in the report line.
CALIBRATION_REFERENCE_S = 0.0007
CALIBRATION_EVERY_S = 0.01
CALIBRATION_REPEATS = 3
# Times `import bcd` in a fresh process, then the calibration task there.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import bcd; t = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); import run; "
    "print(t, run.Calibration().took[0])"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bcd" / "__init__.py").is_file():
        print(f"no bcd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(RECURSION_LIMIT)
    t0 = time.perf_counter()
    import bcd

    import_s = time.perf_counter() - t0
    if Path(bcd.__file__).resolve().parent != SRC / "bcd":
        print(f"imported bcd from {bcd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    # One CPU for the run and its children, so that the calibration measures
    # the CPU the measured work ran on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        print("could not pin to one CPU; calibration is coarser", file=sys.stderr)
    cal = Calibration()
    setup_raw, setup = [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        seconds, took = _import_seconds()
        setup_raw.append(seconds)
        setup.append(seconds * CALIBRATION_REFERENCE_S / took)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds / NOMINAL_SECONDS)
    run_pass(wl, wl.warmup, spans.NullTracer(), cal)
    result = run_pass(wl, wl.ops, spans.NullTracer(), cal)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(wl.ops),
        "warmup_ops": len(wl.warmup),
        "input_digest": inputs.digest(
            [_digestible(op) for op in wl.ops] + [argv for argv, _, _ in wl.cli]
        ),
        "properties": {**wl.props.report(), "true_share": result.true_share},
        "machine": _machine(),
        "import_in_process_s": import_s,
        **wl.extra_report(result.latencies),
    }

    if args.trace:
        tracer = spans.Tracer()
        traced = run_pass(wl, wl.ops, tracer, cal)
        cli = run_cli(wl, result.answers, tracer, cal)
        # Spans are raw; scale them by the traced pass's mean calibration.
        factor = traced.wall_cal / traced.wall
        metrics = {
            k: (_calibrated(v, u, factor), u)
            for k, (v, u) in spans.layer_metrics(tracer, workloads.MODEL_CONFIGS).items()
        }
        metrics["trace.wall_untraced_s"] = (result.wall_cal, "s")
        metrics["trace.wall_traced_s"] = (traced.wall_cal, "s")
        metrics["trace.overhead_s"] = (traced.wall_cal - result.wall_cal, "s")
        report["raw_trace"] = {"wall_untraced_s": result.wall, "wall_traced_s": traced.wall}
        checked = [result, traced]
    else:
        cli = run_cli(wl, result.answers, spans.NullTracer(), cal)
        attempted = len(wl.ops) + len(cli.seconds)
        failed = result.failed + cli.failed
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = _end_to_end(setup, result.wall_cal, result.calibrated, cli.calibrated)
        raw = _end_to_end(setup_raw, result.wall, result.latencies, cli.seconds)
        report["raw_metrics"] = {k: v for k, (v, _) in raw.items()}
        metrics["ok_share"] = (1 - failed / attempted, "share")
        metrics["peak_rss_mb"] = (rss, "MB")
        tail, percentile, beyond = tail_latency(result.latencies)
        report.update(
            setup_samples_s=setup_raw,
            latency_samples=len(result.latencies),
            tail_percentile=percentile,
            tail_samples_beyond=beyond,
            failed_share=failed / attempted,
            cli_calls=len(cli.seconds),
            cli_exit_codes=cli.exit_codes,
        )
        checked = [result]

    report["calibration"] = {
        "reference_s": CALIBRATION_REFERENCE_S,
        "samples": len(cal.took),
        "median_s": statistics.median(cal.took),
        "quartiles_s": statistics.quantiles(cal.took, n=4) if len(cal.took) > 1 else cal.took,
    }
    report["verdict_digest"] = inputs.digest(result.verdicts + cli.exit_codes)
    report["exceptions"] = result.exceptions
    report["wrong_ops"] = result.wrong
    report["cli_failed"] = cli.failed
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-{args.seed}.jsonl"
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        tracer.write(trace_path, {"report": report, "counts": tracer.counts})
    attempted = sum(len(r.latencies) for r in checked) + len(cli.seconds)
    failed = sum(r.failed for r in checked) + cli.failed
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": all(r.wrong == 0 for r in checked) and cli.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _end_to_end(setup, wall, latencies, cli_seconds) -> dict:
    tail, _, _ = tail_latency(latencies)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "cli_call_p50_ms": (statistics.median(cli_seconds) * 1e3, "ms"),
    }


def _calibrated(value, unit, factor):
    if unit == "s":
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value


class Calibration:
    """Machine speed, sampled all through the run.

    A sample is the best of CALIBRATION_REPEATS timings of a fixed task.
    `scale(t0, t1)` turns a duration measured over [t0, t1] into reference
    seconds, using the samples taken within half the duration (at least
    CALIBRATION_EVERY_S) before t0 or after t1, so each op is scaled by the
    speed of the machine around it.
    """

    def __init__(self):
        self.at = []  # end time of each sample
        self.took = []
        self.sample()

    def _task_seconds(self) -> float:
        t0 = time.perf_counter()
        rng = random.Random(0)
        tree = inputs.random_tree(rng, 201)
        inputs.analyse([tree, inputs.random_tree(rng, 101)])
        inputs.text(tree)
        return time.perf_counter() - t0

    def sample(self):
        self.took.append(min(self._task_seconds() for _ in range(CALIBRATION_REPEATS)))
        self.at.append(time.perf_counter())

    def maybe_sample(self):
        if time.perf_counter() - self.at[-1] >= CALIBRATION_EVERY_S:
            self.sample()

    def scale(self, t0, t1) -> float:
        reach = max(CALIBRATION_EVERY_S, (t1 - t0) / 2)
        i = bisect.bisect_left(self.at, t0 - reach)
        j = bisect.bisect_right(self.at, t1 + reach)
        if i == j:  # nothing close: the nearest sample on either side
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        return CALIBRATION_REFERENCE_S / statistics.fmean(self.took[i:j])


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.wall_cal = 0.0
        self.latencies = []
        self.calibrated = []
        self.verdicts = []
        self.answers = {}  # op index -> yes/no answer
        self.failed = 0  # wrong answers plus exceptions
        self.wrong = 0
        self.exceptions = {}
        self.true_share = None


def run_pass(wl, ops, tr, cal) -> PassResult:
    """Run the ops once, in order.  Checks and calibration samples run
    between ops, outside the timing.

    wall is the per-pass set-up plus the sum of op latencies, so it leaves
    out the benchmark's own work.  An exception is a failed op and never
    ends the pass.
    """
    r = PassResult()
    spans_at = []
    cal.sample()
    t0 = time.perf_counter()
    state = wl.begin_pass(tr)
    begin = (t0, time.perf_counter())
    yes = no = 0
    for i, op in enumerate(ops):
        cal.maybe_sample()  # the check of the previous op may have been long
        tr.begin_op(i, op[0])
        t0 = time.perf_counter()
        try:
            answer = wl.execute(op, tr, state)
        except Exception as exc:  # the op failed; record it and go on
            t1 = time.perf_counter()
            tr.end_op()
            spans_at.append((t0, t1))
            name = type(exc).__name__
            r.exceptions[name] = r.exceptions.get(name, 0) + 1
            r.verdicts.append("E:" + name)
            r.failed += 1
            cal.maybe_sample()
            continue
        t1 = time.perf_counter()
        tr.end_op()
        spans_at.append((t0, t1))
        cal.maybe_sample()
        ok, verdict = wl.check(op, answer)
        r.verdicts.append(verdict)
        if not ok:
            r.wrong += 1
            r.failed += 1
        holds = wl.holds(op, answer)
        if holds is not None:
            r.answers[i] = holds
            yes += holds
            no += not holds
    cal.sample()
    r.latencies = [t1 - t0 for t0, t1 in spans_at]
    r.calibrated = [(t1 - t0) * cal.scale(t0, t1) for t0, t1 in spans_at]
    r.wall = begin[1] - begin[0] + sum(r.latencies)
    r.wall_cal = (begin[1] - begin[0]) * cal.scale(*begin) + sum(r.calibrated)
    r.true_share = yes / (yes + no) if yes + no else None
    return r


class CliResult:
    def __init__(self):
        self.seconds = []
        self.calibrated = []
        self.exit_codes = []
        self.failed = 0  # wrong exit code or a crash
        self.wrong = 0  # a definite answer (exit 0 or 1) that is wrong


def run_cli(wl, answers, tr, cal) -> CliResult:
    """`bcd` as a process, one call at a time; checks each exit code."""
    r = CliResult()
    env = _child_env()
    cal.sample()
    for argv, op_index, expected in wl.cli:
        if expected is None:
            expected = 0 if answers.get(op_index) else 1
        cmd = [sys.executable, "-m", "bcd.cli"] + argv
        t0 = time.perf_counter()
        proc = tr.call("cli.process", _run_child, cmd, env)
        t1 = time.perf_counter()
        cal.sample()
        r.seconds.append(t1 - t0)
        r.calibrated.append((t1 - t0) * cal.scale(t0, t1))
        r.exit_codes.append(proc.returncode)
        if proc.returncode != expected:
            r.failed += 1
            r.wrong += proc.returncode in (0, 1)
    return r


def tail_latency(values) -> tuple:
    """(value, percentile, samples beyond): the highest percentile that still
    has at least 10 samples above it, or the maximum if there are fewer."""
    s = sorted(values)
    beyond = min(10, len(s) - 1)
    k = len(s) - 1 - beyond
    return s[k], 100.0 * (k + 1) / len(s), beyond


def _import_seconds() -> tuple:
    """(seconds for `import bcd`, calibration sample) in a fresh process."""
    proc = _run_child([sys.executable, "-c", IMPORT_PROBE], _child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"import bcd failed: {proc.stderr.strip()}")
    seconds, took = proc.stdout.split()
    return float(seconds), float(took)


def _run_child(cmd, env):
    return subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT
    )


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _digestible(op):
    # A nested tuple in an op is a reference tree already given as its text.
    return tuple(x for x in op if not isinstance(x, tuple))


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
    }


def _git_sha():
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "bcd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
