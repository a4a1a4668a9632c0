"""Benchmark of the flagcka command line, run in process.

    python3 bench/run.py --workload {sim_table,sim_collapse,certify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from `src/`.
One client in one thread calls `flagcka.cli.main([...])` in a closed loop:
the next invocation starts when the previous one has returned. The run is
a whole number of passes over the workload's cases (see workloads.py):
as many as fit in `--seconds`, and at least one. Every invocation's
outputs are checked.

With `--trace 0` the run reports the end-to-end metrics, measured with
tracing off; invocation times are corrected for the host's speed (see
HostSpeed). With `--trace 1` it alternates plain and traced passes of the
same invocations, runs the first simulate case once more under
tracemalloc, and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it give the same numbers by their names, with the
machine facts.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every matrix is at most 128x128, so BLAS threads only add contention.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
# Fresh-interpreter imports behind setup_s, spread over the timed passes.
IMPORT_SAMPLES = 21
# Reference loops each importing interpreter runs after the import, to
# correct its import time for the host's speed (see HostSpeed).
IMPORT_LOOPS = 20
IMPORT_SNIPPET = (
    "import time\nt = time.perf_counter()\nimport flagcka.cli\nt = time.perf_counter() - t\n"
    "import sys\nsys.path.insert(0, sys.argv[1])\nfrom run import IMPORT_LOOPS, reference_seconds\n"
    "print(repr(t), repr(sum(reference_seconds() for _ in range(IMPORT_LOOPS)) / IMPORT_LOOPS))"
)
# Iterations of the reference loop, fixed pure-Python work whose time
# follows the host's speed.
REFERENCE_LOOPS = 10_000
# Its time on the baseline machine when the host is not slowed (about its
# fastest there), so corrected times read as seconds on an unslowed host.
REFERENCE_S = 0.00072
# CPU seconds of the run between two reference loops: about 2% overhead.
REFERENCE_INTERVAL_S = 0.05
# Loops an invocation needs inside it to be corrected by their own mean.
MIN_OWN_SAMPLES = 10
WORK_UNITS = {"sim_table": "rounds", "sim_collapse": "rounds", "certify": "strategies"}
# Per-layer fields that come straight from the span summary.
SPAN_FIELDS = ("calls", "s", "self_s")


def metric_units(kind: str) -> dict:
    """Name -> unit of the 'end_to_end' or 'per_layer' metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_seconds() -> float:
    """Seconds from `import flagcka.cli` to its return, in a fresh interpreter,
    at the reference speed: scaled by REFERENCE_S / (mean time of the
    reference loops the same interpreter runs right after the import)."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, str(Path(__file__).resolve().parent)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, loop = map(float, out.stdout.split())
    return seconds * REFERENCE_S / loop


def reference_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host's speed all through a run, to correct its times.

    On a shared host, each vCPU of a small VM can be slowed from outside by
    up to about 1.5x. The slow and fast states switch within milliseconds,
    but the share of slow time drifts over seconds and minutes, so whole
    invocations and runs come out slow or fast. While active, a SIGPROF
    timer runs the reference loop every REFERENCE_INTERVAL_S of the
    process's CPU time, in the middle of invocations too, so the samples
    cover the same time as the invocations. A change to the program moves
    the invocation times but not the loop.
    """

    def __init__(self):
        self.ends: list[float] = []    # perf_counter() at the end of each loop
        self.times: list[float] = []   # each loop's seconds

    def _sample(self, signum, frame) -> None:
        self.times.append(reference_seconds())
        self.ends.append(time.perf_counter())

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def corrected(self, records: list[dict]) -> tuple[list[float], int]:
        """Each invocation's seconds at the reference speed, and how many
        invocations were corrected by their own loops.

        An invocation's seconds are scaled by REFERENCE_S / (mean time of
        the loops inside it) when it holds MIN_OWN_SAMPLES of them, else by
        the mean over the whole run: a quick invocation holds few or none.
        """
        run_mean = statistics.fmean(self.times) if self.times else REFERENCE_S
        out, own_count = [], 0
        for r in records:
            lo = bisect.bisect_left(self.ends, r["start"])
            hi = bisect.bisect_right(self.ends, r["start"] + r["seconds"])
            own = hi - lo >= MIN_OWN_SAMPLES
            own_count += own
            out.append(r["seconds"] * REFERENCE_S / (statistics.fmean(self.times[lo:hi]) if own else run_mean))
        return out, own_count


class SetupSampler:
    """Takes the setup_s samples spread evenly over the timed passes.

    The host's speed can change for seconds at a time, so samples taken back
    to back often all land in one speed state. `catch_up` is called between
    invocations and takes as many samples as are due by the share of
    `seconds` gone; `finish` takes the rest. One unrecorded import first
    writes the bytecode cache, which users pay once per install and not per
    command.
    """

    def __init__(self, samples: int, seconds: float):
        import_seconds()
        self.samples, self.seconds = samples, seconds
        self.times: list[float] = []
        self.start = time.perf_counter()

    def catch_up(self) -> None:
        if self.seconds > 0:
            share = (time.perf_counter() - self.start) / self.seconds
            self._take(min(self.samples, int(self.samples * share)))

    def finish(self) -> list[float]:
        self._take(self.samples)
        return self.times

    def _take(self, due: int) -> None:
        while len(self.times) < due:
            self.times.append(import_seconds())


class Runner:
    """Runs passes of one workload through the CLI and checks every output."""

    def __init__(self, workload: str, seed: int, workdir: Path, size: int | None = None):
        import workloads

        from flagcka import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.cases = workloads.build(workload, workdir, size)
        self.records: list[dict] = []
        self.tracer = None   # when set, told the op index before each invocation

    def invoke(self, case, pass_index: int, case_index: int) -> dict:
        import workloads

        for stale in ("out.json", "transcript.jsonl"):
            (self.workdir / stale).unlink(missing_ok=True)
        shutil.rmtree(self.workdir / "keys", ignore_errors=True)
        argv = workloads.argv_for(case, workloads.case_seed(self.seed, pass_index, case_index), self.workdir)
        if self.tracer:
            self.tracer.op = len(self.records)   # the op index of this invocation's record
        code, problems = None, []
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                finally:
                    seconds = time.perf_counter() - t0
        except SystemExit as exc:
            code = exc.code
        except Exception:
            problems = ["raised: " + traceback.format_exc(limit=3)]
        facts = {}
        if not problems:
            problems, facts = workloads.check(case, code, self.workdir)
        record = {
            "op": len(self.records),
            "case": case.name,
            "pass": pass_index,
            "start": t0,
            "seconds": seconds,
            "work": case.work,
            "problems": problems,
            "tolerated": workloads.tolerated(case, problems),
            **facts,
        }
        if case.command == "simulate":
            transcript = self.workdir / "transcript.jsonl"
            record["transcript_bytes"] = transcript.stat().st_size if transcript.exists() else 0
        self.records.append(record)
        return record

    def run_pass(self, pass_index: int, between=None) -> list[dict]:
        """Every case once; `between()` is called after each invocation."""
        records = []
        for i, case in enumerate(self.cases):
            records.append(self.invoke(case, pass_index, i))
            if between:
                between()
        return records


def timed_passes(seconds: float, one_pass) -> None:
    """Call one_pass(p) for p = 0, 1, ... while the next pass, at the mean
    pass time so far, would end within `seconds`. The first pass always runs.
    """
    start = time.perf_counter()
    p = 0
    while True:
        one_pass(p)
        p += 1
        elapsed = time.perf_counter() - start
        if elapsed * (p + 1) / p > seconds:
            return


def end_to_end(records: list[dict], setup_times: list[float], seconds: list[float]) -> dict:
    """The end-to-end metrics, from `seconds`: the invocations' times, in
    the order of `records`.

    Totals and per-case means, not medians of single invocations: a quick
    invocation is corrected by the run's mean host speed, which only the
    mean over many of them matches.
    """
    by_case = {}
    for r, s in zip(records, seconds):
        by_case.setdefault(r["case"], []).append(s)
    return {
        "setup_s": statistics.median(setup_times),
        "work_per_s": sum(r["work"] for r in records) / sum(seconds),
        "op_s.mean": statistics.median(statistics.fmean(v) for v in by_case.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, plain: list[dict], traced: list[dict], tracer, peak_mb: float, names) -> tuple[dict, list[str]]:
    """The per-layer metrics in `names` that the trace can give, and notes on them.

    'M.F.calls', 'M.F.s' and 'M.F.self_s' come from the span summary, per
    pass; a function that is gone from the package gives no metric.
    """
    from tracer import summarise

    n_passes = len({r["pass"] for r in traced})
    summary = summarise(tracer.spans)
    sims = [r for r in traced if "transcript_bytes" in r]
    derived = {}
    if "protocol.run_rounds" in tracer.names:
        self_s = summary.get("protocol.run_rounds", {}).get("self_s", 0.0)
        derived["protocol.run_rounds.rounds_per_s"] = sum(r["work"] for r in sims) / self_s if self_s else 0.0
        derived["protocol.run_rounds.peak_mb"] = peak_mb
    if "protocol.transcript_to_jsonl" in tracer.names:
        derived["protocol.transcript_to_jsonl.bytes"] = sum(r["transcript_bytes"] for r in sims) / n_passes
    done = [r for r in runner.records if "key_bits" in r]
    rounds_done = sum(r["rounds"] for r in done)
    derived["protocol.key_bits_per_round"] = sum(r["key_bits"] for r in done) / rounds_done if rounds_done else 0.0
    # Each traced invocation against the plain one of the same pass and case.
    plain_s = {(r["pass"], r["case"]): r["seconds"] for r in plain}
    ratios = [r["seconds"] / plain_s[r["pass"], r["case"]] for r in traced]
    derived["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    notes = []
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    if derived["trace.overhead_frac"] < 0 or q1 <= 1.0 <= q3:
        notes.append(f"trace.overhead_frac is within noise: traced/plain quartiles {q1:.4f}..{q3:.4f} over {len(ratios)} pairs")
    out = {}
    for name in names:
        span, field = name.rsplit(".", 1)
        if name in derived:
            out[name] = derived[name]
        elif field in SPAN_FIELDS and span in tracer.names:
            out[name] = summary.get(span, {}).get(field, 0) / n_passes
    return out, notes


def probe_run_rounds_peak(runner: Runner) -> float:
    """tracemalloc peak in MB inside protocol.run_rounds, on the first simulate case."""
    import functools
    import tracemalloc

    from tracer import public_functions, rebind, restore

    targets = public_functions("flagcka")
    original = targets.get("protocol.run_rounds")
    cases = [(i, c) for i, c in enumerate(runner.cases) if c.command == "simulate"]
    if original is None or not cases:
        return 0.0
    peaks = []

    @functools.wraps(original)
    def probe(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    undo = rebind("flagcka", {id(original): (original, probe)})
    tracemalloc.start()
    try:
        index, case = cases[0]
        runner.invoke(case, 0, index)
    finally:
        tracemalloc.stop()
        restore(undo)
    return max(peaks) / 2**20 if peaks else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None, import_samples: int = IMPORT_SAMPLES):
    """One benchmark run; returns (result object, report lines)."""
    from tracer import Tracer, nesting_problems

    kind = "per_layer" if trace else "end_to_end"
    units = metric_units(kind)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = base / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    notes: list[str] = []
    try:
        runner = Runner(workload, seed, workdir, size)
        plain: list[dict] = []
        if trace:
            # Plain and traced passes alternate, so drift in machine speed
            # falls on both sides of trace.overhead_frac alike.
            tracer = Tracer()
            traced: list[dict] = []

            def both(p):
                plain.extend(runner.run_pass(p))
                tracer.install("flagcka", extra=[("cli", "main")])
                runner.tracer = tracer
                try:
                    traced.extend(runner.run_pass(p))
                finally:
                    tracer.uninstall()
                    runner.tracer = None

            timed_passes(seconds, both)
            peak_mb = probe_run_rounds_peak(runner)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl")
            metrics, notes = per_layer(runner, plain, traced, tracer, peak_mb, units)
            # Each traced invocation is one tree of spans under cli.main.
            broken = nesting_problems(tracer.spans, "cli.main", [r["op"] for r in traced])
        else:
            sampler = SetupSampler(import_samples, seconds)
            with HostSpeed() as speed:
                timed_passes(seconds, lambda p: plain.extend(runner.run_pass(p, sampler.catch_up)))
            setup_times = sampler.finish()
            corrected, own = speed.corrected(plain)
            metrics = end_to_end(plain, setup_times, corrected)
            wall = end_to_end(plain, setup_times, [r["seconds"] for r in plain])
            notes.append(f"host speed: {len(speed.times)} reference loops, mean {statistics.fmean(speed.times or [0]):.4g} s "
                         f"(reference {REFERENCE_S} s), {own} of {len(plain)} invocations corrected by their own loops; "
                         f"uncorrected {WORK_UNITS[workload]}_per_s {wall['work_per_s']:.6g}, op_s.mean {wall['op_s.mean']:.6g} s")
            broken = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = runner.records
    failed = [r for r in records if r["problems"]]
    result = {
        "correct": not broken and all(r["tolerated"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    notes += [f"TRACE BROKEN: {problem}" for problem in broken[:10]]
    lines = report_lines(workload, seed, trace, runner, plain, metrics, units, failed) + ["  " + n for n in notes]
    return result, lines


def report_lines(workload, seed, trace, runner, plain, metrics, units, failed) -> list[str]:
    n_passes = len({r["pass"] for r in plain})
    records = runner.records
    lines = [
        "machine " + json.dumps(machine_facts()),
        f"workload {workload} seed {seed} trace {int(trace)}: {len(records)} invocations, "
        f"{n_passes} passes of {len(runner.cases)} cases",
    ]
    for name, unit in units.items():
        if name not in metrics:
            continue
        label, suffix = name, ""
        if name == "work_per_s":
            label, unit = f"{WORK_UNITS[workload]}_per_s", f"{WORK_UNITS[workload]}/s"
        elif name == "op_s.mean":
            suffix = f" over {len(plain)} invocations"
        lines.append(f"  {label} {metrics[name]:.6g} {unit}{suffix}")
    lines.append(f"  failed_ops_frac {len(failed) / len(records):.6g} ratio ({len(failed)} of {len(records)})")
    for r in failed:
        kind = "known defect" if r["tolerated"] else "FAILED"
        lines.append(f"  {kind}: {r['case']} pass {r['pass']}: {'; '.join(r['problems'])}")
    return lines


def prepare() -> bool:
    """Check for the sources, pin BLAS threads and put `src` on the path."""
    if not (SRC / "flagcka" / "cli.py").is_file():
        return False
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORK_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"bench: no flagcka sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 1
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
