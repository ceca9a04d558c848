"""The flatribbon benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload (see ``workloads.py``) is a closed loop: one client in this one
process starts the next job only after the previous one has ended and its
output has been checked.  BLAS/OpenMP are pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Its job set
is the head of the seeded stream up to the ``PASSES``-th passing job, so the
jobs a run attempts, and the ones that fail, follow from the seed and the code
alone.  The run times that set in rounds until ``--seconds`` are used up: round
k runs every job of the set once more, on its inputs scaled by 1 + k
``JITTER`` (see ``workloads.job_stream``).  A job fails if it fails in any
round; its time is its median over the rounds.

Times of a timed run are reference seconds, measured by ``SpeedMeter``: a
core of a shared host can run the same code at two speeds about a factor of
two apart, switching every few seconds, so a wall time says as much about the
neighbours as about the program.  The meter samples the speed of a fixed
piece of work all through the run and scales each wall time to the speed at
which that work takes ``REFERENCE_S``.  ``jobs_per_s`` is passing jobs per
reference second of job time (failed jobs' time included), and ``setup_s``
the median reference time of ``SETUP_SAMPLES`` fresh-interpreter imports of
``flatribbon.cli`` spread over the run.  The process and the interpreters it
starts run on one CPU, the one the meter samples, under one hash seed
(``HASH_SEED``).

``--trace 1`` runs a fixed number of jobs of the same seeded stream twice,
untraced and then traced, in wall seconds, and reports the per-layer metrics
of BENCHMARK.json; the spans go to ``.perfbench_out/``.

Lines before the last describe the run: the environment, then for the jobs
the failed_ratio with failures by exit code or exception class, the median
and tail job times and every job's time, and the speeds the meter saw.  The
last line is the JSON result.
Self-test: ``python3 -m pytest perfbench``.
"""

import argparse
import contextlib
import importlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, namedtuple
from itertools import islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

HASH_SEED = "0"  # PYTHONHASHSEED of every run
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 7  # fresh-interpreter imports per run; setup_s is their median
# Passing jobs in the job set of a timed run; at FULL sizes one round of it
# takes 3-7 s on a 2-vCPU Xeon host.
PASSES = {"knot_energy": 3, "helix_q_family": 8, "samples_build": 2}
ATTEMPTS_PER_PASS = 10  # the job set ends after this many attempts per wanted pass
JITTER = 1e-9  # relative input scaling between rounds
SAMPLE_EVERY_S = 0.03  # period of the speed meter's reference samples
REFERENCE_STEPS = 10  # points per reference call
# Seconds of one `reference_work` call at the reference speed: about its time
# on the faster of the two speeds of a 2-vCPU Xeon host.
REFERENCE_S = 7.0e-4
# Jobs per traced run: fixed, so that call and byte counts repeat for a seed.
TRACE_JOBS = {"knot_energy": 2, "helix_q_family": 8, "samples_build": 3}
TAIL_BEYOND = 10  # job_s_tail is the highest percentile with this many jobs beyond it
STATS = ("calls", "self_s", "failed", "bytes", "unique_ratio")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_package():
    """Import flatribbon from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "flatribbon", "__init__.py")):
        raise SystemExit(f"perfbench: no flatribbon package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    package = importlib.import_module("flatribbon")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: flatribbon was imported from {package.__file__}, not {SRC}")


def environment():
    import numpy
    import scipy

    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "loadavg_at_start": os.getloadavg(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "processes": 1,
    }


def setup_seconds(meter):
    """Reference seconds of a fresh interpreter importing flatribbon.cli."""
    start = meter.reading()
    subprocess.run(
        [sys.executable, "-c", "import flatribbon.cli"], env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True
    )
    return meter.cost(start, meter.reading())


# ---- host speed -----------------------------------------------------------------


def reference_spline():
    import numpy as np
    from scipy.interpolate import CubicSpline

    xs = np.linspace(0.0, 1.0, 201)
    return CubicSpline(xs, np.column_stack([np.sin(3.0 * xs), np.cos(2.0 * xs), xs**2]))


def reference_work(spline):
    """A fixed bit of work like the package's per-t code: spline values, cross products, norms."""
    import numpy as np

    acc = 0.0
    for i in range(REFERENCE_STEPS):
        t = 0.05 * (i + 0.5)
        v, w = spline(t), spline(t, 1)
        acc += float(np.cross(v, w) @ v) / (1.0 + float(np.linalg.norm(w)))
    return acc


Reading = namedtuple("Reading", "wall spent samples")


class SpeedMeter:
    """The host's speed, sampled all through the timed part of a run.

    A core of a shared host can run the same code at two speeds a factor of
    about two apart, switching every few seconds, so wall times of the same
    work differ by up to 2x between runs and within one.  While the meter is
    on, a SIGALRM handler times one `reference_work` call every
    SAMPLE_EVERY_S seconds.  `cost` turns the wall time between two readings
    into reference seconds: the time the work would have taken at the speed
    at which `reference_work` takes REFERENCE_S, with the handler's own time
    taken out.
    """

    def __init__(self):
        self.spline = reference_spline()
        self.samples = []  # seconds of each reference call
        self.spent = 0.0  # seconds spent in the handler
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_work(self.spline)
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reading(self):
        return Reading(time.perf_counter(), self.spent, len(self.samples))

    def cost(self, begin, end):
        """Reference seconds of the work done between two readings."""
        wall = (end.wall - begin.wall) - (end.spent - begin.spent)
        taken = self.samples[begin.samples : end.samples] or self.samples[begin.samples - 1 : begin.samples]
        return wall * statistics.fmean(REFERENCE_S / sample for sample in taken)


# ---- jobs ---------------------------------------------------------------------


def run_job(job):
    from flatribbon.errors import FlatRibbonError
    from workloads import Outcome

    try:
        return job.run()
    except FlatRibbonError as exc:
        return Outcome(failure=type(exc).__name__, message=str(exc))
    except Exception as exc:  # a crash fails the job; the loop keeps measuring
        return Outcome(failure=f"uncaught {type(exc).__name__}", message=traceback.format_exc().strip().splitlines()[-1])


def execute(job, workdir, tracer=None, job_id=0, meter=None):
    """Prepare, time and check one job; returns (seconds, outcome).

    With a meter the seconds are reference seconds, else wall seconds.
    """
    os.makedirs(workdir)
    job.prepare(workdir)
    span = tracer.job(job_id) if tracer else contextlib.nullcontext()
    start = meter.reading() if meter else time.perf_counter()
    with span:
        outcome = run_job(job)
    seconds = meter.cost(start, meter.reading()) if meter else time.perf_counter() - start
    if outcome.failure is None:
        if tracer:
            tracer.paused = True
        try:
            ok, detail = job.check(outcome)
        finally:
            if tracer:
                tracer.paused = False
        if not ok:
            outcome.failure, outcome.message = "oracle", detail
    shutil.rmtree(workdir)
    return seconds, outcome


def summarize(records, rounds=1):
    passed = sorted(seconds for seconds, outcome in records if outcome.failure is None)
    failures = Counter(outcome.failure for _, outcome in records if outcome.failure)
    # messages with their numbers masked, so that one cause is one entry
    messages = Counter(re.sub(r"[-+.\deE]*\d", "#", o.message) for _, o in records if o.failure)
    n = len(passed)
    tail = None
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND
        tail = {"value_s": passed[k - 1], "percentile": 100.0 * k / n, "beyond": TAIL_BEYOND, "jobs": n}
    return {
        "attempted": len(records),
        "passed": n,
        "failed": sum(failures.values()),
        "oracle_failures": failures.get("oracle", 0),
        "failed_ratio": sum(failures.values()) / len(records),
        "failures": dict(failures),
        "failure_messages": dict(messages),
        "rounds": rounds,
        "busy_s": sum(seconds for seconds, _ in records),
        "job_s_p50": statistics.median(passed) if passed else None,
        "job_s_tail": tail,
        "job_s": [round(seconds, 4) for seconds, _ in records],
    }


def timed_run(workload, seed, seconds, sizes, passes, workdir, setup_samples):
    """The job set, timed in rounds until `seconds` are used up.

    Returns (records, rounds, setup times): one record per job of the set,
    (median reference seconds over the rounds, outcome), where the outcome is
    the first failing one, if any.  Fresh-interpreter imports are taken
    between rounds, outside the job timers.
    """
    import workloads

    start = time.perf_counter()
    with SpeedMeter() as meter:
        costs, outcomes = [], []
        for job in workloads.job_stream(workload, seed, sizes):
            job_s, outcome = execute(job, os.path.join(workdir, f"r0-{len(costs)}"), meter=meter)
            costs.append([job_s])
            outcomes.append(outcome)
            if sum(o.failure is None for o in outcomes) == passes or len(outcomes) == ATTEMPTS_PER_PASS * passes:
                break
        setup = [setup_seconds(meter)]
        rounds, longest = 1, time.perf_counter() - start
        while time.perf_counter() - start + longest <= seconds:
            begin = time.perf_counter()
            jobs = workloads.job_stream(workload, seed, sizes, jitter=rounds * JITTER)
            for index, job in enumerate(islice(jobs, len(costs))):
                job_s, outcome = execute(job, os.path.join(workdir, f"r{rounds}-{index}"), meter=meter)
                costs[index].append(job_s)
                if outcomes[index].failure is None:
                    outcomes[index] = outcome
            if len(setup) < setup_samples:
                setup.append(setup_seconds(meter))
            rounds += 1
            longest = max(longest, time.perf_counter() - begin)
        while len(setup) < setup_samples:
            setup.append(setup_seconds(meter))
    speeds = [REFERENCE_S / sample for sample in meter.samples]
    print("info speed " + json.dumps({"samples": len(speeds), "deciles": statistics.quantiles(speeds, n=10)}))
    print("info job_s_by_round " + json.dumps([[round(x, 4) for x in c] for c in costs]))
    return [(statistics.median(c), o) for c, o in zip(costs, outcomes)], rounds, setup


def traced_run(workload, seed, sizes, workdir, n_jobs):
    """The same n_jobs untraced and traced: (untraced records, traced records, tracer)."""
    import workloads
    from tracer import Tracer

    untraced = [
        execute(job, os.path.join(workdir, f"plain{index}"))
        for index, job in enumerate(islice(workloads.job_stream(workload, seed, sizes), n_jobs))
    ]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [
            execute(job, os.path.join(workdir, f"traced{index}"), tracer, index)
            for index, job in enumerate(islice(workloads.job_stream(workload, seed, sizes), n_jobs))
        ]
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


# ---- metrics ------------------------------------------------------------------


def end_to_end_values(summary, setup_s):
    # No per-job time is gated: a run's job set is a handful of jobs, whose
    # times are all in the `info jobs` line.
    return {
        "jobs_per_s": summary["passed"] / summary["busy_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def layer_values(spec_names, tracer, untraced, traced):
    from tracer import FIELD_EVAL, FUNCTIONS, JOB, METHODS, SAMPLED_EVAL

    known = {entry[0] for entry in FUNCTIONS + METHODS} | {FIELD_EVAL, SAMPLED_EVAL}
    stats = tracer.layer_stats()
    job = stats[JOB]
    values = {
        # traced / untraced jobs_per_s over the same jobs, which pass or fail alike
        "trace.overhead_ratio": untraced["busy_s"] / traced["busy_s"],
        "trace.unattributed_share": job["self_s"] / traced["busy_s"],
    }
    for name in spec_names:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        if layer not in known or stat not in STATS or (stat == "unique_ratio" and layer != "frames.scalars"):
            raise SystemExit(f"perfbench: BENCHMARK.json names an unknown per-layer metric {name}")
        if stat == "bytes":
            values[name] = tracer.bytes.get(layer, 0)
        elif stat == "unique_ratio":
            calls = stats[layer]["calls"]
            values[name] = tracer.scalars_unique() / calls if calls else 0.0
        else:
            values[name] = stats[layer][stat] if layer in stats else 0
    return values


def result_line(spec_metrics, values, summary, correct):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    return json.dumps(
        {"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"], "metrics": metrics}
    )


def measure(workload, seed, seconds, trace, sizes=None, setup_samples=SETUP_SAMPLES, trace_jobs=None):
    """Run one benchmark run; prints its description and returns the result line."""
    import workloads

    sizes = sizes or workloads.FULL
    spec = load_spec()
    print("info environment " + json.dumps(environment()))
    workdir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
    try:
        if not trace:
            records, rounds, setup = timed_run(workload, seed, seconds, sizes, PASSES[workload], workdir, setup_samples)
            summary = summarize(records, rounds)
            print("info jobs " + json.dumps(summary))
            print("info setup_s " + json.dumps([round(s, 4) for s in setup]))
            if not summary["passed"]:
                raise SystemExit("perfbench: no job passed; jobs_per_s is undefined")
            values = end_to_end_values(summary, statistics.median(setup))
            correct = summary["oracle_failures"] == 0
            metrics = spec["end_to_end"]
        else:
            n_jobs = trace_jobs or TRACE_JOBS[workload]
            untraced, traced, tracer = traced_run(workload, seed, sizes, workdir, n_jobs)
            plain, summary = summarize(untraced), summarize(traced)
            print("info untraced_jobs " + json.dumps(plain))
            print("info traced_jobs " + json.dumps(summary))
            failed_spans = Counter(f"{name}: {error}" for name, *_, error in tracer.spans if error)
            print("info failed_spans " + json.dumps(dict(failed_spans)))
            values = layer_values([m["name"] for m in spec["per_layer"]], tracer, plain, summary)
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"spans-{workload}-s{seed}.csv.gz")
            tracer.write(spans_path)
            print(f"info spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
            correct = plain["oracle_failures"] == 0 and summary["oracle_failures"] == 0
            metrics = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(f"info threads_at_end {threading.active_count()}")
    return result_line(metrics, values, summary, correct)


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The per-process hash seed moves the speed of the whole process: on a
        # 2-vCPU Xeon host, knot_energy ran at 0.74 jobs/s under hash seed 0
        # and 0.76 under 1, each within 1% over three runs.  Every run uses one
        # hash seed, so that runs differ only in what they measure.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(THREAD_PINS)  # before numpy is first imported, by the package
    # One CPU for this process and the interpreters it starts, so that the
    # speed meter samples the CPU that the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_package()
    print(measure(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
