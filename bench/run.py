"""coxlow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) in this process, from the root of
a checkout, against the coxlow sources in its ``src/``.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from the tracer.
"""

import time

# the speed reference builds its table on import, outside the set-up time
from clock import SpeedClock

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-cli", "battery-proof", "light-cli", "deep-walk")
# fresh set-ups measured in child processes, besides this process's own
SETUP_PROBES = 4
SETUP_PROBE_TIMEOUT_S = 60
# light-cli runs at least this many CLI calls, so that its p99 has at
# least ten samples beyond it
MIN_CALLS = {"light-cli": 1000}
CLOCK = SpeedClock()


def import_program():
    """Put the checkout's src/ first on sys.path and import coxlow from
    there, never from an installed copy."""
    package = ROOT / "src" / "coxlow"
    if not (package / "__init__.py").is_file():
        raise SystemExit("error: %s not found; run from a coxlow checkout"
                         % package)
    sys.path.insert(0, str(ROOT / "src"))
    import coxlow
    if Path(coxlow.__file__).resolve().parent != package.resolve():
        raise SystemExit("error: imported coxlow from %s, not %s"
                         % (coxlow.__file__, package))


class JobFailed:
    """Stands for the answer of a job that raised."""

    def __init__(self, exc):
        self.error = "%s: %s" % (type(exc).__name__, exc)

    def __repr__(self):
        return "<job raised %s>" % self.error


class Tally:
    """Counts checks.  A failed check is a known defect when it fails
    exactly as recorded in expected.KNOWN_DEFECTS; it still counts as
    failed, but only other failures make the run incorrect."""

    def __init__(self, known_defects):
        self.known = known_defects
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known_seen = set()

    def check(self, jobs, answers):
        for job, answer in zip(jobs, answers):
            for check in job.checks:
                self.attempted += 1
                if isinstance(answer, JobFailed):
                    observed, expected = answer, "an answer"
                else:
                    try:
                        observed, expected = check.compare(answer)
                    except Exception as exc:  # a malformed answer
                        observed, expected = JobFailed(exc), "a parsable answer"
                if observed == expected:
                    continue
                self.failed += 1
                key = (job.label, check.label)
                if key in self.known and self.known[key] == observed:
                    self.known_seen.add(key)
                else:
                    self.unexpected.append("%s / %s [%s]: got %r, expected %r"
                                           % (job.label, check.label,
                                              check.source, observed, expected))


def run_pass(jobs):
    """Run every job once; returns ([(start, end)] per job, answers)."""
    answers = []
    spans = []
    for job in jobs:
        start = time.perf_counter()
        try:
            answer = job.run()
        except (Exception, SystemExit) as exc:
            answer = JobFailed(exc)
        spans.append((start, time.perf_counter()))
        answers.append(answer)
    return spans, answers


def run_passes(jobs, seconds, min_calls, tally, tracer=None):
    """Passes until their wall time adds up to ``seconds`` and ``min_calls``
    jobs ran; each pass's answers are checked after it, untimed and
    untraced.  Returns each pass's [(start, end)] per job."""
    passes = []
    timed = 0.0
    while not passes or timed < seconds or len(passes) * len(jobs) < min_calls:
        if tracer is not None:
            tracer.install()
        try:
            spans, answers = run_pass(jobs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        tally.check(jobs, answers)
        passes.append(spans)
        timed += spans[-1][1] - spans[0][0]
    return passes


def calibrated(passes):
    """Per pass: (wall seconds, [job seconds]) at the machine's nominal
    speed.  A pass's wall time is the sum of its jobs' times."""
    out = []
    for spans in passes:
        latencies = [CLOCK.calibrated(a, b) for a, b in spans]
        out.append((sum(latencies), latencies))
    return out


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def probe_setup(args):
    """Set-up time of a fresh process running this workload's set-up,
    calibrated as in that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def end_to_end(passes, setups, tally):
    latencies = [lat for _, lats in passes for lat in lats]
    return {
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted,
                      "ratio"),
        "call_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "call_p99_ms": (percentile(latencies, 99) * 1000, "ms"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds per run (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit (used for the "
                             "repeated set-up measurement)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from expected import KNOWN_DEFECTS
    from workloads import WORKLOADS as BUILDERS

    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = BUILDERS[args.workload](ROOT, workdir, args.seed)
    setup_end = time.perf_counter()
    if args.setup_only:
        CLOCK.stop()
        print(repr(CLOCK.calibrated(PROCESS_START, setup_end)))
        return 0

    tally = Tally(KNOWN_DEFECTS)
    min_calls = MIN_CALLS.get(args.workload, 0)
    untraced = run_passes(jobs, args.seconds, min_calls, tally)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        CLOCK.on_sample = tracer.record_sample
        traced = run_passes(jobs, args.seconds, 0, tally, tracer)
        CLOCK.stop()
        untraced_walls = [w for w, _ in calibrated(untraced)]
        traced_walls = [w for w, _ in calibrated(traced)]
        metrics = tracer.metrics(len(traced), traced_walls, untraced_walls)
        tracer.write(workdir / "trace.tsv")
        print("passes: %d untraced (median %.4f s), %d traced (median %.4f s);"
              " spans written to %s"
              % (len(untraced), statistics.median(untraced_walls), len(traced),
                 statistics.median(traced_walls), workdir / "trace.tsv"))
    else:
        CLOCK.stop()
        setups = [CLOCK.calibrated(PROCESS_START, setup_end)]
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in end_to_end(calibrated(untraced), setups, tally).items()}
        print("passes: %d, job calls: %d, set-ups: %d; median wall %.4f s "
              "uncalibrated, machine speed factor %.3f"
              % (len(untraced), len(untraced) * len(jobs), len(setups),
                 statistics.median(spans[-1][1] - spans[0][0]
                                   for spans in untraced),
                 CLOCK.speed(untraced[0][0][0], untraced[-1][-1][1])))

    for name, m in metrics.items():
        print("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print("checks: %d attempted, %d failed (fail_frac %.6f), %d known defects"
          % (tally.attempted, tally.failed, tally.failed / tally.attempted,
             len(tally.known_seen)))
    for line in tally.unexpected[:20]:
        print("FAILED " + line)
    print(json.dumps({"correct": not tally.unexpected,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    CLOCK.start()
    sys.exit(main())
