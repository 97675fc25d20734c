"""One workload of the cubedist benchmark, run in a fresh process.

    python3 perfbench/workload.py --workload W --seed N --seconds S --trace 0|1

Modes (run.py starts each of them):
  default          build the inputs, run the timed phases (trace 0) or the
                   fixed traced job (trace 1), print one JSON line;
  --setup-only     build the inputs, print the monotonic time at which the
                   first timed call could start, the host speed while
                   setting up and the time spent in calibration snippets,
                   exit.

The program is imported from src/ of the checkout this file sits in, and
sees only the public calls listed in Kit and run_search below. Every
output is checked against inputs.py's references; a mismatch counts into
"failed". Timed phases run under a calib.Calibrator, so their metrics are
in reference seconds; the raw values are returned beside them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

import calib
import inputs

ROOT = os.path.dirname(inputs.HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("search", "identities", "trees", "negtype")

# Shares of --seconds given to each timed phase of search; the other
# workloads have one phase, which gets all of it.
SEARCH_SERIAL_SHARE, SEARCH_PAR_SHARE, SEARCH_PROBE_SHARE = 0.65, 0.22, 0.08

# The fixed job behind wall_s and the traced run: the first JOB_ITEMS
# items of the stream (search: one exhaustive slice plus JOB_ITEMS probes).
JOB_ITEMS = {"search": 2000, "identities": 16000, "trees": 32000, "negtype": 8000}
# item_us.p99 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000

clock = time.perf_counter


def import_cubedist():
    init = os.path.join(SRC, "cubedist", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} is missing; run from the root of a cubedist checkout")
    sys.path.insert(0, SRC)
    import cubedist
    import cubedist.verify  # noqa: F401  (not imported by the package itself)

    if os.path.abspath(cubedist.__file__) != init:
        raise SystemExit(f"perfbench: imported cubedist from {cubedist.__file__}, not {init}")
    return cubedist


def worker_count() -> int:
    """Workers of search's parallel phase: never more than the CPUs there are."""
    return max(1, min(2, os.cpu_count() or 1, len(os.sched_getaffinity(0))))


class Kit:
    """The public calls one item makes, with their untimed preparation."""

    def __init__(self, workload: str, cd):
        self.cd = cd
        self.prepare, self.call = {
            "identities": (self._prep_identities, self._call_identities),
            "trees": (self._prep_trees, self._call_trees),
            "negtype": (self._prep_negtype, self._call_negtype),
        }[workload]

    def _prep_identities(self, item):
        n, tail, _ = item
        return tail, n, self.cd.verify.SweepReport("bench")

    def _call_identities(self, tail, n, report):
        self.cd.verify.check_point_set(tail, n, report)
        return report

    def _prep_trees(self, item):
        k, seq, deep = item
        return seq, k, deep, self.cd.verify.SweepReport("bench")

    def _call_trees(self, seq, k, deep, report):
        tree = self.cd.trees.prufer_to_tree(seq, k)
        self.cd.verify.check_tree(tree, report, deep=deep)
        return tree, report

    def _prep_negtype(self, item):
        n, pts, _ = item
        return (self.cd.cube.PointSet.from_bits(n, pts),)

    def _call_negtype(self, s):
        return self.cd.negtype.murugan_classify(s)


class Timings:
    """Raw (start, end) clock readings of each timed call."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")

    def add(self, t0: float, t1: float) -> None:
        self.start.append(t0)
        self.end.append(t1)

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, cal=None) -> list[float]:
        """Per-call seconds: reference seconds under a Calibrator, else raw."""
        if cal is None:
            return [b - a for a, b in zip(self.start, self.end)]
        return [cal.reference_time(a, b) for a, b in zip(self.start, self.end)]


def item_loop(stream, kit, indices, stop, min_items: int, tracer=None):
    """Run items in order until `stop(now)` holds and min_items are done.

    Only the public calls are inside the clock; each output is checked
    after its call. Returns (Timings, failures).
    """
    times = Timings()
    failed = 0
    for i in indices:
        item = stream[i]
        args = kit.prepare(item)
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        out = kit.call(*args)
        t1 = clock()
        times.add(t0, t1)
        if not stream.check(item, out):
            failed += 1
        if len(times) >= min_items and stop(t1):
            break
    return times, failed


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def rounds(fn, check, budget: float):
    """Repeat fn while another round is expected to fit in the budget."""
    times = Timings()
    failed = 0
    start = clock()
    while True:
        t0 = clock()
        out = fn()
        t1 = clock()
        times.add(t0, t1)
        if not check(out):
            failed += 1
        if 2 * t1 - t0 - start > budget:
            return times, failed


def latency_us(lat: list[float]) -> tuple[float, float]:
    """(p50, p99) in microseconds. p99 goes to the environment block, not
    to the gated metrics: its spread between runs is too wide for a bound
    (see README.md)."""
    lat = sorted(lat)
    return percentile(lat, 0.50) * 1e6, percentile(lat, 0.99) * 1e6


# ---------------------------------------------------------------- search


def search_slice(cd, workers: int):
    return cd.search.min_dinv_ones(inputs.SEARCH_N, inputs.SEARCH_M, workers=workers)


def probe_loop(cd, base: int, stop, min_items: int, tracer=None):
    """Single-trial random_probe calls, each checked against an untimed
    rerun with the same seed. Returns (Timings, failures, independent)."""
    times = Timings()
    failed = 0
    independent = 0
    floor = 2 / inputs.PROBE_N
    i = 0
    while True:
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        res = cd.search.random_probe(inputs.PROBE_N, inputs.PROBE_M, 1, base + i)
        t1 = clock()
        times.add(t0, t1)
        rerun = cd.search.random_probe(inputs.PROBE_N, inputs.PROBE_M, 1, base + i)
        independent += res.independent_count
        ok = (
            res.to_json() == rerun.to_json()
            and res.sets_examined == 1
            and not res.violations
            and (res.min_value is None or res.min_value >= floor)
        )
        failed += not ok
        i += 1
        if i >= min_items and stop(t1):
            return times, failed, independent


def run_search(cd, ref, seed: int, seconds: float) -> dict:
    workers = worker_count()
    expect = ref["search_json"]
    total = json.loads(expect)["sets_examined"]

    def same(res):
        return res.to_json() == expect

    # The parallel slices run without the timer: a snippet in this process
    # would compete with the pool's workers for the CPUs. They are scaled by
    # the host speed measured in the phases just before and after them.
    with calib.Calibrator() as cal:
        serial, f1 = rounds(lambda: search_slice(cd, 1), same, SEARCH_SERIAL_SHARE * seconds)
    par, f2 = rounds(lambda: search_slice(cd, workers), same, SEARCH_PAR_SHARE * seconds)
    with calib.Calibrator() as cal_probe:
        deadline = clock() + SEARCH_PROBE_SHARE * seconds
        probes, f3, _ = probe_loop(
            cd, inputs.probe_seed_base(seed), lambda t: t >= deadline, MIN_LATENCY_SAMPLES
        )
    par_speed = (cal.speed() + cal_probe.speed()) / 2

    def metrics(c, cp):
        slices = serial.durations(c)
        return {
            "wall_s": (statistics.median(slices), "s"),
            "items_per_s": (total * len(slices) / math.fsum(slices), "1/s"),
            "item_us.p50": (latency_us(probes.durations(cp))[0], "us"),
        }

    par_raw_s = math.fsum(par.durations())
    return {
        "metrics": metrics(cal, cal_probe),
        "raw": metrics(None, None),
        "attempted": len(serial) + len(par) + len(probes),
        "failed": f1 + f2 + f3,
        "counts": {
            "workers": workers,
            "host_speed": cal.speed(),
            "serial_slices": len(serial),
            "par_slices": len(par),
            "subsets_per_slice": total,
            "probes": len(probes),
            "latency_samples": len(probes),
            "item_us.p99": latency_us(probes.durations(cal_probe))[1],
            "items_per_s.par": total * len(par) / (par_raw_s * par_speed),
            "items_per_s.par_raw": total * len(par) / par_raw_s,
        },
    }


# ------------------------------------------------------------ item workloads


def run_items(cd, workload: str, seconds: float, stream) -> dict:
    kit = Kit(workload, cd)
    job = JOB_ITEMS[workload]
    deadline = clock() + seconds
    with calib.Calibrator() as cal:
        times, failed = item_loop(
            stream, kit, itertools.count(), lambda t: t >= deadline, max(job, MIN_LATENCY_SAMPLES)
        )

    def metrics(c):
        lat = times.durations(c)
        return {
            "wall_s": (math.fsum(lat[:job]), "s"),
            "items_per_s": (len(lat) / math.fsum(lat), "1/s"),
            "item_us.p50": (latency_us(lat)[0], "us"),
        }

    return {
        "metrics": metrics(cal),
        "raw": metrics(None),
        "attempted": len(times),
        "failed": failed,
        "counts": {
            "host_speed": cal.speed(),
            "job_items": job,
            "items": len(times),
            "latency_samples": len(times),
            "item_us.p99": latency_us(times.durations(cal))[1],
        },
    }


# ------------------------------------------------------------------- traced


def traced_job(cd, workload: str, seed: int, stream, tracer=None):
    """The fixed job in raw seconds; returns (seconds, failed, attempted,
    (independent, examined) over the search calls)."""
    n = JOB_ITEMS[workload]
    if workload == "search":
        if tracer is not None:
            tracer.item = -1
        t0 = clock()
        res = search_slice(cd, 1)
        slice_s = clock() - t0
        failed = res.to_json() != inputs.load_reference()["search_json"]
        probes, f2, independent = probe_loop(
            cd, inputs.probe_seed_base(seed), lambda t: True, n, tracer
        )
        found = (res.independent_count + independent, res.sets_examined + len(probes))
        return slice_s + math.fsum(probes.durations()), failed + f2, 1 + len(probes), found
    times, failed = item_loop(stream, Kit(workload, cd), range(n), lambda t: True, n, tracer)
    return math.fsum(times.durations()), failed, len(times), (0, 0)


def run_traced(cd, workload: str, seed: int, stream) -> dict:
    """Untraced job, traced job, untraced job again; the overhead is the
    traced time minus the mean of the two untraced times. Each job's time
    is scaled to reference seconds by the host speed measured just before
    and just after it; spans stay in raw seconds."""
    import tracer as tracing

    def job(tr=None):
        before = calib.host_factor()
        raw_s, failed, attempted, found = traced_job(cd, workload, seed, stream, tr)
        return raw_s * (before + calib.host_factor()) / 2, raw_s, failed, attempted, found

    before_s, raw_before_s, f0, a0, _ = job()
    tr = tracing.Tracer()
    tr.install(cd)
    try:
        traced_s, raw_traced_s, f1, a1, (independent, examined) = job(tr)
    finally:
        tr.uninstall()
    after_s, raw_after_s, f2, a2, _ = job()
    untraced_s = (before_s + after_s) / 2
    tr.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"))
    metrics = {}
    stats = tr.per_name()
    for name, (calls, self_s, incl_s) in stats.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.us_per_call"] = (incl_s / calls * 1e6 if calls else 0.0, "us")
    rank_checks = stats["cube.rank_of_bits"][0]
    det_calls = stats["ratlinalg.det_int.small"][0] + stats["ratlinalg.det_int.large"][0]
    classified = stats["negtype.murugan_classify"][0]
    fallbacks = tr.count_under("cube.rank_of_bits", "ratlinalg.rank_int")
    metrics["cube.rank_of_bits.int_fallback_ratio"] = (
        fallbacks / rank_checks if rank_checks else 0.0, "ratio"
    )
    metrics["search.independent_ratio"] = (independent / examined if examined else 0.0, "ratio")
    metrics["ratlinalg.det_int.k_mean"] = (tr.det_k_sum / det_calls if det_calls else 0.0, "count")
    metrics["negtype.slogdet.per_set"] = (
        stats["negtype.slogdet"][0] / classified if classified else 0.0, "count"
    )
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return {
        "metrics": metrics,
        "attempted": a0 + a1 + a2,
        "failed": f0 + f1 + f2,
        "counts": {
            "job_items": JOB_ITEMS[workload],
            "spans": len(tr.name),
            "rank_checks": rank_checks,
            "int_rank_fallbacks": fallbacks,
            "det_int_calls": det_calls,
            "sets_examined": examined,
            "independent": independent,
            "sets_classified": classified,
            "untraced_s_before": before_s,
            "untraced_s_after": after_s,
            "raw_untraced_s_before": raw_before_s,
            "raw_traced_s": raw_traced_s,
            "raw_untraced_s_after": raw_after_s,
        },
    }


# --------------------------------------------------------------------- main


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_sha256": inputs.digest(sorted(
            (name, open(os.path.join(SRC, "cubedist", name), "rb").read())
            for name in os.listdir(os.path.join(SRC, "cubedist"))
            if name.endswith(".py")
        )),
        "reference_commit": inputs.load_reference()["commit"],
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Set-up runs under a Calibrator too, so run.py can give setup_s in
    # reference seconds. The median speed is used rather than per-stretch
    # factors: over a few hundred milliseconds one preempted snippet would
    # otherwise weigh too much.
    with calib.Calibrator() as setup_cal:
        cd = import_cubedist()
        stream = None if args.workload == "search" else inputs.STREAMS[args.workload](args.seed)
        ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({
            "ready": ready, "speed": setup_cal.speed(), "snippet_s": setup_cal.snippet_seconds()
        }))
        return 0
    ref = inputs.load_reference()
    if stream is not None:
        stream.attach(ref)
    if args.trace:
        result = run_traced(cd, args.workload, args.seed, stream)
    elif args.workload == "search":
        result = run_search(cd, ref, args.seed, args.seconds)
    else:
        result = run_items(cd, args.workload, args.seconds, stream)
    if not args.trace:
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        result["metrics"]["peak_rss_mb"] = result["raw"]["peak_rss_mb"] = rss
    result["ready"] = ready
    result["environment"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
