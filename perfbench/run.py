"""cubedist benchmark: one command, one workload per fresh process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a cubedist checkout; it imports the package from
src/. Workloads: search, identities, trees, negtype (see README.md).

With --trace 0 it prints every end-to-end metric, one per line, then an
environment block, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 it runs the fixed
traced job instead and the metrics are the per-layer ones.

Timed phases are reported in reference seconds (see calib.py), which
cancels the drift of the host's CPU speed; the raw wall-clock values are
printed next to them and kept in the environment block.

setup_s is the median over SETUP_RUNS set-up-only processes of the time
from just before the process is started to the moment its first timed
call could begin (interpreter start, import cubedist, input generation),
less the time the process spent in calibration snippets. Each sample is
scaled to reference seconds by the median host speed that the set-up-only
process measured while it set up.

Exit status: 0 when every output matched its reference, 1 when some did
not (the result line is still printed), 2 when the benchmark could not
run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = os.path.join(HERE, "workload.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("search", "identities", "trees", "negtype")
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _run(cmd: list[str], timeout: float) -> tuple[float, str]:
    """Run cmd in its own process group; returns (start time, stdout).

    On timeout or failure the whole group is killed and waited for, so no
    process the workload started outlives it.
    """
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[1:])} did not finish within {timeout} s") from None
    finally:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with status {proc.returncode}")
    return start, out


def setup_sample(cmd: list[str]) -> tuple[float, float]:
    """(reference seconds, raw seconds) of one set-up-only process."""
    start, out = _run(cmd, SETUP_TIMEOUT_S)
    report = _last_json(out)
    raw = report["ready"] - start - report["snippet_s"]
    return raw * report["speed"], raw


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    init = os.path.join(ROOT, "src", "cubedist", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: {init} is missing; run from the root of a cubedist checkout", file=sys.stderr)
        return 2

    base = [sys.executable, WORKLOAD, "--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [setup_sample(base + ["--setup-only"]) for _ in range(SETUP_RUNS)]
        _, out = _run(
            base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], RUN_TIMEOUT_S
        )
        result = _last_json(out)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    raw = result.get("raw", {})
    if not args.trace:
        metrics["setup_s"] = (statistics.median(ref for ref, _ in setups), "s")
        raw["setup_s"] = (statistics.median(r for _, r in setups), "s")
        result["counts"]["setup_samples"] = len(setups)
    for name in sorted(metrics):
        value, unit = metrics[name]
        note = f"  (raw {raw[name][0]:.6g})" if name in raw else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{note}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    env = dict(
        result["environment"],
        workload=args.workload,
        trace=args.trace,
        counts=result["counts"],
        raw_metrics={name: value for name, (value, _) in raw.items()},
    )
    print(json.dumps({"environment": env}, sort_keys=True))

    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(final, environment=env), fh, indent=1, sort_keys=True)
    print(json.dumps(final, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
