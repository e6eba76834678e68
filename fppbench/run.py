"""fppslab benchmark: one run of one workload.

    python3 fppbench/run.py --workload slab-exact --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports fppslab from src/
and installs nothing. Each run starts fresh interpreters (worker.py): a
few that only set up, then one that also runs the timed rounds. Set-up is
the time from starting an interpreter to the end of its warm-up job, and
setup_s is the median over the run. The last line of stdout is the
result as JSON; the line before it carries provenance and the SHA-256 of
every job's output. With --trace 1 the result holds the per-layer metrics
instead of the end-to-end ones, and the spans go to fppbench/out/.

Exit status 0 means a result was printed (read "correct" in it); any
other status means the run could not produce one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5          # set-ups per run, the timed worker's included
DEADLINE_S = 170    # a run that takes longer is killed and fails


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, out_dir: str, deadline: float, *extra: str) -> tuple[float, list[str]]:
    """Run one worker; return (its set-up seconds, its stdout lines after READY).

    The worker prints its CLOCK_MONOTONIC reading when set-up ends, which
    is comparable with this process's reading before the start.
    """
    env = {k: v for k, v in os.environ.items() if k != "FPP_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir, *extra]
    started = time.monotonic()
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {DEADLINE_S} s of the run's start")
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise SystemExit(f"worker exited {out.returncode}")
    return float(lines[0].split()[1]) - started, lines[1:]


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fppslab" / "cli.py").is_file():
        print(f"no fppslab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out, prefix=f"{args.workload}-")
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        setups = [_worker(args, tmp, deadline, "--setup-only")[0] for _ in range(SETUPS - 1)]
        extra = ("--trace-file", str(trace_file)) if args.trace else ()
        secs, lines = _worker(args, tmp, deadline, *extra)
        setups.append(secs)
        if not lines:
            raise SystemExit("worker printed no result")
        res = json.loads(lines[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    provenance = dict(res["provenance"], git_rev=_git_rev(), workload=args.workload,
                      seed=args.seed, seconds=args.seconds, trace=args.trace,
                      rounds=res["rounds"], attempted=res["attempted"],
                      failed=res["failed"], setup_samples_s=setups,
                      job_median_ms=res["job_ms"], check_s=res["check_s"])
    if args.trace:
        provenance["absent"] = res["absent"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "reps_per_s": {"value": res["reps_per_s"], "unit": "1/s"},
            "job_p50_ms": {"value": res["job_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"provenance": provenance, "digests": res["digests"],
                      "errors": res["errors"]}))
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
