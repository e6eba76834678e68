"""One benchmark process: set-up, then timed rounds, then checks.

Started by run.py in a fresh interpreter. It imports fppslab from the
checkout's src/ (nothing is installed), runs the workload's warm-up job and
prints READY with its monotonic clock, which ends set-up. With --setup-only
it stops there.
Otherwise it runs whole rounds of the workload's CLI jobs through
``fppslab.cli.main`` in process, one job at a time, while another round
(as long as the last one) still ends within --seconds and keeps the run
under 40 jobs; then it checks every output and prints one JSON line.

Between rounds, untimed, it hashes each output and reruns one job of the
round to compare bytes. A workload may add untimed jobs whose outputs only
feed the checks. With --trace 1 the even rounds run under the tracer and
the odd rounds without it; the gap between the two rates is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_JOBS = 39   # a run holds fewer than 40 jobs, so it reports no tail

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(main, argv: list[str]) -> tuple[int, float]:
    """One CLI job: (exit code, wall seconds). Its summary line on stdout is
    swallowed; an exception that escapes main counts as exit code 1."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
        return rc, time.perf_counter() - t0


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "fppslab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _check(workload: str, outputs, first_round_jobs) -> list[str]:
    import checks

    if workload == "slab-exact":
        from fppslab.bounds import bound_report

        return checks.check_slab_exact(outputs, bound_report(5, checks.A).ub1)
    if workload == "eden-highd":
        from fppslab.eden import sample_slab_crossing
        from oracle import replicate_seed

        errs = checks.check_eden_highd(outputs)
        job = next(j for j in first_round_jobs if j.label == "eden-d50")
        for rep in range(2):
            try:
                sample_slab_crossing(50, checks.A, replicate_seed(job.seed, 50, rep),
                                     validate=True)
            except Exception as exc:  # any error here is a failed check
                errs.append(f"validate=True rerun of d 50 rep {rep}: {exc!r}")
        return errs
    return checks.check_probe_highd(outputs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import fppslab
    from fppslab import cli

    if Path(fppslab.__file__).resolve().parent != SRC / "fppslab":
        raise SystemExit(f"fppslab imported from {fppslab.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    out = Path(args.out_dir)
    rc, _ = _run_cli(cli.main, [*workload.warmup, "--out", str(out / "warmup.csv")])
    if rc != 0:
        raise SystemExit(f"warm-up job exited {rc}")
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    def run(job, path: Path, traced: bool = False) -> tuple[int, float]:
        if not traced:
            return _run_cli(cli.main, [*job.argv, "--out", str(path)])
        tracer.install()
        try:
            rc, secs = _run_cli(lambda a: tracer.job(cli.main, a),
                                [*job.argv, "--out", str(path)])
        finally:
            tracer.remove()
        if rc == 0:
            tracer.bytes_out += path.stat().st_size
        return rc, secs

    records = []        # one dict per timed job
    errors = []         # reruns whose bytes differ, check jobs that failed
    rounds = 0
    start = time.perf_counter()
    last = 0.0          # wall seconds of the previous round, rerun included
    while True:
        jobs = workload.jobs(args.seed, rounds)
        began = time.perf_counter()
        if rounds >= (2 if tracer else 1) and (
                began - start + last > args.seconds
                or len(records) + len(jobs) > MAX_JOBS):
            break
        traced = tracer is not None and rounds % 2 == 0
        for i, job in enumerate(jobs):
            path = out / f"r{rounds}-j{i}.csv"
            rc, secs = run(job, path, traced)
            records.append({"round": rounds, "index": i, "job": job, "path": path, "rc": rc,
                            "seconds": secs, "traced": traced,
                            "sha256": _sha256(path) if rc == 0 else None})
        again = records[-len(jobs) + rounds % len(jobs)]
        if again["rc"] == 0:
            path = out / f"r{rounds}-rerun.csv"
            run(again["job"], path)
            if not path.exists() or _sha256(path) != again["sha256"]:
                errors.append(f"round {rounds} {again['job'].label}: rerun bytes differ")
        rounds += 1
        last = time.perf_counter() - began

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    checked = time.perf_counter()
    outputs = [(r["job"], r["round"], r["path"].read_text()) for r in records if r["rc"] == 0]
    for i, job in enumerate(workload.check_jobs(args.seed)):
        # untimed, but traced, so the layers it runs are still measured
        path = out / f"check-j{i}.csv"
        rc, _ = run(job, path, tracer is not None)
        if rc != 0:
            errors.append(f"untimed check job {job.label} exited {rc}")
        else:
            outputs.append((job, "check", path.read_text()))
    errors += _check(args.workload, outputs, workload.jobs(args.seed, 0))
    checked = time.perf_counter() - checked

    def rate(rs) -> float:
        return sum(r["job"].replicates for r in rs) / sum(r["seconds"] for r in rs)

    plain = [r for r in records if not r["traced"] and r["rc"] == 0]
    result = {
        "attempted": len(records),
        "failed": sum(r["rc"] != 0 for r in records),
        "errors": errors,
        "rounds": rounds,
        "check_s": checked,
        "reps_per_s": rate(plain),
        "job_p50_ms": statistics.median(r["seconds"] for r in plain) * 1e3,
        "peak_rss_mb": usage / 1024,
        "job_ms": {label: statistics.median(r["seconds"] * 1e3 for r in plain
                                            if r["job"].label == label)
                   for label in dict.fromkeys(r["job"].label for r in plain)},
        "digests": [[r["round"], r["index"], r["job"].label, r["sha256"]] for r in records],
        "provenance": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "nproc": os.cpu_count(),
            "fppslab_sources_sha256": _source_digest(),
        },
    }
    if tracer:
        traced_ok = [r for r in records if r["traced"] and r["rc"] == 0]
        overhead = (1 - rate(traced_ok) / rate(plain)) * 100
        result["per_layer"] = {k: list(v) for k, v in tracer.metrics(overhead).items()}
        result["absent"] = tracer.absent
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
