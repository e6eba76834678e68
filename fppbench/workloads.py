"""The benchmark's workloads: the CLI jobs of one round, built from a seed.

Every argv is a pure function of (workload, workload seed, round, job
index), so a seed names one sequence of rounds and two commits given the
same seed run the same jobs. Only documented CLI flags appear; the jobs set
no --box-radius and no FPP_THREADS, so they keep working when those go.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# a quantile table with two atoms: x = 0.3 carries mass 0.3 (the flat
# stretch from y = 0.3 to 0.6) and x = 1.0 the mass 0.1 past the last node;
# its slope at 0 is 1, so the density at 0+ is a = 1
TABLE_POINTS = [[0.0, 0.0], [0.3, 0.3], [0.6, 0.3], [0.9, 1.0]]

# Job sizes. A round takes 2.5-4.5 s on a 2-core box. Most jobs of a round
# form one cluster of about the same length (all three slab jobs; the d = 50
# and d = 200 race jobs; the d = 64 probe jobs), so the median job time
# falls inside that cluster. Jobs whose cost per replicate spreads widely
# (the probe at d = 128 and 192) stay small, since their share of the run
# sets how much reps_per_s moves from seed to seed.
SLAB_EXP_REPS = 1000     # at d = 3 and at d = 5, replicates mode
SLAB_TABLE_REPS = 2200   # d = 4, table family, replicates mode
SUBADD_REPS = 80         # d = 4, n = 3
EDEN_JOBS = ((50, 700), (200, 150), (50, 700))   # (d, reps)
BOUNDS_DIMS = (50, 200, 1000)
# The race at d = 1000 costs ~100 ms per replicate with a coefficient of
# variation of 1.4 (the cluster size is close to geometric), and its
# largest cluster sets the process's peak RSS (~8 KB per infected vertex).
# In the timed rounds it made reps_per_s and peak_rss_mb swing by 10-25%
# between seeds, so it runs once per run, untimed, as a job the checks
# pool in; 80 replicates resolve its normalized mean from d = 50's.
EDEN_D1000_REPS = 80
# the d = 128 job runs a little longer than the d = 64 jobs and the d = 192
# job shorter, so the median job is the middle one of the d = 64 jobs
PROBE_JOBS = ((64, 50), (128, 12), (64, 50), (192, 1), (64, 50))


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]   # without --out
    replicates: int         # Monte Carlo replicates the job finishes
    seed: int | None        # the job's --seed, if it takes one


def job_seed(workload: str, seed: int, round_: int | str, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{round_}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _slab_exact(seed: int, round_) -> list[Job]:
    s = [job_seed("slab-exact", seed, round_, i) for i in range(3)]
    return [
        Job("slab-exp", ("sample-slab", "--family", "exp", "--a", "1.0",
                         "--d", "3", "--d", "5", "--reps", str(SLAB_EXP_REPS),
                         "--seed", str(s[0])), 2 * SLAB_EXP_REPS, s[0]),
        Job("slab-table", ("sample-slab", "--family", "table",
                           "--points", json.dumps(TABLE_POINTS), "--d", "4",
                           "--reps", str(SLAB_TABLE_REPS), "--seed", str(s[1])),
            SLAB_TABLE_REPS, s[1]),
        Job("subadd", ("subadd", "--d", "4", "--n", "3", "--reps", str(SUBADD_REPS),
                       "--seed", str(s[2])), SUBADD_REPS, s[2]),
    ]


def _eden_job(label: str, d: int, reps: int, s: int) -> Job:
    return Job(label, ("sample-eden", "--mode", "summary", "--a", "1.0", "--d", str(d),
                       "--reps", str(reps), "--seed", str(s)), reps, s)


def _eden_highd(seed: int, round_) -> list[Job]:
    jobs = [_eden_job(f"eden-d{d}", d, reps, job_seed("eden-highd", seed, round_, i))
            for i, (d, reps) in enumerate(EDEN_JOBS)]
    # the large dimension varies with the seed so every round's output differs
    big = 65536 + job_seed("eden-highd", seed, round_, len(jobs)) % 32768
    dims = [a for d in (*BOUNDS_DIMS, big) for a in ("--d", str(d))]
    jobs.append(Job("bounds", ("bounds", "--a", "1.0", *dims), 0, None))
    return jobs


def _eden_check_jobs(seed: int) -> list[Job]:
    return [_eden_job("eden-d1000", 1000, EDEN_D1000_REPS,
                      job_seed("eden-highd", seed, "check", 0))]


def _probe_highd(seed: int, round_) -> list[Job]:
    jobs = []
    for i, (d, reps) in enumerate(PROBE_JOBS):
        s = job_seed("probe-highd", seed, round_, i)
        jobs.append(Job(f"probe-d{d}", ("search-cross", "--a", "1.0", "--d", str(d),
                                        "--reps", str(reps), "--seed", str(s)), reps, s))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: object                # (seed, round) -> the round's jobs
    warmup: tuple[str, ...]     # argv of the untimed job that ends set-up
    check_jobs: object = lambda seed: []   # seed -> untimed jobs for the checks


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "slab-exact",
            "exact lazy searches at d = 3-5 through the short-key oracle, with "
            "thousands of CSV rows per job; the cluster race does nothing",
            _slab_exact,
            ("sample-slab", "--d", "3", "--reps", "4", "--seed", "1"),
        ),
        Workload(
            "eden-highd",
            "the cluster race at d = 50 and 200 (and untimed at 1000) plus the bound "
            "series; the edge oracle and the exact searches do nothing",
            _eden_highd,
            ("sample-eden", "--mode", "summary", "--d", "50", "--reps", "2", "--seed", "1"),
            _eden_check_jobs,
        ),
        Workload(
            "probe-highd",
            "the cheap-detour probe at d = 64-192: long oracle keys "
            "(66-194 words) and the probe's best-first search",
            _probe_highd,
            ("search-cross", "--d", "64", "--reps", "1", "--seed", "1"),
        ),
    )
}
