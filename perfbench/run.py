"""ramify CLI benchmark: closed loop, one client, one fresh process per job.

    python3 perfbench/run.py --workload series-covers --seed 0 --seconds 30 --trace 0

Run from the root of a checkout (the program is imported from ``src``).
``--workload all`` runs the three workloads one after another.  With
``--trace 0`` the jobs run as ``python -m ramify`` and the end-to-end metrics
are reported; with ``--trace 1`` the first round of jobs runs untraced and
then again under ``perfbench/tracer.py``, and the per-layer metrics are
reported.  Every job's report is checked (see check.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import check  # noqa: E402
import jobs  # noqa: E402
import stats  # noqa: E402
from layers import layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 60
SETUP_SAMPLES = 21
DEFAULT_SECONDS = 30
# Wall time of one round on a 2-CPU Xeon (Python 3.11).  A run covers
# round(seconds / NOMINAL_ROUND_S) whole rounds, so its job list depends only
# on the seed and --seconds, never on how fast the machine happens to be.
NOMINAL_ROUND_S = {"series-covers": 15.5, "group-oracles": 11.0, "verify-corpus": 3.2}

E2E_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cpu_s_per_job": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Context:
    root: Path
    build: Path
    env: dict
    reference: dict


@dataclass
class JobRun:
    job: jobs.Job
    start_ns: int
    end_ns: int
    cpu_s: float
    code: int | None
    stdout: bytes
    outcome: check.Outcome
    spans: dict | None = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Measurement:
    runs: list[JobRun]  # every job run; all are checked
    counted: list[JobRun]  # the runs that `attempted` and `failed` count
    metrics: dict[str, float]
    units: dict[str, str]
    notes: dict[str, str]
    extra: list[str]
    consistent: bool = True  # traced reports equal the untraced ones


def make_context(root: Path) -> Context:
    build = root / ".bench_build"
    (build / "spans").mkdir(parents=True, exist_ok=True)
    (build / "results").mkdir(parents=True, exist_ok=True)
    (root / jobs.JORDAN_TABLE_PATH).write_text(json.dumps(jobs.JORDAN_TABLE), encoding="utf-8")
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(root / "src"),
        "PYTHONPYCACHEPREFIX": str(build / "pycache"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }
    return Context(root, build, env, check.load_reference())


def execute(job: jobs.Job, ctx: Context, traced: bool = False) -> JobRun:
    """Run one job in a fresh process and check what it printed."""
    spans_path = ctx.build / "spans" / f"{job.id}.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), job.id, "--"]
    else:
        argv = [sys.executable, "-m", "ramify"]
    argv += list(job.argv)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            argv,
            input=job.stdin.encode(),
            capture_output=True,
            cwd=ctx.root,
            env=ctx.env,
            timeout=JOB_TIMEOUT_S,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    end = time.perf_counter_ns()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    run = JobRun(job, start, end, cpu, code, out, check.check(job, code, out, err, ctx.reference))
    if traced:
        with spans_path.open(encoding="utf-8") as fh:
            run.spans = json.load(fh)
        spans_path.unlink()
    return run


def import_cli(ctx: Context) -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import ramify.cli"],
        cwd=ctx.root, env=ctx.env, check=True, capture_output=True,
    )
    return time.perf_counter() - start


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def closed_loop(job_list: list[jobs.Job], ctx: Context):
    """One client: each job starts when the previous one has exited.

    SETUP_SAMPLES imports of the CLI are spread evenly between the jobs, so
    the set-up median sees the same machine as the jobs.  Returns the runs,
    the set-up samples and the jobs' wall time (set-up samples excluded).
    """
    import_cli(ctx)  # warm-up: writes the bytecode cache
    runs, setup = [], []
    for i, job in enumerate(job_list):
        runs.append(execute(job, ctx))
        while len(setup) < SETUP_SAMPLES * (i + 1) // len(job_list):
            setup.append(import_cli(ctx))
    return runs, setup, sum(r.end_ns - r.start_ns for r in runs) / 1e9


def end_to_end(workload: str, seed: int, seconds: float, ctx: Context) -> Measurement:
    job_list = [
        job
        for round_index in range(rounds_for(workload, seconds))
        for job in jobs.make_round(workload, seed, round_index)
    ]
    runs, setup, wall = closed_loop(job_list, ctx)
    walls = [r.wall_s for r in runs]
    completed = sum(1 for r in runs if r.code is not None)
    tail_value, tail_pct, beyond = stats.tail(walls)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n = len(runs)
    metrics = {
        "jobs_per_s": completed / wall,
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "cpu_s_per_job": sum(r.cpu_s for r in runs) / n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024,
    }
    failed = sum(1 for r in runs if not r.outcome.ok)
    notes = {
        "jobs_per_s": f"{completed} jobs completed in {wall:.3f} s of job wall time",
        "job_p50_s": f"median of {n} jobs",
        "job_tail_s": f"p{tail_pct:.1f} of {n} jobs, {beyond} beyond it",
        "cpu_s_per_job": f"user+sys of {n} job processes",
        "setup_s": f"median of {len(setup)} fresh imports of ramify.cli spread over the run",
        "peak_rss_mb": f"largest max-RSS of {n} job processes",
    }
    extra = [f"fail_frac = {failed / n:.4f} ratio ({failed} failed of {n} attempted)"]
    return Measurement(runs, runs, metrics, E2E_UNITS, notes, extra)


def traced_run(workload: str, seed: int, seconds: float, ctx: Context) -> Measurement:
    """Each job of round 0 untraced and then traced.  The round runs
    rounds_for(seconds) // 2 times, at least once, so the traced run takes
    about as long as an untraced one."""
    round0 = jobs.make_round(workload, seed, 0)
    import_cli(ctx)  # warm-up: writes the bytecode cache
    plain, traced = [], []
    for _ in range(max(1, rounds_for(workload, seconds) // 2)):
        for job in round0:
            plain.append(execute(job, ctx))
            traced.append(execute(job, ctx, traced=True))
    mismatched = [
        t.job.id for p, t in zip(plain, traced) if p.stdout != t.stdout or p.code != t.code
    ]
    metrics, units, notes = layer_metrics(plain, traced, len(round0))
    extra = [f"report bytes equal traced vs untraced: {not mismatched} ({len(traced)} job pairs)"]
    if mismatched:
        extra.append(f"tracing changed the report of: {', '.join(sorted(set(mismatched)))}")
    return Measurement(plain + traced, traced, metrics, units, notes, extra, not mismatched)


def provenance(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ramify").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def _git_commit(root: Path) -> str:
    git = root / ".git"
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
    return "unknown (not a git checkout; see src_sha256)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, ctx: Context) -> dict:
    m = (traced_run if trace else end_to_end)(workload, seed, seconds, ctx)
    prov = provenance(ctx.root, workload, seed, seconds, trace)
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    for name, value in m.metrics.items():
        print(f"metric {workload} {name} = {value:.6g} {m.units[name]}  ({m.notes[name]})")
    for line in m.extra:
        print(f"note {workload} {line}")
    failures = Counter(r.outcome.failure for r in m.runs if r.outcome.failure)
    if failures:
        known = sum(1 for r in m.runs if r.outcome.known_defect)
        print(
            f"note {workload} failures over every run above {dict(failures)}; "
            f"{known} are the known int->str digit-limit defect"
        )
    wrong = [(r.job.id, r.outcome.wrong) for r in m.runs if r.outcome.wrong]
    for job_id, why in wrong:
        print(f"WRONG {workload} {job_id}: {why}")
    result = {
        "correct": not wrong and m.consistent,
        "attempted": len(m.counted),
        "failed": sum(1 for r in m.counted if not r.outcome.ok),
        "metrics": {k: {"value": v, "unit": m.units[k]} for k, v in m.metrics.items()},
    }
    record = dict(result, provenance=prov, jobs=[
        {"id": r.job.id, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "code": r.code,
         "failure": r.outcome.failure, "wrong": r.outcome.wrong}
        for r in m.runs
    ])
    out = ctx.build / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*jobs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ramify" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no ramify sources under {root / 'src'}; run from a checkout root\n")
        return 2
    sys.set_int_max_str_digits(0)  # reports may carry integers of any size
    ctx = make_context(root)
    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), ctx) for w in workloads]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{w}:{k}": v for w, r in zip(workloads, results) for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
