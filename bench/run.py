#!/usr/bin/env python3
"""Benchmark for gammastack: certificate workloads run the way users run them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all                 # every workload

Each job runs in a fresh child Python process (``bench/job.py``), one at a
time, so caches start cold as in a CLI call.  A run repeats the workload's
job list for about ``--seconds`` seconds and reports medians over the
repetitions.  Timed jobs sample the host's speed as they run, and ``wall_s``
and ``setup_s`` are read at a fixed reference speed (``reference_time``), so
that the host's changing speed does not show as a change of the program.
Every output is checked: exit code, ``valid`` flag, every residual equal to
"0", empty issue lists, the sha256 recorded in ``bench/reference.json`` and,
for two jobs, the bytes of ``tests/golden``.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` a traced run (plus one untraced pass for the overhead)
gives the per-layer ones.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from job import KERNEL_REF_S
from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"

# no single run may take longer than this, whatever --seconds says
HARD_LIMIT_S = 170.0
# set-up probes: at most this many passes, and at most this share of the run
PROBE_PASSES = 9
PROBE_SHARE = 0.1

BUNDLED = ["abelian", "axb", "sl2-weyl", "trivial-que", "abelian-que", "sl2-que"]
# quantum files and the first non-identity element of their group
ADMISSIBILIZE_TARGET = {"trivial-que": "s", "abelian-que": "s", "sl2-que": "w"}
GOLDEN = {"stack-axb-N3": "axb-stack-N3.json", "quantize-trivial-que": "trivial-quantum.json"}

# the CLI-module name of each command's main public function, and its span
MAIN = {
    "validate": ("validate_gamma_lba", "liealg.validate_gamma_lba"),
    "stack": ("verify_stack", "stack.verify_stack"),
    "quantize": ("quantize_stack", "quantum.quantize_stack"),
    "admissibilize": ("admissibilize", "quantum.admissibilize"),
}
SWEEP_ROOTS = ["quantum.build_semidirect", "quantum.classical_limit_residuals"]


@dataclass
class Job:
    id: str
    argv: list[str]
    sweep: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def workload_jobs(name: str, seed: int) -> list[Job]:
    """The job list of one workload; the seed shuffles bundled-batch."""
    if name == "stack-sl2-N4":
        return [Job("stack-sl2-weyl-N4", ["stack", "sl2-weyl.glb", "-N", "4"])]
    if name == "stack-axb-N6":
        return [Job("stack-axb-N6", ["stack", "axb.glb", "-N", "6"])]
    if name == "quantum-sl2-D6":
        return [Job("sweep-sl2-que-M3-D6",
                    ["quantize", "sl2-que.glb", "--hbar", "3", "--pbw", "6"], sweep=True)]
    if name == "bundled-batch":
        jobs = []
        for f in BUNDLED:
            jobs.append(Job(f"validate-{f}", ["validate", f"{f}.glb"]))
            jobs.append(Job(f"stack-{f}", ["stack", f"{f}.glb"]))
            if f in ADMISSIBILIZE_TARGET:
                jobs.append(Job(f"quantize-{f}", ["quantize", f"{f}.glb"]))
                jobs.append(Job(f"admissibilize-{f}",
                                ["admissibilize", f"{f}.glb", "--target", ADMISSIBILIZE_TARGET[f]]))
        jobs.append(Job("stack-axb-N3", ["stack", "axb.glb", "-N", "3"]))
        random.Random(seed).shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ["stack-sl2-N4", "stack-axb-N6", "quantum-sl2-D6", "bundled-batch"]


# -- running one job ------------------------------------------------------------------


@dataclass
class JobResult:
    job: Job
    wall_s: float
    ref_wall_s: float
    ref_setup_s: float
    cpu_s: float
    rss_kb: int
    stats: dict
    problems: list[str]
    spans: Path | None = None


class _Timeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Timeout


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # bytecode is cached as an installed package's would be, under .bench_build
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_job(job: Job, seed: int, reference: dict, *, probe: bool, trace: bool,
            sample: bool, timeout: float) -> JobResult:
    """Run one job in a child process and check its output against `reference`."""
    out, err = WORK / "out" / f"{job.id}.out", WORK / "out" / f"{job.id}.err"
    stats_path = WORK / "out" / f"{job.id}.stats.json"
    spans = WORK / "trace" / f"{job.id}.spans" if trace and not probe else None
    for p in (stats_path, spans):
        if p is not None and p.exists():
            p.unlink()
    main_attr, main_span = MAIN[job.command]
    spec = json.dumps({
        "id": job.id,
        "argv": ["--seed", str(seed)] + job.argv,
        "main": main_attr,
        "roots": [main_span] + (SWEEP_ROOTS if job.sweep else []),
        "sweep": job.sweep,
        "probe": probe,
        "trace": spans is not None,
        "sample": sample,
        "stats": str(stats_path),
        "spans": str(spans),
    })
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "job.py"), spec, repr(t0)],
            stdout=fo, stderr=fe, cwd=WORK, env=_child_env())
        timed_out = False
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    problems = []
    if timed_out:
        problems.append(f"timed out after {timeout:.0f} s")
    elif proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {err.read_text(errors='replace')[-300:]}")
    elif "setup_s" not in stats:
        problems.append("main function never called")
    elif not probe:
        problems.extend(check_output(job, out.read_bytes(), stats, reference))
    samples = stats.get("samples", [])
    ref_setup = reference_time(t0, t0 + stats["setup_s"], samples) if "setup_s" in stats else 0.0
    return JobResult(job, t1 - t0, reference_time(t0, t1, samples), ref_setup,
                     usage.ru_utime + usage.ru_stime, stats.get("peak_rss_kb", 0),
                     stats, problems, spans)


def reference_time(t0: float, t1: float, samples: list[float]) -> float:
    """The wall time from `t0` to `t1` as it would read at the reference speed.

    `samples` holds (start, duration) pairs of the job's speed kernel.  Each
    gap between samples is scaled by KERNEL_REF_S over the kernel time
    measured at its two ends; the sampling time itself is left out.
    """
    pairs = [(s, d) for s, d in zip(samples[0::2], samples[1::2]) if s + d <= t1]
    starts, durations = [s for s, _ in pairs], [d for _, d in pairs]
    if not starts:
        return t1 - t0
    gap_starts = [t0] + [s + d for s, d in zip(starts, durations)]
    gap_ends = starts + [t1]
    kernel_s = ([durations[0]] + [(a + b) / 2 for a, b in zip(durations, durations[1:])]
                + [durations[-1]])
    return sum((e - b) * KERNEL_REF_S / k for b, e, k in zip(gap_starts, gap_ends, kernel_s))


def check_output(job: Job, data: bytes, stats: dict, reference: dict) -> list[str]:
    """Everything that can be wrong with a finished job's output."""
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    if digest != reference.get(job.id):
        problems.append(f"sha256 {digest} differs from the reference")
    if job.id in GOLDEN and data != (GOLDEN_DIR / GOLDEN[job.id]).read_bytes():
        problems.append(f"output differs from tests/golden/{GOLDEN[job.id]}")
    if job.command == "validate" and data != b"valid\n":
        problems.append("validate did not print 'valid'")
    if job.command in ("stack", "quantize"):
        try:
            cert = json.loads(data)
        except ValueError:
            return problems + ["certificate is not JSON"]
        if cert.get("valid") is not True:
            problems.append("certificate is not valid")
        problems += [f"nonzero residual at {r.get('at')}" for r in cert.get("residuals", [])
                     if r.get("residual") != "0"]
        problems += [f"not admissible: {a.get('element')}" for a in cert.get("admissibility", [])
                     if not a.get("admissible")]
        problems += [f"failure: {f}" for f in cert.get("failures", [])]
    if job.command == "admissibilize" and not data.startswith(b"gauge element"):
        problems.append("admissibilize printed no gauge element")
    if job.sweep:
        problems += [f"axiom issue: {i}" for i in stats.get("axiom_issues", ["missing"])]
        problems += [f"classical-limit issue: {i}" for i in stats.get("classical_issues", ["missing"])]
    return problems


# -- a run -----------------------------------------------------------------------------


@dataclass
class Run:
    seed: int
    reference: dict
    deadline: float
    hard_deadline: float
    # timed runs sample the host speed; traced runs, whose untraced pass is
    # only there to give the tracing overhead, do not
    sample: bool
    results: list[JobResult] = field(default_factory=list)

    def timeout(self) -> float:
        return self.hard_deadline - time.monotonic()

    def run_pass(self, jobs: list[Job], *, probe: bool = False, trace: bool = False):
        done = []
        for job in jobs:
            if self.timeout() <= 0:
                break
            r = run_job(job, self.seed, self.reference, probe=probe, trace=trace,
                        sample=self.sample, timeout=self.timeout())
            done.append(r)
            self.results.append(r)
        return done

    def passes(self, jobs: list[Job], **kwargs):
        """Yield passes of the job list while the next is expected to end
        before the deadline.  The first pass always runs; a pass cut short by
        the hard limit is the last one."""
        durations: list[float] = []
        while not durations or time.monotonic() + statistics.median(durations) <= self.deadline:
            t0 = time.monotonic()
            done = self.run_pass(jobs, **kwargs)
            yield done
            if len(done) < len(jobs):
                return
            durations.append(time.monotonic() - t0)


def measure(workload: str, seed: int, seconds: int, trace: bool, reference: dict):
    """One run of one workload; returns its metrics, the wall time of each
    measured pass, the same at the reference speed (timed runs only) and
    every job result."""
    jobs = workload_jobs(workload, seed)
    start = time.monotonic()
    run = Run(seed, reference, start + seconds, start + HARD_LIMIT_S, sample=not trace)
    # untimed: writes the bytecode cache so no timed job compiles
    run_job(jobs[0], seed, reference, probe=True, trace=False, sample=False,
            timeout=run.timeout())
    if trace:
        untraced = sum(r.wall_s for r in run.run_pass(jobs))
        per_pass = [layer_metrics(done, untraced) for done in run.passes(jobs, trace=True)]
        metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        return metrics, [p["trace.wall_s"] for p in per_pass], [], run.results
    setups, walls, ref_walls, rss = [], [], [], []
    probe_start = time.monotonic()
    while len(setups) < PROBE_PASSES and (
        not setups or time.monotonic() - probe_start < PROBE_SHARE * seconds
    ):
        setups.append(sum(r.ref_setup_s for r in run.run_pass(jobs, probe=True)))
    for done in run.passes(jobs):
        walls.append(sum(r.wall_s for r in done))
        ref_walls.append(sum(r.ref_wall_s for r in done))
        setups.append(sum(r.ref_setup_s for r in done))
        rss.append(max(r.rss_kb for r in done) / 1024)
    metrics = {
        "wall_s": statistics.median(ref_walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, walls, ref_walls, run.results


def layer_metrics(done: list[JobResult], untraced_wall: float) -> dict[str, float]:
    """Per-layer sums over one traced pass of the job list."""
    total: dict[str, float] = {}
    for r in done:
        if r.spans is None or not r.spans.exists():
            continue
        for key, value in summarize(str(r.spans)).items():
            total[key] = total.get(key, 0.0) + value
    traced_wall = sum(r.wall_s for r in done)
    total["cli.import_s"] = sum(r.stats.get("import_s", 0.0) for r in done)
    total["cli.cpu_s"] = sum(r.cpu_s for r in done)
    total["trace.wall_s"] = traced_wall
    total["trace.untraced_wall_s"] = untraced_wall
    total["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0

    def ratio(num: str, den: str) -> float:
        return total.get(num, 0.0) / total[den] if total.get(den) else 0.0

    total["formal.PairingContext.poisson.useful_pair_ratio"] = ratio(
        "formal.PairingContext.poisson.useful_pairs", "formal.PairingContext.poisson.pairs")
    total["stack.build_iso.residual_evals_per_degree"] = ratio(
        "stack.build_iso.residual_evals", "stack.build_iso.degrees")
    total["quantum.QueContext.inverse.distinct_ratio"] = ratio(
        "quantum.QueContext.inverse.distinct", "quantum.QueContext.inverse.calls")
    total["trace.main_self_cover"] = ratio("trace.main_self_sum_s", "trace.main_wall_s")
    return total


# -- output ----------------------------------------------------------------------------


def report(workload: str, seed: int, seconds: int, trace: bool, spec: dict,
           reference: dict) -> dict:
    metrics, walls, ref_walls, results = measure(workload, seed, seconds, trace, reference)
    failed = [r for r in results if r.problems]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    kind = "traced" if trace else "timed"
    print(f"{workload}: {kind} run, seed {seed}, {len(results)} jobs run; "
          f"{len(walls)} passes of {len(workload_jobs(workload, seed))} jobs took "
          + " ".join(f"{w:.3f}" for w in walls) + " s"
          + (" (" + " ".join(f"{w:.3f}" for w in ref_walls) + " s at the reference speed)"
             if ref_walls else ""))
    for name, m in out.items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':52s} {len(failed) / max(len(results), 1):14.6g} share")
    for r in failed:
        for p in r.problems:
            print(f"  FAILED {r.job.id}: {p}")
    return {"correct": not failed, "attempted": len(results), "failed": len(failed),
            "metrics": out}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (SRC / "gammastack" / "cli.py", GOLDEN_DIR, BENCH / "reference.json",
                           ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"error: not a gammastack checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    # a terminated run still stops and reaps its running job (see run_job)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    signal.signal(signal.SIGALRM, _on_alarm)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    for sub in ("out", "trace", "pycache"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = {w: report(w, args.seed, seconds, bool(args.trace), spec, reference)
               for w in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
