"""Run one gammastack job in a fresh process, as the benchmark's child.

Usage: job.py SPEC_JSON SPAWN_TIME

SPEC_JSON holds the CLI arguments, the name of the job's main public
function as the CLI module looks it up, and where to write statistics.
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, import, parsing and
validation up to the first call of the main function.

The job runs ``gammastack.cli.main`` exactly as the console script does and
writes its output to standard output.  A "sweep" job additionally runs the
semidirect axiom sweep and the classical-limit check on the data that the
quantize command built.  A "probe" job stops at the first call of the main
function; it measures set-up only.

A "sample" job also times a small fixed kernel of pure-Python arithmetic
every ``SAMPLE_INTERVAL_S`` seconds, from a signal handler, and reports when
each sample started and how long it took.  The kernel is not gammastack code,
so a change to gammastack does not change its time; it tracks the speed the
host gives this process from moment to moment (see ``bench/NOTES.md``).
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import time
from array import array
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.05
# The reference speed: the kernel's time inside a gammastack job when the
# host runs it at full speed (2-vCPU 2.1 GHz VM, Python 3.11.7).  It only
# scales the reported times.
KERNEL_REF_S = 0.0005


class _SetupReached(BaseException):
    """Raised by a probe job at the main call; no handler in the CLI catches it."""


def _peak_rss_kb() -> int:
    # VmHWM covers this process image only; ru_maxrss would also count the
    # parent's resident set at the time it spawned this process
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _kernel() -> dict:
    acc: dict = {}
    for i in range(1, 90):
        key = (i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 7 + 1) * Fraction(2, i + 3)
    return acc


class Sampler:
    """Times ``_kernel`` at a fixed interval; samples are (start, duration) pairs."""

    def __init__(self):
        self.samples = array("d")

    def sample(self, *_signal_args) -> None:
        # a collection started by the kernel's allocations would time the
        # job's heap, not the host
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        _kernel()
        self.samples.extend((start, time.monotonic() - start))
        if collecting:
            gc.enable()

    def start(self) -> None:
        # the first calls of a fresh process run slower than the host speed says
        _kernel()
        _kernel()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        return self.samples.tolist()


def run(spec: dict, spawn_time: float) -> int:
    sampler = Sampler() if spec["sample"] else None
    if sampler is not None:
        sampler.start()
    t0 = time.monotonic()
    import gammastack.cli as cli
    import gammastack.quantum as quantum

    stats: dict = {"import_s": time.monotonic() - t0}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    main_fn = getattr(cli, spec["main"])
    captured: list = []

    def first_call(*args, **kwargs):
        if "setup_s" not in stats:
            stats["setup_s"] = time.monotonic() - spawn_time
            if spec["probe"]:
                raise _SetupReached
        captured.append(args)
        return main_fn(*args, **kwargs)

    setattr(cli, spec["main"], first_call)
    try:
        code = cli.main(spec["argv"])
    except _SetupReached:
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    if spec["sweep"] and not spec["probe"] and captured:
        data = captured[0][0]
        _alg, axiom_issues = quantum.build_semidirect(data, check_degree=1)
        stats["axiom_issues"] = axiom_issues
        stats["classical_issues"] = quantum.classical_limit_residuals(data)
    if sampler is not None:
        stats["samples"] = sampler.stop()
    if tracer is not None:
        tracer.dump(spec["spans"], spec["id"], spec["roots"])
    stats["peak_rss_kb"] = _peak_rss_kb()
    with open(spec["stats"], "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(json.loads(sys.argv[1]), float(sys.argv[2])))
