"""Closed-loop job runner, per-job time limit, and span tracing.

A job is one question a user asks.  Jobs run one at a time in the calling
process; the time limit is a ``SIGALRM`` interval timer, so no thread or
child process is started per job.  A job that hits the limit, or raises
``CapExceededError``, is undecided and its time counts as the limit.

Job and span times are CPU time of this process and of its waited-for
children (``cpu_ns``), not wall time.  The benchmark is one thread with
BLAS and OpenMP pinned to one thread, and does no I/O while timing, so on an
idle machine the two agree; on a shared host CPU time leaves out the time
the process waits for a core.  Wall time is still kept per pass, and the
run reports the ratio of the two.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


def cpu_ns() -> int:
    """CPU nanoseconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


@dataclass
class Job:
    """One seeded question plus everything needed to judge its answer.

    ``run(probe)`` makes the library calls (through ``probe.call``) and
    returns an outcome dict holding an ``answer`` entry.  ``check(outcome)``
    returns the list of problems found by the closed forms, independent
    references and the recorded answer; an empty list is a correct verdict.
    ``known`` names the inputs and the known answer, for digests.
    """

    kind: str
    key: str | None
    size: int
    run: Callable[["Probe"], dict]
    check: Callable[[dict], list[str]]
    known: str = ""


class Probe:
    """Untraced calls into the library: a plain call, counters ignored."""

    def call(self, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass

    def begin_job(self, job_id: int, kind: str) -> None:
        pass

    def end_job(self) -> None:
        pass


class TracingProbe(Probe):
    """Records one span per library call, parented to the job's span.

    Spans are ``(span_id, parent_id, job_id, name, start_ns, end_ns)`` and
    stay in memory until the run ends.
    """

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self.counters: dict[str, float] = {}
        self._job: tuple[int, int, str, int] | None = None  # span id, job id, kind, start

    def begin_job(self, job_id: int, kind: str) -> None:
        self._job = (len(self.spans), job_id, kind, cpu_ns())
        self.spans.append(None)  # placeholder, filled by end_job

    def end_job(self) -> None:
        sid, job_id, kind, start = self._job
        self.spans[sid] = (sid, None, job_id, f"job.{kind}", start, cpu_ns())
        self._job = None

    def call(self, layer: str, fn, *args, **kwargs):
        parent, job_id = self._job[0], self._job[1]
        start = cpu_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((len(self.spans), parent, job_id, layer, start,
                               cpu_ns()))

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the part covered by child spans)."""
        child_ns: dict[int, int] = {}
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        table: dict[str, dict] = {}
        for sid, _, _, name, start, end in self.spans:
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns.get(sid, 0)) / 1e9
        return table


class JobTimeout(BaseException):
    """Raised by the interval timer; a BaseException so library code that
    catches ``Exception`` cannot swallow it."""


class TimeLimit:
    """Arms ``SIGALRM`` for one job at a time."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self._armed:
            self._armed = False
            raise JobTimeout()

    def __enter__(self):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


@dataclass
class Record:
    kind: str
    status: str      # correct | wrong | undecided
    seconds: float   # CPU seconds; the limit when undecided
    size: int
    problems: list[str] = field(default_factory=list)


def run_job(job: Job, job_id: int, probe: Probe, limit: TimeLimit, cap_error) -> Record:
    """Run one job under the time limit and judge its outcome."""
    probe.begin_job(job_id, job.kind)
    start = cpu_ns()
    try:
        with limit:
            outcome = job.run(probe)
    except (JobTimeout, cap_error):
        probe.end_job()
        return Record(job.kind, "undecided", limit.seconds, job.size)
    except Exception as exc:  # a crash is a wrong verdict, reported with its cause
        probe.end_job()
        return Record(job.kind, "wrong", (cpu_ns() - start) / 1e9, job.size,
                      [f"{type(exc).__name__}: {exc}"])
    elapsed = (cpu_ns() - start) / 1e9
    probe.end_job()
    problems = job.check(outcome)
    return Record(job.kind, "wrong" if problems else "correct", elapsed, job.size, problems)


@dataclass
class Pass:
    """The records of a run of jobs, with its CPU and wall time."""

    records: list[Record]
    cpu_s: float
    wall_s: float


def run_closed_loop(jobs: list[Job], probe: Probe, limit: TimeLimit, cap_error,
                    count: int, first_id: int = 0) -> Pass:
    """Run ``count`` jobs in order, the next only after the last finishes;
    the list wraps around if it runs out.  Job ids count up from
    ``first_id``."""
    cpu, wall = cpu_ns(), time.perf_counter()
    records = [run_job(jobs[i % len(jobs)], first_id + i, probe, limit, cap_error)
               for i in range(count)]
    return Pass(records, (cpu_ns() - cpu) / 1e9, time.perf_counter() - wall)


def run_passes(jobs: list[Job], probe: Probe, limit: TimeLimit, cap_error, *,
               seconds: float, min_passes: int) -> list[Pass]:
    """Run the pass ``jobs`` again and again, whole passes only: at least
    ``min_passes``, then more while another pass of median length still
    ends within ``seconds`` of wall time."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_closed_loop(jobs, probe, limit, cap_error, len(jobs)))
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > seconds:
            return passes


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
