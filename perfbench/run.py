"""causal-lab benchmark: one seeded workload, closed loop, one caller.

    python3 perfbench/run.py --workload born_grid_1d --seed 1 --seconds 20 \
        --trace 0

The benchmark imports causal_lab from ./src (see lib.py), builds the
workload's inputs from the seed, and runs its operations back to back in
whole rounds (every case once per round, in a fixed order) until
--seconds have passed and at least MIN_ROUNDS rounds ran.  Each operation
starts when the previous one returns, after an untimed garbage collection;
its output is checked against a reference outside its timed interval.

The host's speed is sampled between operations (hostspeed.py), and every
time is reported scaled to a reference speed, so that the host's slow
spells do not read as the program's.  ops_per_s is the operations per
second of a round made of each case's median time; op_p50_s and
op_tail_s are percentiles of all operation times.  setup_s is the median of
SETUP_REPEATS set-ups, each a fresh import of causal_lab (numpy is loaded
once, before), building the inputs, and one warm-up operation; the first
comes before the first round, the others spread over the run.
peak_rss_mb is the process's peak resident memory after set-up and the
first round.  The same figures in wall time are in the report.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
rounds with rounds under span recorders (tracing.py), and reports
per-layer self times and work counts per operation plus the tracing
overhead, the median traced round time over the median untraced one.  A
report block goes to stdout first; the last line is the result object
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import lib
import machine
import tracing

SETUP_REPEATS = 21
# The package's speed depends on the interpreter's hash seed: brute force on
# 16 atoms took 43, 55 and 66 ms under seeds 1, 2 and 3, each twice alike.
# Random per process, it would move the times from run to run, so the
# benchmark restarts itself once under this fixed seed (0 turns the
# randomization off).
HASH_SEED = "0"
# every measuring run makes at least MIN_ROUNDS rounds, so the tail
# percentile can be fixed per workload from its cases per round alone and
# does not move with the speed of the machine
MIN_ROUNDS = 4
TAIL_BEYOND = 10
STATE = lib.ROOT / "perfbench" / ".state"


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)  # wall
    scaled: list[float] = field(default_factory=list)  # reference speed
    round_s: list[float] = field(default_factory=list)
    rounds: int = 0
    failed: int = 0
    round_counts: list = field(default_factory=list)
    rss_mb: float = 0.0  # peak resident memory after the first round


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_round(cases, ph: Phase, failures: list[str], tracer=None,
              host: hostspeed.HostSpeed | None = None) -> None:
    """Every case once, in order; each output is checked right after its
    operation returns, outside the timed interval (tracer paused), then
    dropped, so the harness holds no growing pile of outputs.

    Each operation starts from a collected heap, so when the collector runs
    inside it depends on the operation alone, not on what ran before.
    With `host`, the host's speed is sampled between operations and each
    time is also kept scaled to the reference speed.
    """
    counts: dict[str, int] = {}
    first = len(ph.times)
    marks = []
    for case in cases:
        gc.collect()
        if host is not None:
            marks.append(host.mark())
        t = perf_counter()
        out = case.run()
        ph.times.append(perf_counter() - t)
        with tracer.paused() if tracer else contextlib.nullcontext():
            why = case.check(out)
            if tracer is not None and case.counts is not None:
                for k, v in case.counts(out).items():
                    counts[k] = counts.get(k, 0) + v
        if why is not None:
            ph.failed += 1
            if len(failures) < 10:
                failures.append(f"{case.key}: {why}")
    ph.rounds += 1
    ph.round_s.append(sum(ph.times[first:]))
    if host is not None:
        host.sample()  # so every operation has a sample after it
        ph.scaled.extend(t * host.scale(i)
                         for t, i in zip(ph.times[first:], marks))
    if ph.rounds == 1:
        ph.rss_mb = peak_rss_mb()
    if tracer is not None:
        counts.update(tracer.counts)
        ph.round_counts.append(counts)
        tracer.counts.clear()


def drive(cases, seconds: float, failures: list[str],
          host: hostspeed.HostSpeed, between=lambda elapsed: None) -> Phase:
    """Untraced rounds until `seconds` have passed and MIN_ROUNDS ran;
    `between` is called after each round with the time elapsed."""
    ph = Phase()
    start = perf_counter()
    while perf_counter() - start < seconds or ph.rounds < MIN_ROUNDS:
        run_round(cases, ph, failures, host=host)
        between(perf_counter() - start)
    return ph


def drive_traced(cases, seconds: float, failures: list[str], tracer):
    """Untraced and traced rounds in turn, so a drift in machine speed
    reaches both halves alike; at least two traced rounds, so their work
    counts can be compared."""
    plain, traced = Phase(), Phase()
    start = perf_counter()
    while perf_counter() - start < seconds or traced.rounds < 2:
        run_round(cases, plain, failures)
        tracer.install()
        try:
            run_round(cases, traced, failures, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def percentile(sorted_times: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = p / 100.0 * (len(sorted_times) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_times) - 1)
    lo_t, hi_t = sorted_times[lo], sorted_times[hi]
    return lo_t + (hi_t - lo_t) * (pos - lo)


def tail_percentile(cases_per_round: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it in MIN_ROUNDS
    rounds, among the percentiles (g + 1/2) / cases_per_round.

    Sorted, the samples of a run fall in groups of one case each, as far
    as the cases' costs do not overlap; the g-th group's rank sits in the
    middle of its own samples for every run of at least MIN_ROUNDS rounds,
    never between the slowest repeat of one case and the fastest of the
    next.
    """
    n = cases_per_round * MIN_ROUNDS
    for g in reversed(range(cases_per_round)):
        p = 100.0 * (g + 0.5) / cases_per_round
        if n - int(p / 100.0 * (n - 1)) - 1 >= TAIL_BEYOND:
            return p
    return 50.0


def code_digest() -> str:
    """Hash of the package and benchmark sources, so that saved counts
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for base in (lib.SRC / "causal_lab", lib.ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(lib.ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_saved_counts(name: str, seed: int, counts: dict,
                         problems: list[str]) -> None:
    """Counts of one round must repeat in every run of this code with this
    seed; a change to the code starts a new file."""
    STATE.mkdir(parents=True, exist_ok=True)
    path = STATE / f"counts-{name}-{seed}-{code_digest()}.json"
    text = json.dumps(counts, sort_keys=True)
    if path.exists():
        if path.read_text() != text:
            problems.append(f"work counts differ from an earlier run with "
                            f"seed {seed} ({path.name})")
    else:
        path.write_text(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine.pin_threads()
    t0 = perf_counter()
    try:
        lib.load()
    except ImportError as exc:
        print(f"perfbench: cannot load causal_lab: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    import workloads  # loads numpy, so only after pin_threads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    STATE.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE)
    try:
        return run(args, build, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(build, seed: int, workdir: Path, host: hostspeed.HostSpeed):
    """One timed set-up: a fresh import of causal_lab, the workload's
    inputs built through the package's constructors, and one warm-up
    operation.  Earlier garbage is collected first, untimed, so every
    set-up starts from the same heap.  Returns the wall time, the time at
    the reference speed, and the inputs."""
    gc.collect()
    host.sample()
    i = len(host.samples) - 1
    t = perf_counter()
    lib.load()
    bundle = build(seed, workdir)
    bundle.cases[0].run()
    wall = perf_counter() - t
    host.sample()
    return wall, wall * host.scale(i), bundle


def run(args, build, import_s: float, workdir: str) -> int:
    problems: list[str] = []
    host = hostspeed.HostSpeed()
    wall_s, scaled_s, bundle = set_up(build, args.seed, Path(workdir), host)
    setup, setup_scaled = [wall_s], [scaled_s]
    spare = Path(workdir) / "spare"
    spare.mkdir()

    def another_set_up() -> None:
        # built on a package of its own, then dropped: the cases under
        # measurement keep the package their inputs were built with
        snap = lib.snapshot()
        try:
            wall_s, scaled_s, _ = set_up(build, args.seed, spare, host)
        finally:
            lib.restore(snap)
        setup.append(wall_s)
        setup_scaled.append(scaled_s)

    def set_up_when_due(elapsed: float) -> None:
        # set-up i is due after i / SETUP_REPEATS of the run, so that, like
        # the repeats of each case, the set-ups meet the machine's speed
        # all through the run and not at its start alone
        if (len(setup) < SETUP_REPEATS
                and elapsed >= args.seconds * len(setup) / SETUP_REPEATS):
            another_set_up()

    cases = bundle.cases
    try:
        bundle.prepare()
    except ReferenceError as exc:
        problems.append(f"reference: {exc}")

    failures: list[str] = []
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine.describe(),
              "cases_per_round": len(cases), "notes": bundle.notes,
              "first_import_s": import_s, "setup_wall_s": setup,
              "python_hash_seed": os.environ.get("PYTHONHASHSEED")}

    if args.trace == 0:
        ph = drive(cases, args.seconds, failures, host, set_up_when_due)
        while len(setup) < SETUP_REPEATS:
            another_set_up()
        failed, attempted = ph.failed, len(ph.times)
        p = tail_percentile(len(cases))

        def timing(times, setup_s):
            n = len(cases)  # times holds whole rounds, cases in order
            case_s = sum(statistics.median(times[i::n]) for i in range(n))
            return {"ops_per_s": n / case_s,
                    "op_p50_s": statistics.median(times),
                    "op_tail_s": percentile(sorted(times), p),
                    "setup_s": statistics.median(setup_s)}

        scaled = timing(ph.scaled, setup_scaled)
        metrics = {k: (v, "1/s" if k == "ops_per_s" else "s")
                   for k, v in scaled.items()}
        metrics["peak_rss_mb"] = (ph.rss_mb, "MB")
        slowdown = [c / hostspeed.REFERENCE_S for c in host.samples]
        report.update(rounds=ph.rounds, timed_s=sum(ph.times),
                      samples=attempted, tail_percentile=p,
                      samples_beyond_tail=sum(t > scaled["op_tail_s"]
                                              for t in ph.scaled),
                      wall=timing(ph.times, setup),
                      host_slowdown={
                          "samples": len(slowdown),
                          "quartiles": statistics.quantiles(slowdown, n=4)})
    else:
        tracer = tracing.Tracer(tracing.TARGETS)
        plain, traced = drive_traced(cases, args.seconds, failures, tracer)
        failed = plain.failed + traced.failed
        attempted = len(plain.times) + len(traced.times)
        rounds = traced.round_counts
        if any(r != rounds[0] for r in rounds):
            problems.append("work counts differ between rounds")
        compare_saved_counts(args.workload, args.seed, rounds[0], problems)
        per_round = len(cases)
        selfs = tracer.self_times()
        overhead = (statistics.median(traced.round_s)
                    / statistics.median(plain.round_s))
        metrics = {t.metric: (selfs.get(t.span, 0.0) / len(traced.times), "s")
                   for t in tracing.TARGETS}
        metrics.update({m: (rounds[0].get(m, 0) / per_round, "count")
                        for m in tracing.COUNT_METRICS})
        metrics["trace.overhead"] = (overhead, "ratio")
        report.update(rounds_untraced=plain.rounds,
                      rounds_traced=traced.rounds,
                      spans=len(tracer.spans), counts_per_round=rounds[0],
                      tracing_overhead=f"the median traced round took "
                      f"{overhead:.3f} times as long as the median untraced "
                      "round")

    report.update(attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, failures=failures,
                  problems=problems)
    print(json.dumps(report, indent=1, sort_keys=True))
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # exec, not a child process: the same process carries on
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
