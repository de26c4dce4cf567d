#!/usr/bin/env python3
"""Benchmark of fishlab: fixed workloads, timed end to end and traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root.  One closed-loop caller in one process and
thread drives fishlab from outside, through its public functions and
fishlab.cli.main with stdout captured in memory.

Set-up (a fresh import of fishlab plus building the inputs) runs
SETUP_REPS times; setup_s is the median.  Then passes over the workload's
task list, in one seeded order, run back to back while the next pass is
expected to end within --seconds; every output is checked against ground
truth after its pass timer stops.  pass_s is the sum of unit floors (see
Run).  With --trace 1 the untraced passes get half the time and one more
pass runs under cProfile, whose self time and call counts are summed by the
file that defines each function, i.e. by layer.

Prints one detail record (run record, samples, spans, problems) and then,
as its last line, {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named
in BENCHMARK.json.  --out appends the detail record to a file, for
compare.py.  Exit status: 0 when every check passed, 1 when one failed,
2 when fishlab cannot be loaded or the workload has no tasks.
"""

import argparse
import cProfile
import fractions
import gc
import hashlib
import json
import os
import platform
import pstats
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FISHLAB_DIR = SRC / "fishlab"
FRACTIONS_FILE = Path(fractions.__file__).resolve()
SETUP_REPS = 15
MAX_PROBLEMS = 20


class CannotRun(Exception):
    """fishlab cannot be loaded, or the workload has nothing to run."""


class TaskFailed:
    """The output of a task that raised."""

    def __init__(self, message):
        self.message = message


def load_fishlab() -> None:
    if not (FISHLAB_DIR / "__init__.py").is_file():
        raise CannotRun(f"no fishlab sources in {FISHLAB_DIR}")
    sys.path.insert(0, str(SRC))


def pass_order(tasks, rng) -> list:
    """A random order of the tasks in which every task runs after the task
    whose output it consumes."""
    order, done, pending = [], set(), list(tasks)
    while pending:
        ready = [t for t in pending if t.after is None or t.after in done]
        if not ready:
            raise CannotRun(f"unsatisfiable task order: {[t.name for t in pending]}")
        task = rng.choice(ready)
        pending.remove(task)
        order.append(task)
        done.add(task.name)
    return order


def check_pass(order, outs) -> dict:
    problems = {}
    for task in order:
        out = outs[task.name]
        if isinstance(out, TaskFailed):
            problem = out.message
        else:
            try:
                problem = task.check(out, outs)
            except Exception:  # a check that raises is a failed check
                problem = "check raised: " + traceback.format_exc(limit=2)
        if problem:
            problems[task.name] = problem
    return problems


class Run:
    """Passes of one run: their timings, spans and check results.

    Each task's work is cut into units by its laps; an untraced pass
    records every unit's duration.  A unit's floor is its fastest duration
    over the passes.  Other tenants of a shared machine slow the CPU in
    bursts of milliseconds; the fastest of many short samples leaves those
    bursts out, so a sum of floors is steadier than a pass time.
    """

    def __init__(self):
        self.origin = time.perf_counter_ns()
        self.pass_s = []
        self.cpu_s = []
        self.units = defaultdict(list)  # task -> [[unit ns, ...] per untraced pass]
        self.profiles = {}  # task -> cProfile.Profile of the traced pass
        self.spans = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def elapsed_s(self) -> float:
        return (time.perf_counter_ns() - self.origin) / 1e9

    def one_pass(self, order, label, traced=False):
        """Run the tasks in order, each under its own profiler when traced,
        then check them; returns the outputs and the pass time in seconds."""
        gc.collect()
        outs, spans = {}, []
        clock = time.perf_counter_ns
        cpu_begin = time.process_time_ns()
        begin = clock()
        for task in order:
            marks = []
            lap = lambda: marks.append(clock())
            profiler = cProfile.Profile() if traced else None
            start = clock()
            if traced:
                profiler.enable()
            try:
                outs[task.name] = task.run(outs, lap)
            except Exception:  # recorded as a failed task; the pass goes on
                outs[task.name] = TaskFailed(traceback.format_exc(limit=3))
            if traced:
                profiler.disable()
                self.profiles[task.name] = profiler
            spans.append((task.name, start, clock(), marks))
        end = clock()
        self.cpu_s.append((time.process_time_ns() - cpu_begin) / 1e9)
        self.spans.append(self._span(label, None, begin, end))
        for name, start, stop, marks in spans:
            self.spans.append(self._span(name, label, start, stop))
            if not traced:
                bounds = [start] + marks + [stop]
                self.units[name].append([b - a for a, b in zip(bounds, bounds[1:])])
        problems = check_pass(order, outs)
        self.attempted += len(order)
        self.failed += len(problems)
        self.problems += [{"pass": label, "task": k, "problem": v} for k, v in problems.items()]
        return outs, (end - begin) / 1e9

    def _span(self, name, parent, start, end):
        return {"name": name, "parent": parent,
                "start_s": (start - self.origin) / 1e9, "end_s": (end - self.origin) / 1e9}

    def floors(self) -> dict:
        """Each task's sum of unit floors over the untraced passes, in
        seconds; the fastest whole task where the units do not line up."""
        out = {}
        for name, passes in self.units.items():
            if len({len(units) for units in passes}) == 1:
                out[name] = sum(map(min, zip(*passes))) / 1e9
            else:
                out[name] = min(map(sum, passes)) / 1e9
        return out


def layer_of(filename: str) -> str:
    path = Path(filename)
    if path.suffix != ".py":
        return "other"  # builtins and C functions
    path = path.resolve()
    if path.parent == FISHLAB_DIR and path.stem in workloads.LAYERS:
        return path.stem
    if path == FRACTIONS_FILE:
        return "fractions"
    return "other"


def layer_profile(profiler) -> tuple:
    """Self seconds and calls per layer, and calls per 'layer.function'."""
    self_s, calls, fn_calls = Counter(), Counter(), Counter()
    layers = {}
    for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(profiler).stats.items():
        if filename not in layers:
            layers[filename] = layer_of(filename)
        layer = layers[filename]
        self_s[layer] += tottime
        calls[layer] += ncalls
        fn_calls[f"{layer}.{func}"] += ncalls
    return self_s, calls, fn_calls


def tail_percentile(samples) -> tuple:
    """The highest of p99, p90 and p50 with at least ten samples beyond it,
    as (p, value), or (None, None)."""
    for p in (99, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None, None


def execute(setup, seed: int, seconds: float, trace: bool, workload: str) -> dict:
    setup_s, tasks = [], None
    for _ in range(SETUP_REPS):
        tasks = None
        gc.collect()
        start = time.perf_counter()
        tasks = setup(workloads.import_fishlab(), random.Random(seed))
        setup_s.append(time.perf_counter() - start)
    if not tasks:
        raise CannotRun("the workload has no tasks")
    origin = Path(sys.modules["fishlab"].__file__).resolve()
    if origin.parent != FISHLAB_DIR:
        raise CannotRun(f"fishlab was imported from {origin}, not from {FISHLAB_DIR}")

    # one order for every pass, so that garbage collection falls on the
    # same units in each pass and their floors include it
    order = pass_order(tasks, random.Random(seed))
    run = Run()
    budget = seconds / 2 if trace else seconds
    while True:
        _, took = run.one_pass(order, f"pass-{len(run.pass_s)}")
        run.pass_s.append(took)
        if run.elapsed_s() + statistics.median(run.pass_s) > budget:
            break
    floors = run.floors()
    p, p_value = tail_percentile(run.pass_s)
    detail = {
        "setup_s": setup_s,
        "pass_s": {"floor": sum(floors.values()), "median": statistics.median(run.pass_s),
                   "n": len(run.pass_s), "percentile": p, "percentile_value": p_value,
                   "samples": run.pass_s, "cpu_samples": run.cpu_s},
        "units": {name: len(passes[0]) for name, passes in run.units.items()},
    }
    if trace:
        outs, traced = run.one_pass(order, "traced", traced=True)
        self_s, calls, task_calls = Counter(), Counter(), {}
        for name, profiler in run.profiles.items():
            task_self_s, task_layer_calls, task_calls[name] = layer_profile(profiler)
            self_s.update(task_self_s)
            calls.update(task_layer_calls)
        metrics = {}
        for layer in workloads.LAYERS + ("fractions",):
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.calls"] = calls[layer]
        metrics["other.self_s"] = self_s["other"]
        metrics["trace.overhead_s"] = traced - statistics.median(run.pass_s)
        metrics.update(workloads.derived_metrics(workload, outs, self_s, task_calls))
        for name, value in floors.items():
            metrics[f"task.{name}_s"] = value
        detail["traced_pass_s"] = traced
    else:
        metrics = {
            "pass_s": sum(floors.values()),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (run.attempted - run.failed) / run.attempted,
        }
    detail.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "correct": run.failed == 0,
        "problems": run.problems[:MAX_PROBLEMS],
        "spans": run.spans,
        "values": metrics,
    })
    return detail


def _read(path: Path):
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    sha = _read(ROOT / ".git" / ref)
    if sha:
        return sha.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(FISHLAB_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def loadavg():
    text = _read(Path("/proc/loadavg"))
    return [float(x) for x in text.split()[:3]] if text else None


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the detail record to this file")
    args = parser.parse_args(argv)

    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
        "FISHLAB_MAX_N": os.environ.get("FISHLAB_MAX_N"),
    }
    try:
        load_fishlab()
        record["src_sha256"] = source_sha256()
        declared = declared_metrics(bool(args.trace))
        detail = execute(workloads.SETUPS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.workload)
    except (CannotRun, OSError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    record["loadavg_end"] = loadavg()

    values = detail.pop("values")
    # a declared metric the workload does not exercise reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "record": record, "metrics": metrics, **detail}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(detail) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
