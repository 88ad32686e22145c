"""The chenlie benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a chenlie checkout; the program is imported from
``src/``.  A run is one closed-loop client: the next job starts when the
previous one returns (``cli`` jobs are child processes, one at a time).  Jobs
come from a stream seeded by ``--seed``, in whole rounds of the same job
kinds, until the timed job work reaches ``--seconds``.  Every job's output
is checked, untimed, against ``refs``.  Set-up is timed on its own.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, and reports per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
``--smoke`` runs one round of every workload and reports each.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostclock
import spans
from jobs import OperationFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("loops", "lie", "melnikov", "cli")
SETUP_SAMPLES = (3, 7)       # in-process: the run itself plus fresh children, at least 3 and
SETUP_PROBE_BUDGET_S = 2.0   # up to 7 while the children took less than this in all
CLI_STARTUP_SAMPLES = 9
YARDSTICK_EVERY_S = 0.1      # jobs shorter than this share their neighbours' yardsticks
CLI_KINDS = ("project", "integrand", "magnus", "lcs", "eval", "hall", "ck", "pair",
             "islie", "m5check", "monodromy", "expand_deep")


def _require_program():
    """Refuse to run anywhere but the root of a chenlie checkout."""
    if not os.path.isfile(os.path.join(SRC, "chenlie", "__init__.py")):
        sys.exit(f"error: no chenlie sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)


def _pin_to_one_cpu() -> set:
    """Run the jobs, the yardstick and the children on one CPU, so that the
    yardstick sees the speed the jobs see; returns the CPUs allowed before.
    The cli jobs run unpinned (see run_cli)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


class Tally:
    """Outcome of driving a job stream."""

    def __init__(self):
        self.latencies = []          # (kind, scaled seconds), round after round
        self.round_size = 0
        self.work = 0.0              # unscaled seconds of job work
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: dict = {}

    def note(self, text: str):
        self.notes[text] = self.notes.get(text, 0) + 1

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def jobs_per_s(self) -> float:
        """Completed jobs per second of job work, with each slot of a round
        taken at its median over the rounds."""
        n = self.round_size
        slots = [statistics.median(t for _, t in self.latencies[j::n]) for j in range(n)]
        return self.completed / (len(self.latencies) // n) / sum(slots)


def drive(stream, budget_s: float, rounds: int = None) -> Tally:
    """Run whole rounds until the unscaled job work reaches budget_s (or for
    the given number of rounds).  Checks run between jobs, outside the
    timing.  A yardstick is taken before a job once YARDSTICK_EVERY_S of job
    work has passed since the last one; each job is scaled by the mean of
    the yardsticks on either side of it."""
    tally = Tally()
    pending: list = []               # (kind, wall) since the last yardstick
    last = hostclock.yardstick()

    def flush():
        nonlocal last
        now = hostclock.yardstick()
        tally.latencies += [(kind, hostclock.scale(wall, last, now)) for kind, wall in pending]
        pending.clear()
        last = now

    done = 0
    while (tally.work < budget_s) if rounds is None else (done < rounds):
        jobs = next(stream)
        if tally.round_size not in (0, len(jobs)):
            raise ValueError("rounds of one workload must have the same jobs")
        tally.round_size = len(jobs)
        for job in jobs:
            if sum(wall for _, wall in pending) >= YARDSTICK_EVERY_S:
                flush()
            out, ok = None, True
            t0 = time.perf_counter()
            try:
                out = job.run()
            except OperationFailed as e:
                ok = False
                tally.note(f"{job.kind}: {e}")
            except Exception as e:  # a program fault: count it and keep the client running
                ok = False
                tally.note(f"{job.kind}: {type(e).__name__}: {str(e)[:200]}")
            dt = time.perf_counter() - t0
            pending.append((job.kind, dt))
            tally.work += dt
            tally.attempted += 1
            if ok:
                try:
                    job.check(out)
                except OperationFailed as e:
                    ok = False
                    tally.note(f"{job.kind}: {e}")
                except Exception:
                    tally.wrong += 1
                    tally.note(f"{job.kind}: wrong output\n{traceback.format_exc(limit=3)}")
            if not ok:
                tally.failed += 1
        done += 1
    flush()
    return tally


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _child_wall(cmd, env=None) -> tuple:
    """(wall, scaled) seconds of a child process, start to exit."""
    return hostclock.timed(subprocess.run, cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           check=True)[1:]


def _medians(pairs) -> tuple:
    pairs = list(pairs)
    return tuple(statistics.median(p[i] for p in pairs) for i in (0, 1))


def _setup_probe(workload: str, seed: int) -> float:
    """import chenlie plus the workload's set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
         "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def _set_up(workload: str, seed: int):
    """import chenlie (through the workload module) and the workload's set-up."""
    mod = _load(workload)
    return mod, mod.setup(seed)


def _load(workload: str):
    mod = importlib.import_module(f"wl_{workload}")
    chenlie = sys.modules.get("chenlie")
    if chenlie is not None and not os.path.abspath(chenlie.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: chenlie was imported from {chenlie.__file__}, not from {SRC}")
    return mod


def _end_to_end(tally: Tally, setup_s: float, rss_kib: int) -> dict:
    return {
        "jobs_per_s": _metric(tally.jobs_per_s(), "jobs/s"),
        "job_p50_ms": _metric(1000 * statistics.median(t for _, t in tally.latencies), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_kib / 1024, "MiB"),
    }


def _layer_metrics(functions: dict, counters: dict, counters_before: dict, traced: Tally,
                   startup_s: float) -> dict:
    """Per-function calls/self time, ratios, and each layer's share of the
    traced job time (startup_s is interpreter start plus import, cli only)."""
    m = {}
    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for name, f in functions.items():
        m[f"{name}.calls"] = _metric(f["calls"], "count")
        m[f"{name}.self_s"] = _metric(f["self_s"], "s")
        if name in spans.PRODUCT_KERNELS:
            m[f"{name}.terms_out"] = _metric(f["terms_out"], "count")
        layer_self[spans.layer_of(name)] += f["self_s"]
    ps = functions["chenint.path_series"]
    m["chenint.path_series.builds_per_loop"] = _metric(
        ps["calls"] / ps["distinct_loops"] if ps["distinct_loops"] else 0.0, "ratio")
    if "projection_hits" in counters:
        hits = counters["projection_hits"] - counters_before.get("projection_hits", 0)
        misses = counters["projection_misses"] - counters_before.get("projection_misses", 0)
        m["liealg.projection_cache.hit_ratio"] = _metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
    if "shuffle_cache_entries" in counters:
        m["ncalg.shuffle_cache.entries"] = _metric(counters["shuffle_cache_entries"], "count")
    total = traced.work
    for layer, s in layer_self.items():
        m[f"layer.{layer}.self_share"] = _metric(s / total, "ratio")
    m["layer.startup.self_share"] = _metric(startup_s / total, "ratio")
    rest = total - startup_s - sum(layer_self.values())
    m["layer.other.self_share"] = _metric(max(rest, 0.0) / total, "ratio")
    return m


def _trace_summary(untraced: Tally, traced: Tally) -> dict:
    plain, slow = untraced.jobs_per_s(), traced.jobs_per_s()
    return {
        "trace.jobs_per_s_untraced": _metric(plain, "jobs/s"),
        "trace.jobs_per_s_traced": _metric(slow, "jobs/s"),
        "trace.overhead": _metric(plain / slow, "ratio"),
    }


def _cli_metrics(tally: Tally = None, interp_s=0.0, import_s=0.0) -> dict:
    m = {"cli.interp_s": _metric(interp_s, "s"), "cli.import_s": _metric(import_s, "s")}
    for kind in CLI_KINDS:
        times = [t for k, t in tally.latencies if k == kind] if tally else []
        m[f"cli.{kind}.p50_ms"] = _metric(1000 * statistics.median(times) if times else 0.0, "ms")
    return m


def _write_trace(workload: str, seed: int, doc: dict):
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool):
    if not trace:
        (mod, state), _, scaled = hostclock.timed(_set_up, workload, seed)
        samples = [scaled]
        t0 = time.perf_counter()
        least, most = SETUP_SAMPLES
        while len(samples) < least or (
                len(samples) < most and time.perf_counter() - t0 < SETUP_PROBE_BUDGET_S):
            samples.append(_setup_probe(workload, seed))
        tally = drive(mod.rounds(state, seed), seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return tally, _end_to_end(tally, statistics.median(samples), rss)
    mod, state = _set_up(workload, seed)
    stream = mod.rounds(state, seed)
    untraced = drive(stream, seconds / 2)
    before = spans.private_counters()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = drive(stream, seconds / 2)
    finally:
        tracer.uninstall()
    functions = tracer.summary()
    metrics = _layer_metrics(functions, spans.private_counters(), before, traced, 0.0)
    metrics.update(_trace_summary(untraced, traced))
    metrics.update(_cli_metrics())
    _write_trace(workload, seed, {"functions": functions, "spans": tracer.spans,
                                  "dropped_spans": tracer.dropped})
    return _merge(untraced, traced), metrics


def _merge(a: Tally, b: Tally) -> Tally:
    out = Tally()
    for t in (a, b):
        out.latencies += t.latencies
        out.round_size = t.round_size
        out.work += t.work
        out.attempted += t.attempted
        out.failed += t.failed
        out.wrong += t.wrong
        for k, v in t.notes.items():
            out.notes[k] = out.notes.get(k, 0) + v
    return out


def run_cli(seed: int, seconds: float, trace: bool):
    mod = _load("cli")
    state = mod.setup(seed, ROOT, OUT_DIR)
    stream = mod.rounds(state, seed)
    if not trace:
        # Fresh interpreters are timed pinned, next to the yardstick; the jobs
        # then run unpinned, as a CLI call does for its users (pinned, the
        # jobs' figures spread more from run to run, not less).
        allowed = _pin_to_one_cpu()
        samples = [_child_wall([sys.executable, "-c", "import chenlie"], state.env)[1]
                   for _ in range(CLI_STARTUP_SAMPLES)]
        os.sched_setaffinity(0, allowed)
        tally = drive(stream, seconds)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return tally, _end_to_end(tally, statistics.median(samples), rss)
    interp = _medians(_child_wall([sys.executable, "-c", "pass"]) for _ in range(CLI_STARTUP_SAMPLES))
    imports = _medians(_child_import_s(state.env) for _ in range(CLI_STARTUP_SAMPLES))
    untraced = drive(stream, seconds / 2)
    state.tracing = True
    traced = drive(stream, seconds / 2)
    functions, counters = _collect_children(state)
    startup = (interp[0] + imports[0]) * traced.attempted      # unscaled, as the job work is
    metrics = _layer_metrics(functions, counters, {}, traced, startup)
    metrics.update(_trace_summary(untraced, traced))
    metrics.update(_cli_metrics(untraced, interp[1], imports[1]))
    _write_trace("cli", seed, {"functions": functions, "children": traced.attempted})
    return _merge(untraced, traced), metrics


def _child_import_s(env) -> tuple:
    """(wall, scaled) seconds of import chenlie timed inside a fresh
    interpreter, scaled by the yardstick around the child."""
    code = "import time; t = time.perf_counter(); import chenlie; print(time.perf_counter() - t)"
    before = hostclock.yardstick()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                         text=True, check=True)
    wall = float(out.stdout)
    return wall, hostclock.scale(wall, before, hostclock.yardstick())


def _collect_children(state):
    """Sum the traced children's aggregates; cache counters are summed too,
    except the shuffle-cache size, of which the largest is kept."""
    functions = {name: {"calls": 0, "self_s": 0.0, "terms_out": 0} for name in spans.traced_names()}
    functions["chenint.path_series"]["distinct_loops"] = 0
    counters: dict = {}
    for path in state.trace_files:
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        for name, f in doc["functions"].items():
            for key, value in f.items():
                functions[name][key] += value
        for key, value in doc["counters"].items():
            if key == "shuffle_cache_entries":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    state.trace_files.clear()
    return functions, counters


def smoke() -> int:
    """One round of every workload, checked; exit status 0 when all agree."""
    bad = 0
    for workload in WORKLOADS:
        if workload == "cli":
            mod = _load("cli")
            state = mod.setup(0, ROOT, OUT_DIR)
        else:
            mod = _load(workload)
            state = mod.setup(0)
        tally = drive(mod.rounds(state, 0), 0.0, rounds=1)
        print(f"{workload}: {tally.attempted} jobs, {tally.failed} failed, {tally.wrong} wrong, "
              f"{tally.work:.2f} s")
        for text, n in tally.notes.items():
            print(f"  {n} x {text}")
        bad += tally.wrong
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round of every workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_program()
    if args.workload != "cli":
        _pin_to_one_cpu()
    if args.setup_probe:
        print(hostclock.timed(_set_up, args.workload, args.seed)[2])
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "cli":
        tally, metrics = run_cli(args.seed, args.seconds, bool(args.trace))
    else:
        tally, metrics = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace))
    for text, n in tally.notes.items():
        print(f"{n} x {text}", file=sys.stderr)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
