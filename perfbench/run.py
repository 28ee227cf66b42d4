"""The repository's benchmark: one workload per run, every output checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload embed --seed 1 --seconds 30 --trace 0

Workloads are ``embed``, ``simulate``, ``delivery`` and ``runtime`` (see
``perfbench/catalogue.json`` for why each was chosen and which metrics it
moves).  A run builds the workload's inputs from ``--seed`` three times
(``setup_s`` is the import time plus the median build), then repeats whole
passes over the workload's operations, one at a time in a closed loop, until
``--seconds`` are used up.  Every operation's output is checked; a failed
check counts against the operation and the run carries on.

Times are scaled to a reference machine speed: a fixed pure-Python loop is
timed between operations, and each time is multiplied by the loop's
reference time over its measured time (see :class:`Passes`).  On a shared
machine the speed drifts by tens of percent within seconds; the scaling
halves the run-to-run spread.  The raw pass walls are in the detail line.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, measured with the benchmark's tracing off.  With ``--trace 1`` the
run alternates untraced and traced passes, and the last line holds the
per-layer metrics of the traced ones; the spans go to ``perfbench/out/``.  The line before
the last holds details that are not gated: the seed, the tail percentile
and its sample count, the error rate and the workload's own throughputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
#: iterations of the calibration loop, and its median seconds on the
#: reference machine (2 vCPUs, Python 3.11.7), to which times are scaled
CAL_ITERS = 100_000
CAL_REF_S = 0.0079
#: calibration readings on each side of an operation that set its speed
CAL_WINDOW = 3
#: the tail percentile: the highest of 99, 95, 90 and 75 with at least ten
#: samples beyond it in a run of ``run_seconds`` on every workload; fixed, so
#: that the metric does not hop between percentiles as pass counts vary
TAIL_PCT = 75
#: counts that combine by maximum, not by sum
MAX_COUNTS = ("core.max_dilation",)


def load_repro() -> None:
    """Import the program from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro.analysis.oracle  # noqa: F401  (the layers the workloads call)
    import repro.service.scenario  # noqa: F401
    import repro.simulate  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def merge(total: Counter, counts: Counter) -> None:
    for key, value in counts.items():
        if key in MAX_COUNTS:
            total[key] = max(total[key], value)
        else:
            total[key] += value


def op_latencies(passes: "Passes") -> tuple[float, float, int]:
    """Median and ``TAIL_PCT`` percentile (nearest rank) of the operations'
    latencies, and the samples beyond the percentile.

    Each operation counts with the median of its latencies over the passes
    (every pass runs the same operations), so one burst of noise or the
    first pass's cold caches cannot move an operation across the ranks.
    """
    runs: dict[str, list[float]] = {}
    for label, latency in zip(passes.labels, passes.latencies):
        runs.setdefault(label, []).append(latency)
    typical = sorted(statistics.median(v) for v in runs.values())
    value = typical[max(1, math.ceil(TAIL_PCT / 100 * len(typical))) - 1]
    beyond = sum(len(v) for v in runs.values() if statistics.median(v) > value)
    return statistics.median(typical), value, beyond


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i
    return time.perf_counter() - t0


def scaled(fn, *args) -> float:
    """Seconds ``fn(*args)`` takes, scaled to the reference speed by the
    calibration loop timed just before and just after."""
    before = calibrate()
    t0 = time.perf_counter()
    fn(*args)
    raw = time.perf_counter() - t0
    return raw * CAL_REF_S / statistics.fmean((before, calibrate()))


class Passes:
    """Whole passes over a workload's operations, in one tracing mode.

    The calibration loop runs between operations, and each operation's
    latency is scaled by ``CAL_REF_S`` over the median of the ``CAL_WINDOW``
    readings on either side of it: the machine's speed drifts by tens of
    percent over seconds, and the scaling cancels the drift the program and
    the loop share, while the median keeps one noisy reading from moving an
    operation.  The raw pass walls are kept too.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.raw_walls: list[float] = []
        self.totals: list[Counter] = []
        self.attempted = 0
        self.failed = 0
        self.first_pass_rss_mb: float | None = None

    def one(self, workload, tracer) -> None:
        counts: Counter = Counter()
        raws, cals = [], [calibrate()]
        for label, fn in workload.ops():
            self.attempted += 1
            self.labels.append(label)
            if tracer.enabled:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                with tracer.span("op", label=label):
                    merge(counts, fn(tracer))
            except Exception:  # a failed operation is counted, not fatal
                self.failed += 1
                print(f"operation {label} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            if tracer.enabled:
                tracer.drain()
            raws.append(time.perf_counter() - t0)
            cals.append(calibrate())
        latencies = [  # cals[i] and cals[i + 1] are the readings next to op i
            raw * CAL_REF_S / statistics.median(cals[max(0, i + 1 - CAL_WINDOW):i + 1 + CAL_WINDOW])
            for i, raw in enumerate(raws)
        ]
        self.latencies += latencies
        self.walls.append(sum(latencies))
        self.raw_walls.append(sum(raws))
        self.totals.append(counts)
        gc.collect()  # each pass starts from a clean heap, as a new process would
        if self.first_pass_rss_mb is None:
            self.first_pass_rss_mb = peak_rss_mb()

    @property
    def per_pass(self) -> Counter:
        return self.totals[0]

    def rate(self, key: str) -> float:
        return sum(t[key] for t in self.totals) / sum(self.walls)


def run_passes(workload, tracer, budget: float, modes: tuple[bool, ...]) -> list[Passes]:
    """Passes in each tracing mode of ``modes`` in turn, until the budget ends."""
    runs = [Passes() for _ in modes]
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        for passes, traced in zip(runs, modes):
            tracer.enabled = traced
            passes.one(workload, tracer)
        tracer.enabled = False
        rounds.append(time.perf_counter() - t0)
        # start another round only if it should end within the budget
        if time.perf_counter() - start + statistics.median(rounds) > budget:
            return runs


def end_to_end(passes: Passes, setup_s: float) -> tuple[dict, dict]:
    p50, value, beyond = op_latencies(passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(passes.walls),
        "op_p50_s": p50,
        "op_tail_s": value,
        "guest_nodes_per_s": passes.rate("nodes"),
        "peak_rss_mb": passes.first_pass_rss_mb,
    }
    detail = {
        "op_tail_percentile": TAIL_PCT,
        "op_tail_samples_beyond": beyond,
        "operations": len(passes.latencies),
        "pass_walls_s": passes.walls,
        "raw_pass_walls_s": passes.raw_walls,
        "messages_per_s": passes.rate("messages"),
        "jobs_per_s": passes.rate("jobs"),
        "sim_cycles": passes.per_pass["sim_cycles"],
        "peak_rss_mb_end_of_run": peak_rss_mb(),
    }
    return metrics, detail


#: per-layer time metrics and the benchmark span each one is the self time of
LAYER_SPANS = {
    "core.theorem1_s": "core.theorem1",
    "core.report_s": "core.report",
    "separators.flow_embed_s": "separators.flow_embed",
    "programs.build_s": "programs.build",
    "simulate.guest_s": "simulate.guest",
    "deliver.vector_s": "deliver.vector",
    "deliver.classic_s": "deliver.classic",
    "runtime.build_s": "runtime.build",
    "runtime.step_s": "runtime.step",
    "runtime.restore_s": "runtime.restore",
    "runtime.resume_s": "runtime.resume",
}
#: per-layer counts copied from the pass totals
PASS_COUNTS = (
    "faults.reroutes", "faults.corrupted", "faults.retransmits",
    "faults.quarantined", "faults.failed", "faults.silent",
    "runtime.checkpoint_bytes", "runtime.checkpoints", "runtime.supersteps",
    "runtime.repairs", "runtime.integrity.corrupted",
    "runtime.integrity.retransmits", "runtime.integrity.quarantined",
    "runtime.integrity.silent", "core.max_dilation",
)
#: per-layer counts read from the program's ``repro.obs`` counters
OBS_COUNTS = (
    "separator.flow.dinic_calls", "separator.paper.calls",
    "separator.flow.balance_violations", "separator.flow.size_violations",
)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, untraced: Passes, traced: Passes) -> tuple[dict, dict]:
    from tracing import SETUP_OP

    n = len(traced.walls)
    spans = tracer.spans
    own = tracer.self_times()
    by_name: Counter = Counter()
    setup: Counter = Counter()
    adaptive = 0.0
    covered = 0.0
    for i, self_s in own.items():
        s = spans[i]
        if s.op == SETUP_OP:
            setup[s.name] += self_s
            continue
        by_name[s.name] += self_s / n
        if s.attrs.get("variant") == "adaptive":
            adaptive += self_s / n
        if s.parent is not None and spans[s.parent].name == "op":
            covered += s.duration
    program = Counter()
    for s in spans:
        if s.source == "program" and s.op != SETUP_OP:
            program[s.name] += s.duration / n
    counts = traced.per_pass
    obs_counts = {k: v / n for k, v in tracer.counters.items()}
    m = {name: by_name[span] for name, span in LAYER_SPANS.items()}
    # the checkpointed run repeats the uninterrupted run's steps and adds
    # the checkpoint writes; the difference is the checkpoint layer
    m["runtime.checkpoint_s"] = by_name["runtime.checkpointed"] - m["runtime.step_s"]
    # span times are raw seconds, so they are compared with raw pass walls
    traced_wall = statistics.fmean(traced.raw_walls)
    hits = obs_counts.get("oracle.row_cache.hit", 0)
    misses = obs_counts.get("oracle.row_cache.miss", 0)
    m.update({
        "trees.make_tree_s": setup["trees.make_tree"] / SETUP_REPS,
        "core.theorem1_nodes_per_s": ratio(counts["theorem1_nodes"], m["core.theorem1_s"]),
        "core.final_spills": counts["layout.final_spill_count"],
        "oracle.bfs_rows_s": program["oracle.bfs_rows"],
        "oracle.row_cache.hit_ratio": ratio(hits, hits + misses),
        "simulate.guest_share": ratio(m["simulate.guest_s"], traced_wall),
        "deliver.vector_msgs_per_s": ratio(counts["vector_messages"], m["deliver.vector_s"]),
        "deliver.classic_msgs_per_s": ratio(counts["classic_messages"], m["deliver.classic_s"]),
        "routing.adaptive_s": adaptive,
        "deliver.host_s_per_sim_cycle": ratio(
            m["deliver.vector_s"] + m["deliver.classic_s"], counts["sim_cycles"]
        ),
        "deliver.useful_ratio": ratio(
            counts["deliver.delivered"], counts["messages"] + counts["faults.retransmits"]
        ),
        "runtime.batch_fallbacks": sum(
            v for k, v in counts.items() if k.startswith("runtime.batch_fallback.")
        ),
        "obs.trace_overhead_ratio": ratio(
            statistics.median(traced.walls), statistics.median(untraced.walls)
        ),
        "obs.span_coverage": ratio(covered, sum(traced.raw_walls)),
    })
    m.update({k: counts[k] for k in PASS_COUNTS})
    m.update({k: obs_counts.get(k, 0) for k in OBS_COUNTS})
    shares = {
        k: round(ratio(v, traced_wall), 4)
        for k, v in m.items() if k in LAYER_SPANS or k == "runtime.checkpoint_s"
    }
    detail = {
        "layer_self_shares": shares,
        "top_layer": max(shares, key=shares.get),
        "program_spans_s": {k: round(v, 6) for k, v in program.items()},
        "program_counters": obs_counts,
    }
    return m, detail


def measure(name: str, seed: int, seconds: float, traced: bool, size: str = "full",
            prepare=None) -> tuple[dict, dict]:
    """Run one workload; return the result line and the detail line.

    ``prepare`` (if given) receives the workload object before set-up; the
    self-test uses it to plant a wrong expectation.
    """
    import_s = scaled(load_repro)
    import workloads
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if traced else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    tracer.enabled = traced
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.make(name, seed, size, Path(workdir))
        if prepare is not None:
            prepare(workload)
        builds = [scaled(workload.setup, tracer) for _ in range(SETUP_REPS)]
        setup_s = import_s + statistics.median(builds)
        if traced:
            runs = run_passes(workload, tracer, seconds, (False, True))
            values, extra = per_layer(tracer, *runs)
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        else:
            runs = run_passes(workload, tracer, seconds, (False,))
            values, extra = end_to_end(runs[0], setup_s)
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    # every pass runs the same operations on the same inputs
    totals = [t for p in runs for t in p.totals]
    steady = all(t == totals[0] for t in totals)
    if not steady:
        print("error: pass totals differ between passes", file=sys.stderr)
    detail = {
        "workload": name,
        "seed": seed,
        "size": size,
        "error_rate": failed / attempted,
        **extra,
    }
    if name == "simulate":
        detail["cycles_reference"] = "recorded" if workload.recorded else "first pass"
    result = {
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("embed", "simulate", "delivery", "runtime"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
