"""Record the simulate workload's guest and host cycles for a range of seeds.

    python3 perfbench/record_cycles.py 0 32

adds them to ``perfbench/expected_cycles.json``, one seed at a time; the
simulate workload checks every operation of a recorded seed against it.
Re-record only when the workload's inputs change: a change of the program
that moves these cycles is a change of its results, which the check exists
to catch.
"""

from __future__ import annotations

import json
import sys

import run


def main(first: int, stop: int) -> int:
    run.load_repro()
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    path = workloads.Simulate.REFERENCE
    doc = json.loads(path.read_text())
    for seed in range(first, stop):
        sim = workloads.Simulate(seed, "full")
        if doc["r"] != sim.r:
            doc = {"r": sim.r, "seeds": {}}
        sim.reference = {}
        sim.setup(tracer)
        for _, fn in sim.ops():
            fn(tracer)
        doc["seeds"][str(seed)] = {k: list(v) for k, v in sorted(sim.reference.items())}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: {len(sim.reference)} operations", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
