"""Command-line interface: ``xtree-embed``.

Subcommands
-----------
``embed``   run the Theorem 1 construction on a generated tree and print the
            quality report (optionally the full placement).
``verify``  run every paper-claim verifier at a chosen size and print the
            paper-vs-measured table.
``simulate`` run a tree program on the X-tree through the embedding and
            report cycles and slowdown; ``--trace PATH`` exports a JSONL
            event/metrics trace, ``--metrics`` prints per-cycle metrics,
            timing spans and counters (see ``repro.obs``); ``--router``
            picks the next-hop policy (``deterministic`` smallest-index
            shortest path, or congestion-aware ``adaptive`` — see
            ``repro.simulate.routing``); ``--faults schedule.json`` injects
            link/node failures while messages are in flight and prints a
            degraded-mode fault report (exit 1 if messages were lost),
            ``--ttl N`` bounds each message's cycles in flight.
``runtime`` multiplex several guest programs on one host network
            (``repro.runtime``): a scenario document (``repro.service``)
            names the host, the job specs and the runtime knobs, which
            flags override only when given; ``--faults`` plays a fault
            schedule on the global clock (node deaths repair online and
            migrate stranded messages); ``--checkpoint PATH`` resumes
            from the file when it exists and rewrites it as the run
            progresses — kill the process at any point and re-run the
            same command to continue bit-identically.
``tune``    search a parametric policy template (``repro.policy.tune``)
            against scenario workloads and write the winning
            decision-tree document plus a reproducible tuning log.

``simulate``, ``runtime``, and ``service run`` all take ``--policy FILE``
pointing at a ``repro.policy`` decision-tree document (e.g. one written
by ``tune``); its ``domain`` decides whether it replaces the router
(``routing``) or the scheduler (``scheduling``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis.tables import format_claim_reports, markdown_table
from .core.verification import (
    verify_figure1,
    verify_figure2,
    verify_inorder,
    verify_lemma3,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)
from .core.xtree_embed import theorem1_embedding
from .networks.xtree import addr_to_string
from .separators import SEPARATORS as SEPARATOR_NAMES
from .simulate import ENGINES, PROGRAMS, ROUTERS, simulate_on_guest, simulate_on_host
from .trees.binary_tree import theorem1_guest_size
from .trees.generators import FAMILIES, make_tree

__all__ = ["main"]


def _add_tree_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(FAMILIES), default="random", help="guest tree family")
    p.add_argument("--height", type=int, default=4, help="X-tree height r (guest gets 16*(2^(r+1)-1) nodes)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


def _make_tree(args) -> tuple[int, object]:
    n = theorem1_guest_size(args.height)
    return n, make_tree(args.family, n, seed=args.seed)


def _cmd_embed(args) -> int:
    n, tree = _make_tree(args)
    result = theorem1_embedding(
        tree, validate=args.validate, separator=args.separator
    )
    rep = result.embedding.report()
    print(f"guest: {args.family} tree, n={n}; host: X({args.height}); "
          f"separator {args.separator}")
    print(rep)
    extras = {
        k: v for k, v in result.stats.as_dict().items() if v and k != "max_pieces_per_leaf"
    }
    if extras:
        print(f"fallback stats: {extras}")
    if args.show_placement:
        for v in sorted(result.embedding.phi):
            addr = result.embedding.phi[v]
            print(f"  {v} -> {addr} ({addr_to_string(addr) or 'eps'})")
    return 0 if rep.dilation <= 3 and rep.load_factor == 16 else 1


def _cmd_verify(args) -> int:
    n, tree = _make_tree(args)
    from .core.verification import verify_corollary_q8, verify_imbalance_estimations

    reports = [
        verify_figure1(args.height),
        verify_figure2(args.height),
        verify_theorem1(tree),
        verify_theorem2(tree),
        verify_lemma3(args.height),
        verify_inorder(args.height),
        verify_imbalance_estimations(tree),
        verify_corollary_q8(make_tree(args.family, max(16, n // 2), seed=args.seed)),
    ]
    from .trees.binary_tree import theorem3_guest_size

    reports.append(verify_theorem3(make_tree(args.family, theorem3_guest_size(args.height), seed=args.seed)))
    if args.height + 5 >= 5:
        reports.append(verify_theorem4(args.height + 5, seeds=(args.seed,)))
    print(format_claim_reports(reports))
    return 0 if all(r.passed for r in reports) else 1


def _load_policy_doc(path):
    """Load + validate one policy document, or print the error and return
    None (callers turn that into exit 1)."""
    from .policy import PolicyDoc

    try:
        return PolicyDoc.from_json(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad policy document {path}: {exc}", file=sys.stderr)
        return None


def _cmd_simulate(args) -> int:
    from .obs import NullRecorder, TraceRecorder

    router = args.router
    router_label = args.router
    if args.policy:
        doc = _load_policy_doc(args.policy)
        if doc is None:
            return 1
        if doc.domain != "routing":
            print(
                f"error: policy document {doc.name!r} has domain "
                f"{doc.domain!r}; `simulate` runs a single program, so only "
                "routing-domain documents apply (use `runtime` for "
                "scheduling policies)",
                file=sys.stderr,
            )
            return 1
        router = doc.as_dict()
        router_label = f"tree:{doc.name}"

    n, tree = _make_tree(args)
    result = theorem1_embedding(tree, separator=args.separator)
    faults = None
    if args.faults:
        from .simulate import FaultSchedule

        try:
            faults = FaultSchedule.from_json(Path(args.faults))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot load fault schedule {args.faults}: {exc}", file=sys.stderr)
            return 1
    fault_mode = faults is not None or args.ttl is not None
    rows = []
    names = [args.program] if args.program else sorted(PROGRAMS)
    observing = bool(args.trace or args.metrics)
    recorder = TraceRecorder() if observing else NullRecorder()
    reports = []
    for name in names:
        prog = PROGRAMS[name](tree)
        guest = simulate_on_guest(prog)
        host = simulate_on_host(
            prog,
            result.embedding,
            link_capacity=args.link_capacity,
            recorder=recorder,
            router=router,
            faults=faults,
            ttl=args.ttl,
            engine=args.engine,
        )
        if fault_mode:
            reports.append((name, host.report))
            host = host.result
        rows.append(
            [
                name,
                prog.n_messages,
                guest.total_cycles,
                host.total_cycles,
                f"{host.total_cycles / max(guest.total_cycles, 1):.2f}",
            ]
        )
    print(
        f"guest: {args.family} tree, n={n}; host: X({args.height}); "
        f"link capacity {args.link_capacity}; router {router_label}; "
        f"engine {args.engine}"
        + (f"; faults {args.faults}" if args.faults else "")
        + (f"; ttl {args.ttl}" if args.ttl is not None else "")
    )
    print(markdown_table(["program", "messages", "guest cycles", "host cycles", "slowdown"], rows))
    if fault_mode:
        for name, report in reports:
            print(f"fault report [{name}]: {report}")
    if args.trace:
        try:
            recorder.to_jsonl(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote trace: {args.trace} ({len(recorder.events)} events, "
              f"{len(recorder.cycles)} cycle samples)")
    if args.metrics:
        from .analysis.trace_report import metrics_report

        print()
        print(metrics_report(recorder))
    if fault_mode and any(not rep.complete for _, rep in reports):
        return 1
    return 0


def _cmd_runtime(args) -> int:
    import json
    from dataclasses import replace

    from .obs import NullRecorder, TraceRecorder
    from .runtime import AdmissionError, JobSpec, Runtime
    from .service import Scenario
    from .simulate.faults import RepairError

    observing = bool(args.trace or args.metrics)
    recorder = TraceRecorder() if observing else NullRecorder()

    ckpt = Path(args.checkpoint) if args.checkpoint else None
    if ckpt is not None and ckpt.exists():
        # resume: the checkpoint is the complete state; the scenario only
        # seeded the original run, so the driving knobs come from the flags
        try:
            rt = Runtime.restore_json(ckpt, recorder=recorder)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot restore checkpoint {ckpt}: {exc}", file=sys.stderr)
            return 1
        print(f"resumed from {ckpt}: cycle {rt.cycle}, "
              f"{len(rt.active_jobs())}/{len(rt.jobs)} jobs still active")
        batch = args.batch
        every = args.checkpoint_every or Scenario.checkpoint_every
    else:
        try:
            scenario = Scenario.from_json(args.config)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: bad job config {args.config}: {exc}", file=sys.stderr)
            return 1
        # flags override the document only when given
        flags = {"engine": args.engine, "checkpoint_every": args.checkpoint_every,
                 "batch": args.batch or None}
        if args.faults:
            from .simulate import FaultSchedule

            try:
                flags["faults"] = FaultSchedule.from_json(Path(args.faults))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"error: cannot load fault schedule {args.faults}: {exc}",
                      file=sys.stderr)
                return 1
        doc = _load_policy_doc(args.policy) if args.policy else None
        if args.policy and doc is None:
            return 1
        try:
            scenario = replace(
                scenario, **{k: v for k, v in flags.items() if v is not None}
            )
            if doc is not None:
                from .policy import apply_policy

                scenario = apply_policy(scenario, doc)
            rt = scenario.build_runtime(recorder=recorder)
        except (ValueError, AdmissionError) as exc:
            print(f"error: bad job config {args.config}: {exc}", file=sys.stderr)
            return 1
        print(f"admitted {len(rt.jobs)} jobs on {rt.host.name} "
              f"(policy {rt.policy.name}, max load {rt.max_load})")
        batch, every = scenario.batch, scenario.checkpoint_every

    admissions = []
    for entry in args.admit_at or ():
        cycle_s, _, spec_path = entry.partition(",")
        try:
            cycle = int(cycle_s)
            if cycle < 0:
                raise ValueError(f"cycle must be >= 0, got {cycle}")
            spec = JobSpec.from_obj(json.loads(Path(spec_path).read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: bad --admit-at {entry!r}: {exc}", file=sys.stderr)
            return 1
        admissions.append((cycle, spec))

    from .service.scenario import drive_runtime

    try:
        res = drive_runtime(
            rt,
            batch=batch,
            checkpoint_path=ckpt,
            checkpoint_every=every,
            admissions=admissions,
        )
    except RepairError as exc:
        print(f"error: online repair failed: {exc}", file=sys.stderr)
        if ckpt is not None:
            rt.checkpoint_json(ckpt)
            print(f"wrote checkpoint: {ckpt}", file=sys.stderr)
        return 1
    if ckpt is not None:
        print(f"wrote checkpoint: {ckpt}")
    print(res)
    if not res.complete:
        # mirror `simulate`'s fault report: name every job that did not
        # finish clean, so the nonzero exit is attributable from logs
        for j in res.jobs:
            if j["status"] == "done" and not j["failed"]:
                continue
            why = j["status"] if j["status"] != "done" else "degraded"
            extra = (
                f", {len(j['failed'])} failed messages" if j["failed"] else ""
            )
            print(f"incomplete job {j['name']!r}: {why}{extra}", file=sys.stderr)
    if args.trace:
        try:
            recorder.to_jsonl(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote trace: {args.trace} ({len(recorder.events)} events, "
              f"{len(recorder.cycles)} cycle samples)")
    if args.metrics:
        from .analysis.trace_report import metrics_report

        print()
        print(metrics_report(recorder))
    # exit contract (service workers and CI depend on it, matching
    # `simulate`): 0 = every job done with every message delivered;
    # 1 = degraded/incomplete (failed messages, exhausted budgets) or a
    # RepairError that exhausted the embedding slack (handled above)
    return 0 if res.complete else 1


def _cmd_tune(args) -> int:
    from .policy import tune
    from .service import Scenario

    try:
        scenarios = [Scenario.from_json(p) for p in args.scenario]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return 1
    try:
        result = tune(
            args.template,
            scenarios,
            method=args.method,
            budget=args.budget,
            seed=args.seed,
            log_path=args.log,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    log = result.log
    print(
        f"tuned {args.template!r} ({args.method}, budget {args.budget}, "
        f"seed {args.seed}) over {', '.join(log['scenarios'])}"
    )
    rows = [
        [name, b["total"]] for name, b in sorted(log["baselines"].items())
    ]
    rows.append([f"tree:{result.doc.name} (tuned)", result.objective])
    print(markdown_table(["policy", "total makespan (cycles)"], rows))
    best_baseline = min(b["total"] for b in log["baselines"].values())
    if result.objective < best_baseline:
        print(f"tuned document beats every baseline by "
              f"{best_baseline - result.objective} cycles")
    else:
        print("tuned document does not beat the best baseline "
              "(try a larger --budget)")
    if args.log:
        print(f"wrote tuning log: {args.log}")
    if args.out:
        result.doc.to_json(args.out)
        print(f"wrote policy document: {args.out}")
    return 0


def _cmd_service_serve(args) -> int:
    from .service.api import serve

    serve(args.root, n_shards=args.shards, host=args.host, port=args.port)
    return 0


def _cmd_service_run(args) -> int:
    import json

    from .service import Scenario, run_scenario

    try:
        scenario = Scenario.from_json(args.scenario)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad scenario {args.scenario}: {exc}", file=sys.stderr)
        return 1
    if args.policy:
        from .policy import apply_policy

        doc = _load_policy_doc(args.policy)
        if doc is None:
            return 1
        scenario = apply_policy(scenario, doc)
    res = run_scenario(scenario, checkpoint_path=args.checkpoint)
    if args.json:
        print(json.dumps(res.as_dict(), indent=2))
    else:
        print(res)
    # same exit contract as `runtime`: 0 complete, 1 degraded/incomplete
    return 0 if res.complete else 1


def _cmd_service_submit(args) -> int:
    import json

    from .service import ServiceClient
    from .service.client import ServiceError

    client = ServiceClient(args.url)
    try:
        doc = json.loads(Path(args.scenario).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load scenario {args.scenario}: {exc}", file=sys.stderr)
        return 1
    try:
        job_id = client.submit(doc)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(job_id)
    if not args.wait:
        return 0
    meta = client.wait(job_id, timeout=args.timeout)
    result = client.result(job_id)
    print(f"{meta['status']} on shard {meta['shard']} "
          f"(attempts {meta['attempts']})")
    if meta["status"] != "done":
        print(f"error: {meta.get('error')}", file=sys.stderr)
        return 1
    return int(result.get("exit_code", 1))


def _cmd_service_status(args) -> int:
    import json

    from .service import ServiceClient
    from .service.client import ServiceError

    client = ServiceClient(args.url)
    try:
        payload = client.job(args.job_id) if args.job_id else client.fleet()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_service_fetch(args) -> int:
    import json

    from .service import ServiceClient
    from .service.client import ServiceError

    client = ServiceClient(args.url)
    try:
        if args.trace:
            for record in client.trace_lines(args.job_id):
                print(json.dumps(record))
            return 0
        result = client.result(args.job_id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2))
    return int(result.get("exit_code", 1))


def _cmd_service_loadgen(args) -> int:
    import json

    from .service import Fleet, Scenario, ServiceClient, run_load, scenario_variants

    try:
        base = Scenario.from_json(args.scenario)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad scenario {args.scenario}: {exc}", file=sys.stderr)
        return 1
    scenarios = scenario_variants(base, args.n)
    if args.url:
        report = run_load(
            ServiceClient(args.url), scenarios,
            concurrency=args.concurrency, timeout=args.timeout,
            verify=not args.no_verify,
        )
    else:
        with Fleet(args.root, n_shards=args.shards) as fleet:
            report = run_load(
                fleet, scenarios,
                concurrency=args.concurrency, timeout=args.timeout,
                verify=not args.no_verify,
            )
    print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.ok else 1


def _cmd_online(args) -> int:
    from .core.online import replay_online

    n, tree = _make_tree(args)
    res = replay_online(tree, args.height, compare_offline=args.compare)
    result = theorem1_embedding(tree)
    rows = [
        ["offline (Theorem 1)", result.embedding.dilation(), "-"],
        [
            "online greedy",
            res.embedding.dilation(),
            res.migration_cost if res.migration_cost is not None else "-",
        ],
    ]
    print(f"guest: {args.family} tree, n={n}, grown node-by-node on X({args.height})")
    print(markdown_table(["strategy", "dilation", "repack migrations"], rows))
    return 0


def _cmd_show(args) -> int:
    from .analysis.render import render_dilation_bar, render_loads, render_xtree
    from .networks.xtree import XTree

    if args.empty:
        print(render_xtree(XTree(args.height)))
        return 0
    n, tree = _make_tree(args)
    result = theorem1_embedding(tree)
    print(render_xtree(XTree(args.height)))
    print()
    print(render_loads(result.embedding))
    print()
    print(render_dilation_bar(result.embedding))
    return 0


def _cmd_export(args) -> int:
    from .core.serialization import save_embedding

    n, tree = _make_tree(args)
    result = theorem1_embedding(tree)
    save_embedding(result.embedding, args.output)
    rep = result.embedding.report()
    print(f"wrote {args.output}: {args.family} tree, n={n}, "
          f"dilation={rep.dilation}, load={rep.load_factor}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xtree-embed",
        description="Monien (SPAA 1991): simulating binary trees on X-trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="run the Theorem 1 construction")
    _add_tree_args(p_embed)
    p_embed.add_argument("--validate", action="store_true", help="check invariants every round")
    p_embed.add_argument("--show-placement", action="store_true", help="dump the full mapping")
    p_embed.add_argument(
        "--separator", choices=sorted(SEPARATOR_NAMES), default="paper",
        help="tree-piece splitter: 'paper' is Lemma 2 (bit-identical to "
             "the default), 'flow' is the max-flow/min-cut engine "
             "(repro.separators)",
    )
    p_embed.set_defaults(func=_cmd_embed)

    p_verify = sub.add_parser("verify", help="check every paper claim")
    _add_tree_args(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run tree programs through the embedding")
    _add_tree_args(p_sim)
    p_sim.add_argument("--program", choices=sorted(PROGRAMS), help="single program (default: all)")
    p_sim.add_argument("--link-capacity", type=int, default=1, help="messages per link direction per cycle")
    p_sim.add_argument(
        "--router", choices=sorted(ROUTERS), default="deterministic",
        help="next-hop policy: smallest-index shortest path, or congestion-aware adaptive",
    )
    p_sim.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="delivery engine: auto dispatches to the vectorised kernel when its "
             "preconditions hold, classic forces the reference loop, vector "
             "forces the kernel (error when unsupported)",
    )
    p_sim.add_argument("--trace", metavar="PATH", help="record the host simulation and write a JSONL trace")
    p_sim.add_argument("--faults", metavar="PATH",
                       help="JSON fault schedule (see repro.simulate.faults) injected while "
                            "messages are in flight; the run returns a degraded-mode report")
    p_sim.add_argument("--ttl", type=int, default=None,
                       help="per-message cycle budget: messages in flight longer are dropped "
                            "('ttl' in the fault report) instead of waiting forever")
    p_sim.add_argument("--metrics", action="store_true",
                       help="print per-cycle metrics, timing spans and counters")
    p_sim.add_argument("--policy", metavar="FILE",
                       help="routing-domain policy document (repro.policy JSON, "
                            "e.g. written by `tune`); overrides --router")
    p_sim.add_argument(
        "--separator", choices=sorted(SEPARATOR_NAMES), default="paper",
        help="tree-piece splitter for the embedding: 'paper' is Lemma 2 "
             "(bit-identical to the default), 'flow' is the max-flow/"
             "min-cut engine (repro.separators)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_rt = sub.add_parser(
        "runtime",
        help="multiplex several guest programs on one host (repro.runtime)",
    )
    p_rt.add_argument(
        "config",
        help="scenario document (see examples/SCENARIOS.md): host, jobs and "
             "runtime knobs; the flags below override it only when given",
    )
    p_rt.add_argument("--faults", metavar="PATH",
                      help="JSON fault schedule played on the runtime's global clock "
                           "(replaces the scenario's); node deaths trigger online "
                           "repair + message migration")
    p_rt.add_argument("--checkpoint", metavar="PATH",
                      help="checkpoint file: restored (and the scenario ignored) if it "
                           "already exists, rewritten during and after the run")
    p_rt.add_argument("--checkpoint-every", type=int, metavar="N",
                      help="rewrite the checkpoint every N supersteps "
                           "(default: the scenario's, 10)")
    p_rt.add_argument(
        "--engine", choices=list(ENGINES),
        help="delivery engine for the shared network (see 'simulate --engine'; "
             "default: the scenario's, auto)",
    )
    p_rt.add_argument(
        "--batch", action="store_true",
        help="co-schedule link-disjoint supersteps of different jobs into one "
             "merged delivery per round (fault-free, untraced runs only; "
             "per-job cycle stats are unchanged, the global clock advances "
             "by each round's makespan)",
    )
    p_rt.add_argument("--trace", metavar="PATH",
                      help="record every superstep and write a JSONL trace")
    p_rt.add_argument("--metrics", action="store_true",
                      help="print per-cycle metrics, timing spans and counters")
    p_rt.add_argument("--policy", metavar="FILE",
                      help="policy document (repro.policy JSON): its domain decides "
                           "whether it replaces the scenario's router (routing) or "
                           "scheduler (scheduling); ignored when resuming from a "
                           "checkpoint, which already carries its policies")
    p_rt.add_argument("--admit-at", action="append", metavar="CYCLE,SPEC.json",
                      help="admit the JobSpec in SPEC.json once the runtime "
                           "clock reaches CYCLE (repeatable; admitted "
                           "immediately if the runtime drains first)")
    p_rt.set_defaults(func=_cmd_runtime)

    p_tune = sub.add_parser(
        "tune",
        help="search a policy template against scenarios (repro.policy.tune)",
    )
    from .policy.tune import TEMPLATES as _TEMPLATES

    p_tune.add_argument("template", choices=sorted(_TEMPLATES),
                        help="parametric policy template to search")
    p_tune.add_argument("--scenario", action="append", required=True,
                        metavar="PATH",
                        help="scenario JSON the objective sums over (repeatable)")
    p_tune.add_argument("--method", choices=("grid", "random", "cem"),
                        default="random", help="search method (default random)")
    p_tune.add_argument("--budget", type=int, default=16,
                        help="candidate evaluations (default 16)")
    p_tune.add_argument("--seed", type=int, default=0,
                        help="search seed; a fixed (template, scenarios, method, "
                             "budget, seed) tuple reproduces the sweep exactly")
    p_tune.add_argument("--out", metavar="FILE",
                        help="write the winning policy document here")
    p_tune.add_argument("--log", metavar="FILE",
                        help="write the full tuning log (every candidate + "
                             "objective, baselines, winner) here")
    p_tune.set_defaults(func=_cmd_tune)

    p_svc = sub.add_parser(
        "service",
        help="simulation-as-a-service: scenario jobs on a worker fleet (repro.service)",
    )
    svc_sub = p_svc.add_subparsers(dest="service_command", required=True)

    p_serve = svc_sub.add_parser("serve", help="run a fleet + REST API in the foreground")
    p_serve.add_argument("--root", default="service-data", help="store root directory")
    p_serve.add_argument("--shards", type=int, default=2, help="worker processes")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.set_defaults(func=_cmd_service_serve)

    p_run = svc_sub.add_parser(
        "run", help="execute one scenario JSON in-process (no fleet) — the reference runner"
    )
    p_run.add_argument("scenario", help="scenario JSON path (see scenarios/)")
    p_run.add_argument("--checkpoint", metavar="PATH",
                       help="resume from PATH if it exists; keep it updated while running")
    p_run.add_argument("--json", action="store_true", help="print the result as JSON")
    p_run.add_argument("--policy", metavar="FILE",
                       help="policy document applied over the scenario by domain "
                            "(router for routing, scheduler for scheduling)")
    p_run.set_defaults(func=_cmd_service_run)

    p_submit = svc_sub.add_parser("submit", help="submit a scenario to a running service")
    p_submit.add_argument("scenario", help="scenario JSON path")
    p_submit.add_argument("--url", default="http://127.0.0.1:8642", help="service base URL")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until terminal; exit with the job's exit code")
    p_submit.add_argument("--timeout", type=float, default=120.0)
    p_submit.set_defaults(func=_cmd_service_submit)

    p_status = svc_sub.add_parser("status", help="show fleet status or one job's metadata")
    p_status.add_argument("job_id", nargs="?", help="job id (omit for the whole fleet)")
    p_status.add_argument("--url", default="http://127.0.0.1:8642")
    p_status.set_defaults(func=_cmd_service_status)

    p_fetch = svc_sub.add_parser("fetch", help="fetch a job's result (or streamed trace)")
    p_fetch.add_argument("job_id")
    p_fetch.add_argument("--url", default="http://127.0.0.1:8642")
    p_fetch.add_argument("--trace", action="store_true", help="fetch the JSONL trace instead")
    p_fetch.set_defaults(func=_cmd_service_fetch)

    p_load = svc_sub.add_parser(
        "loadgen",
        help="replay N concurrent submissions (verifies results bit-identical "
             "to direct runs unless --no-verify)",
    )
    p_load.add_argument("scenario", help="base scenario JSON (cloned N times)")
    p_load.add_argument("-n", type=int, default=20, dest="n", help="submissions (default 20)")
    p_load.add_argument("--url", help="target a running service over HTTP")
    p_load.add_argument("--root", default="loadgen-data",
                        help="with no --url: spin up a local fleet on this store root")
    p_load.add_argument("--shards", type=int, default=2)
    p_load.add_argument("--concurrency", type=int, default=16)
    p_load.add_argument("--timeout", type=float, default=300.0)
    p_load.add_argument("--no-verify", action="store_true",
                        help="skip the bit-identity check against direct runs")
    p_load.set_defaults(func=_cmd_service_loadgen)

    p_online = sub.add_parser("online", help="grow the tree node-by-node (tree machine)")
    _add_tree_args(p_online)
    p_online.add_argument("--compare", action="store_true", help="also compute repack cost")
    p_online.set_defaults(func=_cmd_online)

    p_show = sub.add_parser("show", help="render the X-tree and an embedding's loads")
    _add_tree_args(p_show)
    p_show.add_argument("--empty", action="store_true", help="draw the bare X-tree only")
    p_show.set_defaults(func=_cmd_show)

    p_export = sub.add_parser("export", help="write the placement to a JSON file")
    _add_tree_args(p_export)
    p_export.add_argument("--output", "-o", required=True, help="output JSON path")
    p_export.set_defaults(func=_cmd_export)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
