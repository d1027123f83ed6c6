"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` — print the circuit-level setup (paper Table I),
* ``table2`` — characterise both latches across corners (paper Table II;
  minutes of simulation — ``--corner typical`` for a quick look),
* ``table3`` — run the system flow over benchmarks (paper Table III),
* ``compare`` — cross-technology NV backend comparison: Table II/III
  metrics and a reliability campaign per backend, one column each
  (``--quick`` for the CI smoke shape, ``--json`` for an artifact),
* ``flow <benchmark>`` — one benchmark in detail, optional DEF/SVG output,
* ``layout`` — the NV cell layouts (paper Fig 8),
* ``standby`` — power-gating break-even comparison,
* ``wer`` — write-error-rate margins vs pulse width,
* ``lint`` — static ERC/lint diagnostics over cells and benchmarks,
* ``devlint`` — AST-based correctness rules over the repro source itself
  (determinism, cache-key completeness, schema hygiene),
* ``faults`` — fault injection: list models, run a resilient
  restore-failure campaign, or report write-path isolation,
* ``recovery explain`` — print the recovery ladder's rung order and
  its fingerprinted constants,
* ``profile`` — run a named flow under the tracer and emit a breakdown
  table plus ``profile.json``/``trace.json`` (Chrome-loadable),
* ``cache`` — inspect and maintain the content-addressed result cache:
  ``stats``, size-bounded ``gc``, ``clear``, and ``verify`` (re-runs
  sampled entries and asserts bit-exact agreement).

Every flow subcommand accepts the same ``--engine``/``--workers``/
``--backend`` options — the canonical vocabulary of
:mod:`repro.flow_params`, shared with ``Session`` methods.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table1

    print(render_table1())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table2
    from repro.api import Session
    from repro.spice.corners import CORNER_ORDER

    corners = [args.corner] if args.corner else list(CORNER_ORDER)
    print(f"Simulating both latch designs at corners {corners} "
          f"(this runs full transients)...", file=sys.stderr)
    with Session(engine=args.engine, workers=args.workers) as session:
        data = session.table2(corners=corners, dt=args.dt,
                              include_write=not args.no_write,
                              backend=args.backend)
    print(render_table2(data))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table3
    from repro.api import Session

    with Session(engine=args.engine, workers=args.workers) as session:
        results = session.table3(args.benchmarks or None,
                                 backend=args.backend)
    print(render_table3(results))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.api import Session

    mode = "quick" if args.quick else "full"
    print(f"Comparing NV backends ({mode} mode; this runs the Table II/III "
          f"and reliability flows once per backend)...", file=sys.stderr)
    with Session(engine=args.engine, workers=args.workers) as session:
        report = session.compare(
            backends=args.backend or None, quick=args.quick,
            benchmarks=args.benchmarks or None,
            samples=args.samples, dt=args.dt)
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            _json.dump(report.to_json(), handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.core.flow import run_system_flow
    from repro.physd.def_io import write_def
    from repro.analysis.figures import floorplan_svg

    outcome = run_system_flow(args.benchmark)
    result = outcome.result
    print(f"{args.benchmark}: {result.total_flip_flops} flip-flops, "
          f"{result.merged_pairs} merged pairs "
          f"({100 * outcome.merge.merge_fraction:.0f} % of flops)")
    print(f"area improvement   {100 * result.area_improvement:.2f} %")
    print(f"energy improvement {100 * result.energy_improvement:.2f} %")
    if args.write_def:
        with open(args.write_def, "w") as handle:
            handle.write(write_def(outcome.placement))
        print(f"wrote {args.write_def}")
    if args.write_svg:
        with open(args.write_svg, "w") as handle:
            handle.write(floorplan_svg(outcome.placement, outcome.merge))
        print(f"wrote {args.write_svg}")
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    from repro.layout.cell_layout import plan_proposed_2bit, plan_standard_1bit

    for plan in (plan_standard_1bit(), plan_proposed_2bit()):
        print(plan.to_ascii())
        print()
    if args.svg:
        for plan, path in ((plan_standard_1bit(), "nv_1bit.svg"),
                           (plan_proposed_2bit(), "nv_2bit.svg")):
            with open(path, "w") as handle:
                handle.write(plan.to_svg())
            print(f"wrote {path}")
    return 0


def _cmd_standby(args: argparse.Namespace) -> int:
    from repro.core.standby import (
        MemorySaveRestoreStrategy,
        NVBackupStrategy,
        RetentionStrategy,
        StandbyScenario,
        standby_report,
    )

    scenario = StandbyScenario(num_bits=args.bits,
                               domain_leakage=args.leakage)
    strategies = [NVBackupStrategy(), MemorySaveRestoreStrategy(),
                  RetentionStrategy()]
    durations = [1e-6, 10e-6, 100e-6, 1e-3]
    print(f"{args.bits} bits, {args.leakage * 1e6:g} uW gated-domain leakage")
    print(standby_report(scenario, strategies, durations))
    return 0


def _cmd_wer(args: argparse.Namespace) -> int:
    from repro.mtj.write_error import WriteErrorModel

    model = WriteErrorModel()
    for current in (50e-6, 60e-6, 70e-6, 90e-6):
        print(model.margin_report(current))
        print()
    return 0


#: Lintable shipped cells: name -> zero-argument circuit builder.
def _lint_cell_builders():
    from repro.cells.nvlatch_1bit import build_standard_latch
    from repro.cells.nvlatch_1bit_mirrored import build_mirrored_latch
    from repro.cells.nvlatch_2bit import build_proposed_latch

    return {
        "std1b": lambda: build_standard_latch().circuit,
        "mir1b": lambda: build_mirrored_latch().circuit,
        "prop2b": lambda: build_proposed_latch().circuit,
    }


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_circuit, lint_gate_netlist
    from repro.lint.diagnostics import Severity, render_reports_json
    from repro.lint.registry import all_rules
    from repro.physd.benchmarks import BENCHMARKS, generate_benchmark

    if args.list_rules:
        import repro.devlint  # noqa: F401  (registers the dev pack)

        for lint_rule in all_rules():
            print(f"{lint_rule.rule_id:36s} [{lint_rule.kind}] "
                  f"{lint_rule.severity}: {lint_rule.description}")
        return 0

    cells = _lint_cell_builders()
    selected = list(args.targets)
    if not selected:
        selected = ["cells", "benchmarks"]
    names: List[str] = []
    for target in selected:
        if target == "cells":
            names.extend(cells)
        elif target == "benchmarks":
            names.extend(BENCHMARKS)
        elif target in cells or target in BENCHMARKS:
            names.append(target)
        else:
            from repro.errors import suggest_names

            known = [*cells, *BENCHMARKS, "cells", "benchmarks"]
            parser_error = (f"unknown lint target {target!r}"
                            f"{suggest_names(target, known)}")
            print(parser_error, file=sys.stderr)
            return 2

    min_severity = Severity.parse(args.min_severity)
    reports = []
    for name in names:
        if name in cells:
            reports.append(lint_circuit(cells[name]()))
        else:
            reports.append(lint_gate_netlist(generate_benchmark(name)))

    if args.json:
        print(render_reports_json(reports))
    else:
        for report in reports:
            print(report.render_text(min_severity=min_severity))
    return 1 if any(report.has_errors for report in reports) else 0


def _cmd_devlint(args: argparse.Namespace) -> int:
    from repro.devlint import lint_paths
    from repro.lint.diagnostics import Severity, render_reports_json

    paths = list(args.paths)
    root = os.getcwd()
    if not paths:
        in_tree = os.path.join(root, "src", "repro")
        if os.path.isdir(in_tree):
            paths = [in_tree]
        else:
            import repro

            pkg = os.path.dirname(os.path.abspath(repro.__file__))
            paths = [pkg]
            root = os.path.dirname(pkg)

    if args.update_schema_manifest:
        from repro.devlint.model import load_project
        from repro.devlint.rules_serialization import (
            compute_manifest,
            write_manifest,
        )

        manifest = compute_manifest(load_project(paths, root=root))
        written = write_manifest(manifest)
        print(f"schema manifest updated: {written} "
              f"({len(manifest)} schema(s))")
        return 0

    report = lint_paths(paths, target="src", root=root)
    if args.json:
        print(render_reports_json([report]))
    else:
        print(report.render_text(
            min_severity=Severity.parse(args.min_severity)))
    return 1 if report.has_errors else 0


def _faults_specs(args: argparse.Namespace):
    """Parse the repeated ``--fault MODEL:MAGNITUDE[:TARGET]`` options."""
    from repro.errors import FaultInjectionError
    from repro.faults import FaultSpec

    specs = []
    for text in args.fault or []:
        parts = text.split(":")
        if len(parts) < 2:
            raise FaultInjectionError(
                f"--fault wants MODEL:MAGNITUDE[:TARGET], got {text!r}")
        try:
            magnitude = float(parts[1])
        except ValueError as exc:
            raise FaultInjectionError(
                f"--fault magnitude {parts[1]!r} is not a number") from exc
        target = parts[2] if len(parts) > 2 else ""
        specs.append(FaultSpec(parts[0], magnitude, target=target))
    return specs


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.errors import AnalysisError, FaultInjectionError

    try:
        if args.action == "list":
            from repro.faults import render_model_list

            print(render_model_list())
            return 0

        if args.action == "isolation":
            from repro.api import Session
            from repro.faults import write_path_isolation

            print(f"Injecting a {args.magnitude:g} sigma outlier into the "
                  f"D0 write drivers of the 2-bit cell "
                  f"(this runs store transients)...", file=sys.stderr)
            with Session(engine=args.engine):
                iso = write_path_isolation(magnitude=args.magnitude,
                                           dt=args.dt, backend=args.backend)
            print("store write-error rates with a D0 write-path outlier:")
            print(f"  standard 1-bit cell     {iso['standard_bit']:.3e}")
            print(f"  2-bit baseline  d0={iso['baseline']['d0']:.3e}  "
                  f"d1={iso['baseline']['d1']:.3e}")
            print(f"  2-bit faulty    d0={iso['faulty']['d0']:.3e}  "
                  f"d1={iso['faulty']['d1']:.3e}")
            print(f"  d0 degradation  {iso['d0_degradation']:.3e}")
            print(f"  d1 shift        {iso['d1_shift']:.3e}   "
                  f"(separate write paths: should be ~0)")
            return 0

        # action == "run": a resilient restore-failure campaign.
        from repro.api import Session

        specs = _faults_specs(args)
        if not specs:
            print("note: no --fault given; running a zero-fault baseline "
                  "campaign", file=sys.stderr)
        print(f"Running {args.samples} restore trials on the "
              f"{args.design} cell "
              f"({len(specs)} fault spec(s))...", file=sys.stderr)
        with Session(engine=args.engine, workers=args.workers) as session:
            outcome = session.campaign(
                args.design, specs, samples=args.samples, seed=args.seed,
                dt=args.dt, timeout=args.timeout, retries=args.retries,
                checkpoint=args.checkpoint, forensics_dir=args.forensics_dir,
                backend=args.backend)
        print(outcome.summary())
        return 1 if outcome.report.failed else 0
    except (AnalysisError, FaultInjectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_recovery(args: argparse.Namespace) -> int:
    from repro.recovery.policy import RUNGS, recovery_config_fingerprint

    print("recovery ladder (escalation order):")
    for rung in RUNGS:
        print(f"  {rung}")
    print("ladder constants (fingerprinted into cache keys):")
    for key, value in sorted(recovery_config_fingerprint().items()):
        print(f"  {key} = {value}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import run_profile

    print(f"Profiling the {args.flow!r} flow "
          f"({'fast' if args.fast else 'full'} mode)...", file=sys.stderr)
    result = run_profile(args.flow, fast=args.fast, out_dir=args.out_dir,
                         workers=args.workers)
    print(result.breakdown)
    print()
    print(f"span categories: {', '.join(result.categories)}")
    print(f"wrote {result.profile_path} and {result.trace_path} "
          f"(load the trace in about://tracing or ui.perfetto.dev)")
    return 0


def _cache_root(args: argparse.Namespace) -> Optional[str]:
    import os

    from repro.cache.store import CACHE_ENV_VAR

    return args.dir or os.environ.get(CACHE_ENV_VAR)


def _cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    from repro.cache import ResultCache

    root = _cache_root(args)
    if not root:
        print("error: no cache directory; pass --dir or set "
              "REPRO_CACHE_DIR", file=sys.stderr)
        return 2
    cache = ResultCache(root)

    if args.action == "stats":
        print(_json.dumps(cache.stats(), indent=2))
        return 0

    if args.action == "gc":
        report = cache.gc(args.max_bytes)
        report["root"] = cache.root
        print(_json.dumps(report, indent=2))
        return 0

    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0

    # action == "verify": recompute sampled entries, assert bit-exactness.
    import random

    from repro.cache.analysis import verify_entry

    keys = [entry.key for entry in cache.entries()]
    if not keys:
        print(f"{cache.root}: no entries to verify")
        return 0
    count = min(args.samples, len(keys))
    sampled = random.Random(args.seed).sample(sorted(keys), count)
    print(f"Re-running {count} of {len(keys)} entries "
          f"(seed {args.seed})...", file=sys.stderr)
    failures = 0
    for key in sampled:
        entry = cache.load(key)
        if entry is None:  # evicted or corrupted between listing and load
            print(f"  {key[:12]}  skipped (unreadable)")
            continue
        verdict = verify_entry(entry)
        status = "ok" if verdict["ok"] else f"MISMATCH ({verdict['detail']})"
        print(f"  {key[:12]}  {entry.kind:9s} {status}")
        failures += 0 if verdict["ok"] else 1
    if failures:
        print(f"error: {failures}/{count} sampled entries are not "
              f"bit-exact", file=sys.stderr)
        return 1
    print(f"{count}/{count} sampled entries replay bit-exactly")
    return 0


def _add_flow_options(parser: argparse.ArgumentParser,
                      backend: bool = True,
                      workers: bool = True) -> None:
    """The unified per-flow options — every subcommand that runs a flow
    accepts the same ``--engine`` / ``--workers`` / ``--backend`` spelling
    (the canonical vocabulary of :mod:`repro.flow_params`)."""
    from repro.flow_params import ENGINES

    parser.add_argument("--engine", choices=ENGINES,
                        help="solver engine for this run "
                             "(default: session default)")
    if workers:
        parser.add_argument("--workers", type=int, default=None,
                            help="worker processes (default: auto)")
    if backend:
        parser.add_argument("--backend", default=None, metavar="NAME",
                            help="NV storage backend: mtj (default) or "
                                 "nandspin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multi-Bit Non-Volatile Spintronic "
                    "Flip-Flop' (DATE 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="circuit-level setup").set_defaults(
        func=_cmd_table1)

    p2 = sub.add_parser("table2", help="latch comparison across corners")
    p2.add_argument("--corner", choices=["fast", "typical", "slow"],
                    help="simulate one corner only")
    p2.add_argument("--dt", type=float, default=1e-12,
                    help="transient timestep [s]")
    p2.add_argument("--no-write", action="store_true",
                    help="skip the store-phase simulations")
    _add_flow_options(p2)
    p2.set_defaults(func=_cmd_table2)

    p3 = sub.add_parser("table3", help="system-level benchmark sweep")
    p3.add_argument("benchmarks", nargs="*",
                    help="benchmark names (default: all 13)")
    _add_flow_options(p3)
    p3.set_defaults(func=_cmd_table3)

    px = sub.add_parser(
        "compare",
        help="cross-technology NV backend comparison: Table II/III "
             "metrics + reliability campaign per backend")
    px.add_argument("--backend", action="append", metavar="NAME",
                    help="backend to include, repeatable "
                         "(default: every registered backend)")
    px.add_argument("--quick", action="store_true",
                    help="CI smoke shape: typical corner, coarse dt, one "
                         "benchmark, few campaign samples")
    px.add_argument("--benchmarks", nargs="*", metavar="NAME",
                    help="Table III benchmark subset "
                         "(default: all, or s344 with --quick)")
    px.add_argument("--samples", type=int, default=None,
                    help="restore-campaign trials per backend")
    px.add_argument("--dt", type=float, default=None,
                    help="Table II transient timestep [s]")
    px.add_argument("--json", metavar="PATH",
                    help="also write the CompareReport JSON to PATH")
    _add_flow_options(px, backend=False)
    px.set_defaults(func=_cmd_compare)

    pf = sub.add_parser("flow", help="run one benchmark in detail")
    pf.add_argument("benchmark")
    pf.add_argument("--write-def", metavar="PATH")
    pf.add_argument("--write-svg", metavar="PATH")
    pf.set_defaults(func=_cmd_flow)

    pl = sub.add_parser("layout", help="NV cell layouts (Fig 8)")
    pl.add_argument("--svg", action="store_true", help="also write SVG files")
    pl.set_defaults(func=_cmd_layout)

    ps = sub.add_parser("standby", help="power-gating break-even analysis")
    ps.add_argument("--bits", type=int, default=1000)
    ps.add_argument("--leakage", type=float, default=10e-6,
                    help="gated-domain leakage [W]")
    ps.set_defaults(func=_cmd_standby)

    pw = sub.add_parser("wer", help="write-error-rate margins")
    pw.set_defaults(func=_cmd_wer)

    pn = sub.add_parser(
        "lint",
        help="static ERC/lint diagnostics over cells and benchmarks")
    pn.add_argument(
        "targets", nargs="*",
        help="cell names (std1b, mir1b, prop2b), benchmark names, or the "
             "groups 'cells'/'benchmarks' (default: both groups)")
    pn.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    pn.add_argument("--min-severity", default="warn",
                    choices=["info", "warn", "error"],
                    help="lowest severity shown in text output")
    pn.add_argument("--list-rules", action="store_true",
                    help="list the registered rules of every pack and exit")
    pn.set_defaults(func=_cmd_lint)

    pd = sub.add_parser(
        "devlint",
        help="AST-based correctness analysis of the repro source itself "
             "(determinism, cache-key completeness, schema hygiene)")
    pd.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: the repro "
             "package source)")
    pd.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    pd.add_argument("--min-severity", default="warn",
                    choices=["info", "warn", "error"],
                    help="lowest severity shown in text output")
    pd.add_argument("--update-schema-manifest", action="store_true",
                    help="re-derive devlint/schema_manifest.json from the "
                         "analyzed tree (bump SCHEMA_VERSION first)")
    pd.set_defaults(func=_cmd_devlint)

    pq = sub.add_parser(
        "faults",
        help="fault injection: list models, run a campaign, isolation report")
    pq.add_argument("action", choices=["list", "run", "isolation"],
                    help="'list' registered fault models, 'run' a resilient "
                         "restore-failure campaign, or report 'isolation' of "
                         "the 2-bit cell's write paths")
    pq.add_argument("--design", choices=["standard", "proposed"],
                    default="standard", help="cell under test (run)")
    pq.add_argument("--fault", action="append", metavar="MODEL:MAG[:TARGET]",
                    help="fault spec, repeatable (run); e.g. "
                         "mtj.stuck:1.0:mtj1 or sa.offset:0.1")
    pq.add_argument("--samples", type=int, default=20,
                    help="number of restore trials (run)")
    pq.add_argument("--seed", type=int, default=2018,
                    help="campaign root seed (run)")
    pq.add_argument("--magnitude", type=float, default=3.0,
                    help="outlier magnitude in sigma (isolation)")
    pq.add_argument("--dt", type=float, default=4e-12,
                    help="transient timestep [s]")
    _add_flow_options(pq)
    pq.add_argument("--timeout", type=float, default=None,
                    help="per-trial wall-clock timeout [s]")
    pq.add_argument("--retries", type=int, default=1,
                    help="retries per failed trial (run)")
    pq.add_argument("--checkpoint", metavar="PATH",
                    help="JSONL checkpoint file; rerun with the same path "
                         "to resume an interrupted campaign (run)")
    pq.add_argument("--forensics-dir", metavar="DIR",
                    help="dump solver forensics bundles of failed trials "
                         "as task-<index>.json under DIR (run)")
    pq.set_defaults(func=_cmd_faults)

    pr = sub.add_parser(
        "recovery", help="solver resilience: explain the recovery ladder")
    pr.add_argument("action", choices=["explain"],
                    help="'explain' prints the recovery ladder's rung "
                         "order and its fingerprinted constants")
    pr.set_defaults(func=_cmd_recovery)

    pp = sub.add_parser(
        "profile",
        help="trace a named flow; emit breakdown + profile.json/trace.json")
    pp.add_argument("flow", choices=["table2", "table3", "campaign"],
                    help="flow to run under the tracer")
    pp.add_argument("--fast", action="store_true",
                    help="seconds-scale smoke (typical corner, coarse dt, "
                         "fewer benchmarks/samples) — what CI runs")
    pp.add_argument("--out-dir", default=".", metavar="DIR",
                    help="where profile.json and trace.json land")
    pp.add_argument("--workers", type=int, default=None,
                    help="worker processes for the flow (default: auto)")
    pp.set_defaults(func=_cmd_profile)

    pc = sub.add_parser(
        "cache",
        help="inspect/maintain the content-addressed result cache")
    pc.add_argument("action", choices=["stats", "gc", "clear", "verify"],
                    help="'stats' (entry count and bytes), 'gc' (LRU "
                         "eviction down to --max-bytes), 'clear' (drop "
                         "every entry), or 'verify' (re-run sampled "
                         "entries and assert bit-exact agreement)")
    pc.add_argument("--dir", metavar="PATH",
                    help="cache root (default: $REPRO_CACHE_DIR)")
    pc.add_argument("--max-bytes", type=int, default=256 * 1024 * 1024,
                    help="gc: size bound the store is evicted down to")
    pc.add_argument("--samples", type=int, default=3,
                    help="verify: number of entries to re-run")
    pc.add_argument("--seed", type=int, default=2018,
                    help="verify: sampling seed")
    pc.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
