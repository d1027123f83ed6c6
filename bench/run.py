"""The repository benchmark: cold runs of the paper's flows, end to end
and per layer.

Every measured run is a fresh child process (``bench/child.py``) with the
result cache off, one worker and one BLAS thread; children run one at a
time.  End-to-end metrics come only from untraced children.  Traced
children wrap the layers from outside (``bench/layers.py``) and give the
per-layer self times and the program's own counters.

Every time is reported at a reference host speed.  The parent and its
child share one CPU; while the child runs, the parent times a small fixed
kernel (the *speed probe*) every ``PROBE_PERIOD_S``, and each of the
child's times is scaled by the mean of ``PROBE_REF_S`` over the probe
times seen in its interval.  Other tenants of a shared host slow the CPU
by up to 1.7x in spells of seconds; the probe slows with it, so the
scaled times follow the program and not its neighbours.  The raw times
stay in the suite report as ``host_wall_s`` and ``host_setup_s``.

Usage (from the repository root)::

    python bench/run.py [--seed 1] [--repeats 5] [--seconds S] [--out FILE]
        Every workload, ``--repeats`` sets.  A set takes one untraced
        and one traced measurement (below) of each workload, in an order
        that alternates between sets.  Prints the median, quartiles and
        n over the sets of every (metric, workload) pair; exits non-zero
        if a check fails.
    python bench/run.py --compare A.json B.json
        One row per (end-to-end metric, workload) of two ``--out`` files
        with a verdict against the bounds in BENCHMARK.json.
    python bench/run.py --self-test
        Seconds-long check of the harness on a tiny RC transient.
    python bench/run.py --record-reference
        Rewrite bench/reference/<workload>.json at the default seed.
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One measurement of one workload for about S seconds (default:
        ``run_seconds`` of BENCHMARK.json); the last
        line of output is one JSON object with ``correct``,
        ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
        of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
        ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

import layers
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: CPUs available before ``pin_to_one_cpu``.
NPROC = len(os.sched_getaffinity(0))

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: The unscaled times, reported beside the end-to-end metrics, ungated.
HOST = {"host_wall_s": "s", "host_setup_s": "s"}
OVERHEAD = "obs.trace_overhead_pct"
#: Setup samples per measurement (flow children plus setup-only ones).
SETUP_SAMPLES = 7
#: Pause between two speed probes while a child runs [s].
PROBE_PERIOD_S = 0.02
#: The probe's time at the reference speed [s]: about its time on a
#: 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) when no other tenant slows it.
PROBE_REF_S = 70e-6
#: A measurement starts no child that would end past this [s], and kills
#: any child still running at ``RUN_DEADLINE_S``.
RUN_BUDGET_S = 160.0
RUN_DEADLINE_S = 175.0
#: Limit on one child outside a measurement [s].
CHILD_TIMEOUT_S = 900.0
#: Relative gap allowed between the summed self times and the traced wall.
SELF_SUM_TOL = 0.01


class BenchError(Exception):
    """A child failed to produce a result."""


def per_layer_units() -> Dict[str, str]:
    units = layers.layer_units()
    units.update(layers.COUNTERS)
    units[OVERHEAD] = "%"
    return units


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    # Byte-code caching stays on whatever the caller's environment says,
    # so ``setup_s`` measures the imports a user pays, not compilation.
    dropped = ("REPRO_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


_PROBE_MATRIX = numpy.eye(16) * 16 + numpy.random.default_rng(0).random(
    (16, 16))
_PROBE_RHS = numpy.ones(16)


def probe() -> float:
    """Time of the speed probe [s]: eight small dense solves, like the
    program's engines do.  Only the second of two passes is timed, so
    the caches the child just evicted do not count."""
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(8):
            numpy.linalg.solve(_PROBE_MATRIX, _PROBE_RHS)
        elapsed = time.perf_counter() - start
    return elapsed


def pin_to_one_cpu() -> None:
    """Run this process, and so every child and its probes, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _speed(probes: Sequence[Tuple[float, float]], start: float,
           end: float) -> float:
    """Mean of ``PROBE_REF_S / probe`` over the probes taken between
    ``start`` and ``end`` [s after spawn], or over all of them if none
    was: the factor that scales a time in that interval to the reference
    speed."""
    times = [p for t, p in probes if start <= t <= end] or [
        p for _, p in probes]
    return statistics.fmean(PROBE_REF_S / p for p in times)


def _scale(result: Dict[str, Any],
           probes: Sequence[Tuple[float, float]]) -> Dict[str, Any]:
    """Scale a child's times to the reference speed; the raw ones stay
    as ``host_setup_s`` and ``host_wall_s``."""
    setup = result["setup_s"]
    result["host_setup_s"] = setup
    result["setup_s"] = setup * _speed(probes, 0.0, setup)
    if "wall_s" not in result:
        return result
    wall = result["wall_s"]
    flow = _speed(probes, setup, setup + wall)
    result["host_wall_s"] = wall
    result["wall_s"] = wall * flow
    if "layers" in result:
        result["self_sum_s"] *= flow
        units = layers.layer_units()
        result["layers"] = {
            name: value * flow if units.get(name) == "s" and value is not None
            else value for name, value in result["layers"].items()}
    return result


def run_child(workload: str, seed: int, trace: bool = False,
              setup_only: bool = False, record: bool = False,
              timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Run one child to completion, probing the host's speed meanwhile,
    and return its JSON result with its times scaled (``_scale``)."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if record:
        cmd.append("--record")
    env = _child_env()
    spawn = time.monotonic()
    cmd += ["--spawn", repr(spawn)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    probes: List[Tuple[float, float]] = []
    try:
        while True:
            probes.append((time.monotonic() - spawn, probe()))
            try:
                stdout, _ = proc.communicate(timeout=PROBE_PERIOD_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() - spawn > timeout:
                    raise BenchError(f"{workload} child exceeded "
                                     f"{timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited with code "
                         f"{proc.returncode}")
    return _scale(json.loads(lines[-1]), probes)


def warm_up() -> Dict[str, str]:
    """One untimed import-only child, so byte-code compilation is not
    billed to the first ``setup_s``; returns the library versions."""
    return run_child(workloads.SELF_TEST.name, workloads.DEFAULT_SEED,
                     setup_only=True)["versions"]


def _note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics and harness checks
# ---------------------------------------------------------------------------


def summarize(values: Sequence[Optional[float]]) -> Optional[Dict[str, Any]]:
    """Median, quartiles (``statistics.quantiles``, n=4) and n; ``None``
    when a value is missing."""
    if not values or any(v is None for v in values):
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    counts = all(isinstance(v, int) for v in values)
    median = (statistics.median_low if counts else statistics.median)(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "runs": list(values)}


def harness_problems(traced: List[Dict[str, Any]]) -> List[str]:
    """Checks on the traced children of one workload and seed."""
    problems = []
    for child in traced:
        gap = abs(child["self_sum_s"] - child["wall_s"])
        if gap > SELF_SUM_TOL * child["wall_s"]:
            problems.append(f"self times sum to {child['self_sum_s']:.4f} s, "
                            f"traced wall is {child['wall_s']:.4f} s")
        if child["counters"]["cache.lookups"] != 0:
            problems.append(f"{child['counters']['cache.lookups']} cache "
                            f"lookups with the cache off")
    if any(c["counters"] != traced[0]["counters"] for c in traced[1:]):
        problems.append("program counters differ between traced runs")
    return problems


def layer_summary(traced: List[Dict[str, Any]],
                  untraced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer metrics: medians over the traced children, exact
    counters, and the tracing overhead.  ``traced[i]`` and
    ``untraced[i]`` ran back to back, so the overhead is taken per pair:
    the host's speed drifts over minutes, and a pair shares its state."""
    out = {name: summarize([c["layers"][name] for c in traced])
           for name in layers.layer_units()}
    out.update({name: summarize([c["counters"][name] for c in traced])
                for name in layers.COUNTERS})
    out[OVERHEAD] = summarize([100.0 * (t["wall_s"] / u["wall_s"] - 1.0)
                               for t, u in zip(traced, untraced)])
    return out


# ---------------------------------------------------------------------------
# One measurement (the interface BENCHMARK.json declares)
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Run one workload's children for ``seconds``: untraced ones, or
    back-to-back untraced/traced pairs with ``trace``.  Returns the
    metrics BENCHMARK.json lists (end-to-end, or per-layer with
    ``trace``), the operation counts and the check results."""
    start = time.monotonic()

    def child(**kwargs) -> Dict[str, Any]:
        left = start + RUN_DEADLINE_S - time.monotonic()
        return run_child(name, seed, timeout=max(left, 1.0), **kwargs)

    child(setup_only=True)  # warm-up, as in warm_up()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    limit = min(seconds, RUN_BUDGET_S)
    last = 0.0
    pair = 0
    # The next child (or traced pair) starts only if it should end within
    # the limit, judging by the last one.
    while not untraced or time.monotonic() - start + last <= limit:
        began = time.monotonic()
        order = (False, True) if pair % 2 == 0 else (True, False)
        for traced_child in order if trace else (False,):
            result = child(trace=traced_child)
            (traced if traced_child else untraced).append(result)
        last = time.monotonic() - began
        pair += 1

    host: Dict[str, float] = {}
    if trace:
        units = per_layer_units()
        values = {metric: None if stats is None else stats["median"]
                  for metric, stats in layer_summary(traced, untraced).items()}
    else:
        units = END_TO_END
        setups = list(untraced)
        while len(setups) < SETUP_SAMPLES:
            setups.append(child(setup_only=True))
        values = {"wall_s": statistics.median(c["wall_s"] for c in untraced),
                  "setup_s": statistics.median(c["setup_s"] for c in setups),
                  "peak_rss_mb": statistics.median(
                      c["peak_rss_mb"] for c in untraced)}
        host = {"host_wall_s": statistics.median(
                    c["host_wall_s"] for c in untraced),
                "host_setup_s": statistics.median(
                    c["host_setup_s"] for c in setups)}
    children = untraced + traced
    problems = harness_problems(traced) if trace else []
    failed = sum(c["failed"] for c in children)
    return {
        "correct": failed == 0 and not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
        "host": host,
        "failures": sorted({f"{op}: {message}" for c in children
                            for op, message in c["failures"].items()}),
        "problems": problems,
        "checks": untraced[0]["checks"],
        "paper": untraced[0]["paper"],
        "missing_targets": sorted({t for c in traced
                                   for t in c["missing_targets"]}),
        "counters": traced[0]["counters"] if trace else None,
    }


def print_measurement(name: str, seed: int, seconds: float,
                      trace: bool) -> int:
    result = measure(name, seed, seconds, trace)
    for line in result["failures"]:
        _note(f"bench: {name} {line}")
    for problem in result["problems"]:
        _note(f"bench: {name}: {problem}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


# ---------------------------------------------------------------------------
# Suite mode
# ---------------------------------------------------------------------------


def _environment(versions: Dict[str, str]) -> Dict[str, Any]:
    return {"nproc": NPROC, **versions, "commit": _git_commit()}


def _git_commit() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git checkout (git
    does not look above the checkout's directory)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def suite(seed: int, repeats: int, seconds: float,
          out: Optional[str]) -> int:
    env = _environment(warm_up())
    runs: Dict[str, Dict[bool, List[Dict[str, Any]]]] = {
        name: {False: [], True: []} for name in workloads.WORKLOADS}
    for index in range(repeats):
        order = (False, True) if index % 2 == 0 else (True, False)
        for name in workloads.WORKLOADS:
            for trace in order:
                _note(f"bench: set {index + 1}/{repeats} {name} "
                      f"{'traced' if trace else 'untraced'}")
                runs[name][trace].append(measure(name, seed, seconds, trace))

    report: Dict[str, Any] = {"environment": env, "seed": seed,
                              "repeats": repeats, "seconds": seconds,
                              "workloads": {}}
    ok = True
    for name, by_trace in runs.items():
        untraced, traced = by_trace[False], by_trace[True]
        everyone = untraced + traced
        attempted = sum(m["attempted"] for m in everyone)
        failed = sum(m["failed"] for m in everyone)
        problems = sorted({p for m in traced for p in m["problems"]})
        if any(m["counters"] != traced[0]["counters"] for m in traced[1:]):
            problems.append("program counters differ between sets")
        ok = ok and failed == 0 and not problems

        def over_sets(measurements, metric):
            return summarize([m["metrics"][metric]["value"]
                              for m in measurements])

        end_to_end = {metric: over_sets(untraced, metric)
                      for metric in END_TO_END}
        end_to_end["fail_frac"] = {"value": failed / attempted,
                                   "failed": failed, "attempted": attempted}
        report["workloads"][name] = {
            "checks": untraced[0]["checks"],
            "end_to_end": end_to_end,
            "host": {metric: summarize([m["host"][metric] for m in untraced])
                     for metric in HOST},
            "per_layer": {metric: over_sets(traced, metric)
                          for metric in per_layer_units()},
            "paper": untraced[0]["paper"],
            "failures": sorted({f for m in everyone for f in m["failures"]}),
            "harness_problems": problems,
            "missing_targets": sorted({t for m in traced
                                       for t in m["missing_targets"]}),
        }
    report["ok"] = ok
    print_report(report)
    if out:
        pathlib.Path(out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == int(value) and abs(value) < 1e12:
        return f"{int(value)}"
    return f"{value:.4g}"


def print_report(report: Dict[str, Any]) -> None:
    env = report["environment"]
    print(f"commit {env['commit']}  nproc {env['nproc']}  python "
          f"{env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"seed {report['seed']}  sets {report['repeats']} x "
          f"{report['seconds']:g} s")
    units = {**END_TO_END, **HOST, **per_layer_units()}
    for name, data in report["workloads"].items():
        print(f"\n== {name} (checks: {data['checks']})")
        print(f"  {'metric':34s} {'unit':>10s} {'median':>10s} "
              f"{'q1':>10s} {'q3':>10s} {'n':>3s}")
        for section in ("end_to_end", "host", "per_layer"):
            for metric, stats in data[section].items():
                if metric == "fail_frac":
                    print(f"  {metric:34s} {'ratio':>10s} "
                          f"{_fmt(stats['value']):>10s}  "
                          f"({stats['failed']}/{stats['attempted']})")
                    continue
                if stats is None:
                    print(f"  {metric:34s} {units[metric]:>10s} "
                          f"{'null':>10s}")
                    continue
                print(f"  {metric:34s} {units[metric]:>10s} "
                      f"{_fmt(stats['median']):>10s} {_fmt(stats['q1']):>10s} "
                      f"{_fmt(stats['q3']):>10s} {stats['n']:>3d}")
                if metric == "wall_s" and data["paper"]:
                    paper = ", ".join(f"{k} {v:+.2f}" if "dev" in k
                                      else f"{k} {v:.4f}"
                                      for k, v in data["paper"].items())
                    print(f"    vs paper (ungated): {paper}")
        for line in data["failures"] + data["harness_problems"]:
            print(f"  FAIL {line}")
        for target in data["missing_targets"]:
            print(f"  WARN wrap target {target} missing (its layer reads null)")
    print(f"\n{'all checks passed' if report['ok'] else 'CHECKS FAILED'}")


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------


def _spec() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def _bounds() -> Dict[str, float]:
    return {m["name"]: m["bound"] for m in _spec()["end_to_end"]}


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float) -> str:
    """Lower is better.  Unresolved when either side's quartile spread is
    wider than the bound, unless every B run beats every A run."""
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        return "better" if max(b["runs"]) < min(a["runs"]) else "unresolved"
    change = b["median"] / a["median"] - 1.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    bounds = _bounds()
    print(f"A {path_a} (commit {a['environment']['commit']})\n"
          f"B {path_b} (commit {b['environment']['commit']})")
    print(f"{'workload':12s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'bound':>7s}  verdict")
    worse = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in list(END_TO_END) + ["fail_frac"]:
            sa = a["workloads"][name]["end_to_end"][metric]
            sb = b["workloads"][name]["end_to_end"][metric]
            if metric == "fail_frac":
                result = ("worse" if sb["value"] > sa["value"] else
                          "better" if sb["value"] < sa["value"] else "within")
                cells = (f"{sa['value']:.4g}", f"{sb['value']:.4g}", "0")
            else:
                result = verdict(sa, sb, bounds[metric])
                cells = tuple(f"{s['median']:.4g} [{s['q1']:.4g}, "
                              f"{s['q3']:.4g}]" for s in (sa, sb))
                cells += (f"{bounds[metric]:.0%}",)
            worse = worse or result == "worse"
            print(f"{name:12s} {metric:12s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{cells[2]:>7s}  {result}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# Self-test and reference recording
# ---------------------------------------------------------------------------


def self_test() -> int:
    # The children must ignore a cache configured in the parent.
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / "bench" / "selftest-cache")
    try:
        warm_up()
        rc = workloads.SELF_TEST.name
        untraced = run_child(rc, workloads.DEFAULT_SEED)
        traced = [run_child(rc, workloads.DEFAULT_SEED, trace=True)
                  for _ in range(2)]
    finally:
        del os.environ["REPRO_CACHE_DIR"]
    missing_metric = workloads.MISSING_LAYER.time_metric
    spec = _spec()
    checks = {
        "outputs correct": all(c["failed"] == 0 for c in [untraced] + traced),
        "self times + unattributed within 1% of traced wall, counters "
        "identical, cache.lookups == 0": not harness_problems(traced),
        "every wrap target resolves": all(
            c["missing_targets"] == [workloads.MISSING_TARGET]
            for c in traced),
        "a missing target reads null": all(
            c["layers"][missing_metric] is None
            and all(v is not None for k, v in c["layers"].items()
                    if k != missing_metric) for c in traced),
        "BENCHMARK.json lists the emitted metrics": (
            [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
            and [m["name"] for m in spec["per_layer"]]
            == list(per_layer_units())
            and [w["name"] for w in spec["workloads"]]
            == list(workloads.WORKLOADS)),
    }
    for problem in harness_problems(traced):
        _note(f"bench: {problem}")
    for label, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(checks.values()) else 1


def record_reference() -> int:
    warm_up()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        child = run_child(name, workloads.DEFAULT_SEED, record=True)
        if child["failed"]:
            _note(f"bench: {name} fails its seed-free checks: "
                  f"{child['failures']}")
            return 1
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(child["outputs"], indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=float(_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _note(f"bench: no program source at {ROOT / 'src' / 'repro'}")
        return 2
    pin_to_one_cpu()
    try:
        if args.self_test:
            return self_test()
        if args.record_reference:
            return record_reference()
        if args.workload:
            return print_measurement(args.workload, args.seed,
                                     args.seconds, bool(args.trace))
        return suite(args.seed, args.repeats, args.seconds, args.out)
    except BenchError as exc:
        _note(f"bench: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
