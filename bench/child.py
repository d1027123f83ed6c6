"""Benchmark child: one cold run of one workload in a fresh interpreter.

Started by ``bench/run.py``, never by hand.  It imports the program from
``src/`` of the checkout it lives in, builds a ``Session`` (cache off,
one worker), times the workload's flow call, checks the outputs, and
prints one JSON object as the last line of standard output.

``--spawn`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s``
covers interpreter start, ``import repro`` and ``Session``.

With ``--trace 1`` the child also enables the program's tracing session
(so its counters flush) and wraps the layers (``layers.py``) at the start
of the timed flow call; only its wall time, for the tracing overhead, is
compared with untraced children.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    import repro

    location = pathlib.Path(repro.__file__).resolve()
    if SRC not in location.parents:
        sys.exit(f"bench: imported repro from {location}, not from {SRC}")
    from repro.api import Session

    return Session(workers=1)


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the flow call")
    parser.add_argument("--record", action="store_true",
                        help="skip the reference comparison (recording it)")
    args = parser.parse_args(argv)

    session = _import_program()
    if args.setup_only:
        setup_s = time.monotonic() - args.spawn
        print(json.dumps({"setup_s": setup_s, "versions": _versions()}))
        return 0

    import layers
    import workloads

    workload = workloads.get(args.workload)
    timer = None
    all_layers = layers.LAYERS
    if workload is workloads.SELF_TEST:
        all_layers += (workloads.MISSING_LAYER,)
    missing = []
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing(fresh=True)
        timer = layers.SelfTimer()

    def traced_flow():
        # Wrapping imports every layer module.  Doing it inside the timed
        # call bills those imports like the untraced flow's lazy ones, and
        # bills the wrapping to the tracing overhead.
        missing.extend(layers.install(timer, all_layers))
        return workload.run(session, args.seed)

    setup_s = time.monotonic() - args.spawn
    start = time.perf_counter()
    if timer is None:
        outputs, errors = workload.run(session, args.seed)
    else:
        outputs, errors = timer.run(traced_flow)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = None
    seed_free = workload.seeded and args.seed != workloads.DEFAULT_SEED
    if not (args.record or seed_free):
        reference = workloads.load_reference(workload.name)
    failures = dict(errors)
    for op, message in workload.check(outputs, reference).items():
        failures.setdefault(op, message)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": failures,
        "checks": "seed-free" if reference is None else "reference",
        "paper": workload.paper(outputs) if workload.paper and outputs else {},
        "outputs": outputs,
    }
    if timer is not None:
        result["layers"] = layers.layer_metrics(timer, missing, all_layers)
        result["self_sum_s"] = timer.total()
        result["counters"] = layers.counter_metrics()
        result["missing_targets"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
