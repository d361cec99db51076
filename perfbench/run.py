"""bitcycle benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload desk_k1_train --seed 0 --seconds 30 --trace 0

Run from the root of a bitcycle checkout. With ``--trace 0`` the timed call
repeats untraced until ``--seconds`` would be exceeded (at least once), and
the end-to-end metrics are medians over those calls. With ``--trace 1`` the
first call runs untraced, the rest run under the layer tracer, and the
per-layer metrics come from the traced calls.

Every output check counts toward ``attempted``; a failing one toward
``failed``. The lines before the last print every metric by name and unit,
the checks, and the environment; the same details go to
``perfbench/out/<workload>/result.json`` (and ``spans.json`` when traced).
The last line is the JSON result.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "images_per_s": "img/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_share": "fraction",
}


def layer_unit(name: str) -> str:
    if name.endswith("gflop"):
        return "GFLOP-computed"
    if name.endswith("_mb"):
        return "MB" if name.startswith("checkpoint.") else "MB-computed"
    if name == "tensor.nodes":
        return "count-computed"
    if name == "trace.coverage":
        return "fraction"
    if name == "trace.overhead_pct":
        return "%"
    return "ms"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "bitcycle")):
        print(f"error: no bitcycle sources under {ROOT}/src; run from a bitcycle checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START

    out_root = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    w = workloads.WORKLOADS[args.workload](ROOT, args.seed, out_root)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)

    calls, traced = [], []
    tr = tracer.Tracer() if args.trace else None
    t_loop = time.perf_counter()
    while True:
        out_dir = os.path.join(out_root, "call")
        shutil.rmtree(out_dir, ignore_errors=True)
        if tr is not None and calls:
            with tr:
                result = w.call(out_dir)
            traced.append(result)
        else:
            result = w.call(out_dir)
            calls.append(result)
        w.check(result, out_dir)
        if (tr is None or traced) and time.perf_counter() - t_loop + result.seconds > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = calls + traced
    checks = [c for call in everything for c in call.checks]
    checks += [("repeated calls agree on the output digest", c.digest == calls[0].digest)
               for c in calls[1:]]
    checks += [("traced call leaves the untraced call's output digest", c.digest == calls[0].digest)
               for c in traced]
    checks += w.after(everything)
    if tr is not None:
        checks += w.guard(tr.spans, len(traced))
    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)
    details = {"workload": args.workload, "why": type(w).__doc__,
               "environment": environment(args.seed),
               "calls": [{"seconds": c.seconds, "images": c.images, "sha256": c.digest, **c.final}
                         for c in everything]}
    if tr is None:
        metrics = {
            "images_per_s": statistics.median(c.images / c.seconds for c in calls),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "checks_passed_share": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        details.update(import_s=import_s, setup_repeats_s=setups, failed_share=failed / attempted)
    else:
        metrics, layer_details = tracer.summarize(tr.spans, workloads.desk_conv_instances())
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(c.seconds for c in traced) / calls[0].seconds - 1.0)
        units = {name: layer_unit(name) for name in metrics}
        details.update(layer_details)
        tr.dump(os.path.join(out_root, "spans.json"))
    details["checks"] = [{"name": n, "passed": ok} for n, ok in checks]
    details["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(out_root, "result.json"), "w") as f:
        json.dump(details, f, indent=1)

    for k, v in details["environment"].items():
        print(f"env  {k:<16} {v}")
    for c in details["calls"]:
        print("call " + "  ".join(f"{k}={v}" for k, v in c.items()))
    for n, ok in checks:
        print(f"check {'PASS' if ok else 'FAIL'}  {n}")
    for k, v in details["metrics"].items():
        print(f"metric {k:<44} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": details["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
