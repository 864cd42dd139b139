"""One round of one workload, in the interpreter that runs this file.

A fresh interpreter per round keeps the program's in-process caches
(engine._SPACE_CACHE, the lru_cache in field) from making a second pass
cheaper than a user's first. Prints one JSON object on its last line.

    python3 perfbench/round.py --workload prism-paths --seed 7 [--trace]
    python3 perfbench/round.py --workload tables-131 --seed 7 --setup-only
"""

import argparse
import json
import resource
import sys
import time

import spans
import workloads


def run_round(name, seed, small=False, trace=False, setup_only=False,
              trace_path=None):
    """Set up, run and check one round; the result as a dict."""
    t0 = time.perf_counter()
    pq = workloads.import_program()
    workload = workloads.make(name, pq, seed, small)
    setup_s = time.perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install(pq)
    attempted, errors = 0, []

    def op(fn):
        nonlocal attempted
        attempted += 1
        try:
            fn()
        except Exception as exc:
            errors.append("%s: %s" % (type(exc).__name__, exc))

    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        workload.run(op)
    finally:
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()  # the checks below are not the workload
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = workload.check()
    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mib": peak_rss_mib,
           "attempted": attempted, "failed": len(errors),
           "errors": errors[:5], "correct": not problems,
           "problems": problems[:10]}
    if tracer is not None:
        stdout_bytes = len(getattr(workload, "stdout", "").encode())
        out["per_layer"] = tracer.metrics(stdout_bytes, wall_s)
        if trace_path is not None:
            tracer.dump(trace_path, {"workload": name, "seed": seed,
                                     "wall_s": wall_s})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run_round(args.workload, args.seed, args.small, args.trace,
                       args.setup_only, args.trace_path)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
