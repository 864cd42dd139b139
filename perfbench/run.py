"""pqham benchmark: four workloads, each run as whole rounds in fresh
interpreters, with correctness checks on every output.

    python3 perfbench/run.py --workload survey-255 --seed 1 --seconds 28 --trace 0

With --trace 0 it prints the end-to-end metrics: medians over the rounds
of wall_s, cpu_s and peak_rss_mib, and the median set-up time over
several fresh interpreters. With --trace 1 it runs one untraced and one
traced round of the same inputs and prints the per-layer metrics,
writing the traced round's spans to .bench_out/. The last line of
stdout is one JSON object.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is ~0.07 s of import, the noisiest figure: fresh interpreters
# that only set up, three before the rounds and one after each of the
# first rounds, give its median together with the rounds' own set-up.
SETUP_BEFORE, SETUP_SAMPLES = 3, 12
# A run exits within 180 s; a child gets what is left of this.
RUN_LIMIT_S = 170
# A second round may end this many times --seconds after the start, so
# that large-actions (16-19 s a round) has two rounds for its medians.
SECOND_ROUND_SLACK = 1.4

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}


class ChildFailed(Exception):
    pass


def child(workload, seed, deadline, *flags):
    """One fresh interpreter running perfbench/round.py; its result."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildFailed("no time left for another round")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed("a round of %s ran past the time limit" % workload)
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip() or "round exited %d"
                          % proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload, seed, seconds, deadline):
    """Whole rounds while the next one is expected to end within the
    measured seconds (at least one, and two if the second is expected to
    end within SECOND_ROUND_SLACK times them); medians over rounds."""
    def setup():
        return child(workload, seed, deadline, "--setup-only")["setup_s"]

    setups = [setup() for _ in range(SETUP_BEFORE)]
    rounds = []
    measured = 0.0
    while True:
        start = time.perf_counter()
        rounds.append(child(workload, seed * 1000 + len(rounds), deadline))
        measured += time.perf_counter() - start
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup())
        limit = seconds * (SECOND_ROUND_SLACK if len(rounds) == 1 else 1)
        if measured / len(rounds) * (len(rounds) + 1) > limit:
            break
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }
    return rounds, {m: (v, END_TO_END[m]) for m, v in metrics.items()}


def per_layer(workload, seed, deadline):
    """One untraced and one traced round of the same inputs."""
    trace_dir = ROOT / ".bench_out"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / ("spans-%s-%d.json" % (workload, seed))
    plain = child(workload, seed, deadline)
    traced = child(workload, seed, deadline, "--trace", "--trace-path",
                   str(path))
    values = {**traced["per_layer"],
              "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
    return [plain, traced], {m: (values[m], unit)
                             for m, unit in spans.PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pqham" / "__init__.py").is_file():
        print("no pqham sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            rounds, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            rounds, metrics = end_to_end(args.workload, args.seed,
                                         args.seconds, deadline)
    except ChildFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    for r in rounds:
        for line in r["problems"] + r["errors"]:
            print("%s: %s" % (args.workload, line), file=sys.stderr)
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
