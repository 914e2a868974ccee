"""Benchmark of beamtrack: one workload per invocation, in one process.

    python3 perfbench/run.py --workload {track,sweep,model} --seed N \
        --seconds S --trace {0,1}

The run repeats the workload's set-up a few times, then runs whole rounds of
the workload until S seconds have passed, then checks the outputs. While the
rounds run, a speed.Meter samples a fixed reference loop every quarter second and
reports each round's cost in multiples of it (see speed.py). The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, timed untraced. With --trace 1 the same rounds run again with
every beamtrack entry point wrapped in a span; the metrics are then the
per-layer metrics of BENCHMARK.json, per round, and the spans are written to
perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import resource
import sys
from statistics import median
from time import perf_counter

import bootstrap

bootstrap.prepare()

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_rounds(workload, meter: speed.Meter, seconds: float) -> tuple[list[float], list[float], int, int]:
    """Whole rounds until `seconds` have passed (at least one).

    Returns each round's wall time without the reference samples, each
    round's cost in `ref`, and the operations attempted and failed.
    """
    marks, attempted, failed = [], 0, 0
    start = perf_counter()
    with meter.run():
        marks.append(meter.mark())
        while len(marks) < 2 or perf_counter() - start < seconds:
            a, f = workload.run_round(len(marks) - 1)
            marks.append(meter.mark())
            attempted += a
            failed += f
    busy, cost = zip(*(meter.between(a, b) for a, b in zip(marks, marks[1:])))
    return list(busy), list(cost), attempted, failed


def declared_metrics(key: str) -> dict[str, str]:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main() -> int:
    parser = argparse.ArgumentParser(description="beamtrack benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    meter = speed.Meter()
    workload = workloads.WORKLOADS[args.workload](args.seed, meter)
    try:
        setup_s = []
        for _ in range(workload.setup_repeats):
            t0 = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - t0)

        round_s, round_cost, attempted, failed = run_rounds(workload, meter, args.seconds)
        refs = meter.refs
        print(f"{args.workload}: {len(round_s)} rounds, setup_s {median(setup_s):.4f} s, "
              f"round_s {median(round_s):.4f} s, round_cost {median(round_cost):.2f} ref; "
              f"{len(refs)} reference samples, median {1000 * median(refs):.2f} ms, "
              f"range {1000 * min(refs):.2f}-{1000 * max(refs):.2f} ms")
        if args.trace:
            spans = tracer.Tracer()
            traced_s = []
            with spans.installed():
                for k in range(len(round_s)):
                    t0 = perf_counter()
                    a, f = workload.run_round(k)
                    traced_s.append(perf_counter() - t0)
                    attempted += a
                    failed += f
            overhead = (sum(traced_s) - sum(round_s)) / len(round_s)
            values = spans.per_layer(len(round_s), overhead)
            trace_path = bootstrap.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
            spans.write(trace_path)
            print(f"{len(spans.spans)} spans written to {trace_path}")
            print(f"tracing overhead {overhead:.4f} s per round")
            for layer in tracer.LAYERS:
                print(f"  {layer:<12} self {values[layer + '.self_s']:9.4f} s"
                      f"  calls {values[layer + '.calls']:10.0f}  per round")
        else:
            values = {
                "setup_s": median(setup_s),
                "round_cost": median(round_cost),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            for name, value, unit in workload.breakdown():
                print(f"  {name} {value:.6g} {unit}")

        problems = workload.check()
    finally:
        workload.close()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    line = json.dumps(result)
    result_path = bootstrap.OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
