"""corrfuse benchmark: one workload per invocation, through the real CLI.

    python3 bench/run.py --workload {train,diverse,fuse} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it runs round(S / nominal iteration time) iterations of
the workload, each on its own inputs derived from N, with every CLI command
in a child process, and reports end-to-end metrics as medians over the
iterations; times are scaled to a reference machine speed measured next to
each step (``speedref.py``), on the one CPU the benchmark pins itself to.
With ``--trace 1`` it runs the first iteration twice, once
untraced as above and once in-process under timing wrappers, checks that
both write the same bytes, and reports per-layer metrics; spans go to
``.bench_work/spans-<workload>.tsv``.  The last line of standard
output is one JSON object; the exit code is 0 when the benchmark ran,
whether or not the program's outputs passed their checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as for the CLI children

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TIME_LIMIT_S = 170.0  # children are killed past this, so a run ends within 180 s

# seconds one untraced iteration takes at speedref's reference speed, probes
# included; on a busy host an iteration takes up to half as long again
NOMINAL_ITERATION_S = {"train": 3.5, "diverse": 5.2, "fuse": 2.5}


def iteration_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def iteration_count(workload: str, seconds: int) -> int:
    """Fixed by --seconds, not by how fast this machine is, so a seed always
    names the same inputs."""
    return max(1, round(seconds / NOMINAL_ITERATION_S[workload]))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _failures(iterations) -> tuple[int, int]:
    attempted = sum(len(it.steps) + it.skipped for it in iterations)
    failed = sum(sum(not s.ok for s in it.steps) + it.skipped for it in iterations)
    return attempted, failed


def _report_problems(iterations) -> None:
    for it in iterations:
        for step in it.steps:
            if not step.ok:
                print(f"{step.command}: {'; '.join(step.problems)}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: int, work: Path, sizes) -> dict:
    import workloads

    deadline = time.monotonic() + TIME_LIMIT_S
    runner = workloads.make_cli_runner(SRC, deadline)
    iterations = []
    for index in range(iteration_count(workload, seconds)):
        plan = workloads.plan(workload, iteration_seed(seed, index), sizes)
        it = workloads.execute(plan, work / f"iter{index}", runner, probe=True)
        iterations.append(it)
        shutil.rmtree(work / f"iter{index}")
        print(f"iteration {index}: seed {iteration_seed(seed, index)} setup_s {it.setup_s:.4f} "
              f"run_s {it.run_s():.4f}, at reference speed {it.setup_ref_s:.4f} and {it.run_ref_s:.4f}",
              flush=True)
        if any(not s.ok for s in iterations[-1].steps) or time.monotonic() > deadline - 30:
            break
    _report_problems(iterations)
    attempted, failed = _failures(iterations)
    complete = [it for it in iterations if not it.skipped and all(s.ok for s in it.steps)]
    metrics = {"ok_frac": _metric((attempted - failed) / attempted, "ratio")}
    if complete:
        metrics.update(
            setup_s=_metric(statistics.median(it.setup_ref_s for it in complete), "s"),
            run_s=_metric(statistics.median(it.run_ref_s for it in complete), "s"),
            peak_rss_mb=_metric(statistics.median(max(s.rss_mb for s in it.steps) for it in complete), "MB"),
        )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace(workload: str, seed: int, work: Path, sizes) -> dict:
    import checks
    import tracer as tracing
    import workloads

    plan = workloads.plan(workload, iteration_seed(seed, 0), sizes)
    runner = workloads.make_cli_runner(SRC, time.monotonic() + TIME_LIMIT_S)
    untraced = workloads.execute(plan, work / "untraced", runner)
    spans = tracing.Tracer()
    with tracing.installed(spans):
        traced = workloads.execute(plan, work / "traced", workloads.InProcess(spans), spans)
    problems = workloads.compare_runs(untraced, traced, work / "untraced", work / "traced")
    problems += _self_time_sums(spans)
    for p in problems:
        print(f"traced run: {p}", file=sys.stderr)
    _report_problems([untraced, traced])
    spans.write(WORK / f"spans-{workload}.tsv")

    attempted, failed = _failures([untraced, traced])
    if problems:  # differing bytes or self times count as one failed operation
        failed = min(attempted, failed + 1)
    layers = tracing.layer_metrics(spans)
    if all(s.ok for s in untraced.steps) and not untraced.skipped:
        layers["quality.f05"] = plan.quality({s.command: checks.parse_summary(s.stdout) for s in untraced.measured()})
    walls = {s.command: s.wall_s for s in untraced.steps}
    for step in traced.steps:
        layers[f"cli.{step.command}.overhead_s"] = step.wall_s - walls.get(step.command, 0.0)
    for step in untraced.steps:
        layers[f"cli.{step.command}.wall_s"] = step.wall_s
    metrics = {}
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        metrics[entry["name"]] = _metric(layers.get(entry["name"], 0.0), entry["unit"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _self_time_sums(spans) -> list[str]:
    """Per command, the self times of all its spans must add up to the wall
    time of its top span."""
    total = [0.0] * len(spans.run_names)
    wall = [0.0] * len(spans.run_names)
    for i, (run, self_s) in enumerate(zip(spans.run, spans.self_times())):
        total[run] += self_s
        if spans.parent[i] < 0:
            wall[run] += spans.end[i] - spans.start[i]
    return [
        f"{name}: self times sum to {t:.6f} s, wall is {w:.6f} s"
        for name, t, w in zip(spans.run_names, total, wall)
        if abs(t - w) > 1e-6 * max(1.0, w)
    ]


def pin_to_one_cpu() -> None:
    """Run the benchmark and, by inheritance, every CLI child on one CPU:
    the CPUs of a shared host run at different speeds from moment to moment,
    and a speed probe scales only steps that ran on the CPU it measured."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ITERATION_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "corrfuse" / "cli.py").is_file():
        print(f"corrfuse sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, work, workloads.STANDARD)
        else:
            result = measure(args.workload, args.seed, args.seconds, work, workloads.STANDARD)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
