"""Check that the working tree gives the same outputs as a git revision.

    python tools/same_outputs.py --base REV [--seeds 1,2,...] [--repeat N [--json PATH]]

REV is unpacked with ``git archive`` into a temporary directory, so ``.git``
is not touched.  Both trees, REV's and the working tree's (uncommitted
changes included), then run the same cases, every command as a CLI child
(``python -m corrfuse.cli``) with the tree's ``src/`` on the path, one BLAS
thread and ``PYTHONHASHSEED=0`` (``bench/workloads.py`` ``child_env``):

- the default config's chain ``gen``, ``train``, ``ddt``, ``stages``, then
  ``tune``, ``combine``, ``eval`` and ``diversity`` on the stage-0 outputs,
  and ``eval`` once more with ``eval.baseline`` set to a stage-0 output, so
  that its sign test runs too (``data.dir`` and ``train.models`` from the
  config's defaults);
- with ``--seeds S1,S2,...``, that chain once more per seed, as the case
  ``default-seed<S>``, with ``--seed S`` on every command;
- the three benchmark plans of ``bench/workloads.py`` (``plan(workload,
  seed, STANDARD)``, imported from the working tree) at seeds 1000, 2000 and
  3000; a plan's input writer runs in a child of each tree.

Each case runs in a fresh directory of each tree.  Every command must exit 0
in both trees, as the benchmark requires of every step, so that two equal
failures do not count as a match.  Exit codes, standard output, standard
error and the sha256 of every file in the case directory must be equal.
Every case runs.  A case that failed or differs prints its first failure or
difference, led by ``FAILED:`` or ``DIFFERENT:``, then how many of its files
differ and the first ``LISTED_FILES`` of them, and the exit code is then 1;
it is 0 when every command succeeded and every case matched.

With ``--repeat N``, the default chain then runs N more times in each tree,
each time in a fresh directory, the base tree first in even rounds and the
working tree first in odd ones.  Each child's resource use comes from
``os.wait4``, and its wall time is also scaled by the ``bench/speedref.py``
probes timed just before and after it, as the benchmark scales its steps.
Per step and tree it prints the medians of wall time, child CPU time (user
and system), scaled time, peak RSS and minor faults, and in how many rounds
the tree's wall time beat the other's; ``--json PATH`` writes that table,
with this process's own peak RSS, which a child's peak can include.  Timing
is not a gate: it leaves the exit code as the comparison set it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import speedref  # noqa: E402  (needs the paths above)
import workloads  # noqa: E402
from corrfuse.config import KNOWN_KEYS  # noqa: E402

PLAN_SEEDS = (1000, 2000, 3000)
LISTED_FILES = 10
DEFAULT_DIR = KNOWN_KEYS["data.dir"][1]
STAGE0 = [f"{DEFAULT_DIR}/out/stage0.sys{m}.hyp" for m in range(int(KNOWN_KEYS["train.models"][1]))]


@dataclass(frozen=True)
class Case:
    name: str
    prepare: tuple[str, int] | None  # (workload, seed) of a plan's input writer
    steps: list[tuple[str, list[str]]]


class Usage(NamedTuple):
    """One CLI child's resource use."""

    wall_s: float
    cpu_s: float  # user and system
    ref_s: float  # wall_s at speedref's reference speed; 0 when not probed
    rss_mb: float  # peak resident set
    minflt: int


def default_chain(seed: int | None = None) -> Case:
    """The default config's chain; with ``seed``, ``--seed seed`` on every
    command."""
    hyps = ",".join(STAGE0)
    seed_args = [] if seed is None else ["--seed", str(seed)]

    def step(command: str, *sets: str) -> tuple[str, list[str]]:
        return command, seed_args + [arg for pair in sets for arg in ("--set", pair)]

    return Case(
        "default" if seed is None else f"default-seed{seed}",
        None,
        [
            step("gen"),
            step("train"),
            step("ddt"),
            step("stages"),
            step("tune", f"tune.hyps={hyps}"),
            step("combine", f"combine.hyps={hyps}"),
            step("eval", f"eval.hyp={DEFAULT_DIR}/out/combined.hyp"),
            step("eval", f"eval.hyp={DEFAULT_DIR}/out/combined.hyp", f"eval.baseline={STAGE0[0]}"),
            step("diversity", f"div.a={STAGE0[0]}", f"div.b={STAGE0[1]}"),
        ],
    )


def plan_case(workload: str, seed: int) -> Case:
    plan = workloads.plan(workload, seed, workloads.STANDARD)
    prepare = (workload, seed) if plan.prepare is not None else None
    return Case(f"{workload}-seed{seed}", prepare, plan.setup + plan.measured)


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_cli(
    command: str, args: list[str], cwd: Path, env: dict[str, str],
    speed: workloads._ReferenceSpeed | None = None,
) -> tuple[int, str, str, Usage]:
    """Run one CLI command as a child: its exit code, standard output and
    error, and its resource use, taken with ``os.wait4`` as
    ``workloads.make_cli_runner`` takes it.  With ``speed``, the wall time is
    also scaled by the probes just before and after the child."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "corrfuse.cli", command, *args], cwd=cwd, env=env, stdout=out, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    ref = speed.scale(wall) if speed is not None else 0.0
    return proc.returncode, stdout, stderr, Usage(
        wall, usage.ru_utime + usage.ru_stime, ref, usage.ru_maxrss / 1024.0, usage.ru_minflt
    )


def run_case(case: Case, src: Path, cwd: Path) -> tuple[list[tuple[str, int, str, str]], dict[str, str]]:
    """The (command, exit code, stdout, stderr) of each step, and the sha256
    of every file the case left in ``cwd``."""
    cwd.mkdir(parents=True)
    env = workloads.child_env(src)
    if case.prepare is not None:
        workload, seed = case.prepare
        script = (
            f"import sys; sys.path.insert(0, {str(BENCH)!r}); from pathlib import Path; import workloads;"
            f" workloads.plan({workload!r}, {seed}, workloads.STANDARD).prepare(Path({workloads.DATA!r}))"
        )
        subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, check=True)
    results = []
    for command, args in case.steps:
        code, stdout, stderr, _ = run_cli(command, args, cwd, env)
        results.append((command, code, stdout, stderr))
    hashes = {
        str(p.relative_to(cwd)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(cwd.rglob("*"))
        if p.is_file()
    }
    return results, hashes


def first_problem(case: Case, base: tuple, head: tuple) -> str | None:
    (base_steps, base_files), (head_steps, head_files) = base, head
    for tree, steps in (("base", base_steps), ("head", head_steps)):
        for i, (command, code, _, stderr) in enumerate(steps):
            if code != 0:
                return f"FAILED: {case.name} step {i} ({command}): exit {code} in {tree}\n{stderr}"
    for i, (b, h) in enumerate(zip(base_steps, head_steps)):
        for what, index in (("stdout", 2), ("stderr", 3)):
            if b[index] != h[index]:
                return f"DIFFERENT: {case.name} step {i} ({b[0]}): {what} differs\n--- base\n{b[index]}\n--- head\n{h[index]}"
    for name in sorted(base_files.keys() | head_files.keys()):
        if base_files.get(name) != head_files.get(name):
            return f"DIFFERENT: {case.name}: {name} differs (base {base_files.get(name)}, head {head_files.get(name)})"
    return None


def differing_files_line(base_files: dict[str, str], head_files: dict[str, str]) -> str:
    """How many of the files in either tree differ, and the first
    ``LISTED_FILES`` of them by name."""
    names = sorted(base_files.keys() | head_files.keys())
    differing = [name for name in names if base_files.get(name) != head_files.get(name)]
    listed = differing[:LISTED_FILES] + (["..."] if len(differing) > LISTED_FILES else [])
    return f"  {len(differing)} of {len(names)} files differ: {' '.join(listed)}".rstrip()


def time_case(case: Case, src: Path, cwd: Path) -> list[Usage]:
    """Each step's resource use in one run of ``case``, which has no input
    writer, with speedref probes around every step; a failed step raises."""
    cwd.mkdir(parents=True)
    env = workloads.child_env(src)
    speed = workloads._ReferenceSpeed(True)
    usages = []
    for i, (command, args) in enumerate(case.steps):
        code, _, stderr, usage = run_cli(command, args, cwd, env, speed)
        if code != 0:
            raise RuntimeError(f"{case.name} step {i} ({command}): exit {code} while timing\n{stderr}")
        usages.append(usage)
    return usages


def time_rounds(case: Case, srcs: dict[str, Path], tmp: Path, rounds: int) -> dict[str, list[list[Usage]]]:
    """Each tree's runs of ``case``, one per round, each in a fresh directory;
    the base tree runs first in even rounds."""
    runs: dict[str, list[list[Usage]]] = {"base": [], "head": []}
    for r in range(rounds):
        for tree in ("base", "head") if r % 2 == 0 else ("head", "base"):
            runs[tree].append(time_case(case, srcs[tree], tmp / f"{tree}-time{r}"))
    return runs


def timing_summary(case: Case, runs: dict[str, list[list[Usage]]]) -> list[dict]:
    """Per step of ``case`` and tree: the median of each ``Usage`` field over
    the rounds, every round's wall time, and the rounds whose wall time beat
    the other tree's (a tie wins for neither)."""
    rows = []
    for i, (command, _) in enumerate(case.steps):
        row: dict = {"step": i, "command": command}
        for tree, other in (("base", "head"), ("head", "base")):
            mine, theirs = [run[i] for run in runs[tree]], [run[i] for run in runs[other]]
            row[tree] = {field: statistics.median(getattr(u, field) for u in mine) for field in Usage._fields}
            row[tree]["wall_runs_s"] = [u.wall_s for u in mine]
            row[tree]["wins"] = sum(a.wall_s < b.wall_s for a, b in zip(mine, theirs))
        rows.append(row)
    return rows


def timing_lines(rows: list[dict]) -> list[str]:
    """The timing table as text, base -> head per column."""
    columns = {"wall_s": "{:.3f}", "cpu_s": "{:.3f}", "ref_s": "{:.3f}", "rss_mb": "{:.1f}", "minflt": "{:.0f}"}
    lines = ["step command   " + "".join(f"{name:>17}" for name in columns) + "   wins"]
    for row in rows:
        base, head = row["base"], row["head"]
        cells = "".join(
            f"{fmt.format(base[name])}->{fmt.format(head[name])}".rjust(17) for name, fmt in columns.items()
        )
        lines.append(f"{row['step']:>4} {row['command']:<9}{cells}   {base['wins']}-{head['wins']}")
    return lines


def seed_list(text: str) -> list[int]:
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--seeds", type=seed_list, default=[], help="seeds of extra default chains, as 1,2,...")
    parser.add_argument("--repeat", type=int, default=0, help="timing rounds of the default chain per tree")
    parser.add_argument("--json", type=Path, default=None, help="write the timing table here (needs --repeat)")
    args = parser.parse_args(argv)
    if args.repeat < 0:
        parser.error("--repeat must be >= 0")
    if args.json is not None and not args.repeat:
        parser.error("--json needs --repeat")
    cases = (
        [default_chain()] + [default_chain(seed) for seed in args.seeds]
        + [plan_case(w, seed) for w in ("train", "diverse", "fuse") for seed in PLAN_SEEDS]
    )
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        base_tree = Path(tmp) / "base"
        unpack(args.base, base_tree)
        n_files, n_problems = 0, 0
        for case in cases:
            base = run_case(case, base_tree / "src", Path(tmp) / "base-runs" / case.name)
            head = run_case(case, ROOT / "src", Path(tmp) / "head-runs" / case.name)
            problem = first_problem(case, base, head)
            if problem is not None:
                n_problems += 1
                print(problem, differing_files_line(base[1], head[1]), sep="\n", flush=True)
                continue
            n_files += len(head[1])
            print(f"same: {case.name} ({len(head[0])} commands, {len(head[1])} files)", flush=True)
        if args.repeat:
            case = default_chain()
            runs = time_rounds(case, {"base": base_tree / "src", "head": ROOT / "src"}, Path(tmp), args.repeat)
            rows = timing_summary(case, runs)
            tool_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"timing of {case.name} over {args.repeat} rounds, medians {args.base} -> working tree:")
            print(*timing_lines(rows), f"this process's peak RSS: {tool_rss_mb:.1f} MB", sep="\n", flush=True)
            if args.json is not None:
                table = {
                    "base": args.base, "case": case.name, "rounds": args.repeat, "cpus": os.cpu_count(),
                    "reference_s": speedref.REFERENCE_S, "tool_rss_mb": tool_rss_mb, "steps": rows,
                }
                args.json.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    if n_problems:
        print(f"not the same outputs as {args.base}: {n_problems} of {len(cases)} cases")
        return 1
    print(f"same outputs as {args.base}: {len(cases)} cases, {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
