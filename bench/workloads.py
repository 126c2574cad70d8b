"""The benchmark's workloads and how one iteration of a workload executes.

An iteration runs a workload's steps in a fresh directory: an optional
in-process input writer, set-up CLI commands, then the measured CLI commands,
one process at a time with ``--jobs 1``.  The program sees only the files the
set-up wrote.  ``run_cli`` runs a command as a child process; ``InProcess``
runs it inside the benchmark under a tracer, for the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import fusegen
import speedref
from tracer import Tracer

DATA = "run"  # data.dir, relative to the iteration directory


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  STANDARD is the benchmark; TINY keeps the tests fast."""

    train_sentences: int  # gen.train and gen.dev of the train workload
    diverse_sentences: int  # gen.train and gen.dev of the diverse workload
    ddt_epochs: int
    fuse_lines: int  # dev and test lines of the fuse workload
    lm_lines: int
    train_overrides: tuple[str, ...] = ()  # extra --set for every train step


STANDARD = Sizes(train_sentences=10, diverse_sentences=12, ddt_epochs=8, fuse_lines=30, lm_lines=600)
TINY = Sizes(
    train_sentences=3, diverse_sentences=3, ddt_epochs=1, fuse_lines=3, lm_lines=20,
    train_overrides=("train.epochs=2",),
)

TEST_LINES = 5  # gen.test for train and diverse; no command reads the test split there
STAGES = 3
MODELS = 3


@dataclass(frozen=True)
class Plan:
    prepare: Callable[[Path], None] | None
    setup: list[tuple[str, list[str]]]
    measured: list[tuple[str, list[str]]]
    expect: dict[str, int]
    quality: Callable[[dict[str, checks.Summary]], float]


def _sets(*pairs: str) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


def plan(workload: str, seed: int, sizes: Sizes) -> Plan:
    """Steps of one iteration.  ``seed`` is the CLI --seed and the seed of the
    in-process input writer."""
    common = ["--seed", str(seed), "--jobs", "1"] + _sets(f"data.dir={DATA}")
    train = ("train", common + _sets(*sizes.train_overrides))
    if workload == "train":
        n = sizes.train_sentences
        gen = _sets(f"gen.train={n}", f"gen.dev={n}", f"gen.test={TEST_LINES}")
        return Plan(
            None,
            [("gen", common + gen)],
            [train],
            {"n_train": 4 * n, "n_dev": n, "n_test": TEST_LINES, "models": MODELS},
            lambda s: statistics.fmean(float(s["train"][f"model_{i}_dev_f05"]) for i in range(MODELS)),
        )
    if workload == "diverse":
        n = sizes.diverse_sentences
        gen = _sets(f"gen.train={n}", f"gen.dev={n}", f"gen.test={TEST_LINES}", "gen.oversample=2")
        return Plan(
            None,
            [("gen", common + gen), train],
            [("ddt", common + _sets(f"ddt.epochs={sizes.ddt_epochs}")), ("stages", common)],
            {"n_train": 2 * n, "n_dev": n, "n_test": TEST_LINES, "models": MODELS,
             "ddt_epochs": sizes.ddt_epochs, "stages": STAGES},
            lambda s: float(s["stages"]["best_combined_f05"]),
        )
    if workload == "fuse":
        n = sizes.fuse_lines
        lm = _sets(f"lm.corpus={fusegen.lm_path(Path(DATA))}")

        def hyps(split: str) -> str:
            return ",".join(str(fusegen.hyp_path(Path(DATA), split, m)) for m in range(fusegen.SYSTEMS))

        def prepare(data: Path) -> None:
            fusegen.write_fuse_inputs(data, seed, n, n, sizes.lm_lines)

        return Plan(
            prepare,
            [],
            [
                ("tune", common + lm + _sets(f"tune.hyps={hyps('dev')}")),
                ("combine", common + lm + _sets(f"combine.hyps={hyps('test')}")),
                ("eval", common + _sets(f"eval.hyp={DATA}/out/combined.hyp", "eval.split=test")),
            ],
            {"n_dev": n, "n_test": n, "systems": fusegen.SYSTEMS},
            lambda s: float(s["eval"]["f05"]),
        )
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class StepResult:
    command: str
    setup: bool
    exit_code: int
    stdout: str
    wall_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


@dataclass
class Iteration:
    setup_s: float
    steps: list[StepResult]
    skipped: int  # planned steps not run after a failure
    # the same two times at speedref's reference speed; 0 without probes
    setup_ref_s: float = 0.0
    run_ref_s: float = 0.0

    def measured(self) -> list[StepResult]:
        return [s for s in self.steps if not s.setup]

    def run_s(self) -> float:
        return sum(s.wall_s for s in self.measured())


# (exit code, stdout, stderr, wall seconds, peak RSS in MB)
Runner = Callable[[Path, str, list[str]], tuple[int, str, str, float, float]]


def child_env(src: Path) -> dict[str, str]:
    """Environment of CLI children: the checkout's sources, no CORRFUSE_*
    overrides, one BLAS thread, and a fixed string hash seed, so that the
    same inputs take the same work in every child."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORRFUSE_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def make_cli_runner(src: Path, deadline: float) -> Runner:
    env = child_env(src)

    def run_cli(cwd: Path, command: str, args: list[str]) -> tuple[int, str, str, float, float]:
        """Run one CLI command as a child, killed at the deadline."""
        out_path, err_path = cwd / f".{command}.stdout", cwd / f".{command}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "corrfuse.cli", command, *args],
                cwd=cwd, env=env, stdout=out, stderr=err,
            )
            killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0

    return run_cli


class InProcess:
    """Runs CLI commands inside this process under ``tracer``; each command
    is one run and its top span is ``cli.<command>``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __call__(self, cwd: Path, command: str, args: list[str]) -> tuple[int, str, str, float, float]:
        from corrfuse import cli

        self.tracer.begin_run(command)
        out, err = io.StringIO(), io.StringIO()
        previous = os.getcwd()
        os.chdir(cwd)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with self.tracer.span(f"cli.{command}"):
                    try:
                        code = cli.main([command, *args])
                    except SystemExit as exc:  # argparse rejects bad flags this way
                        code = exc.code if isinstance(exc.code, int) else 2
                    except Exception:  # a crash fails this command, as it would a child
                        traceback.print_exc()
                        code = 1
        finally:
            wall = time.perf_counter() - start
            os.chdir(previous)
        return code, out.getvalue(), err.getvalue(), wall, 0.0


class _ReferenceSpeed:
    """Scales each step's wall time by the speedref probes timed just before
    and just after it; without probes every scaled time is 0."""

    def __init__(self, probe: bool) -> None:
        self.probe = probe
        self.last = speedref.probe() if probe else 0.0

    def scale(self, wall: float) -> float:
        if not self.probe:
            return 0.0
        now = speedref.probe()
        scaled = wall * speedref.REFERENCE_S * 2 / (self.last + now)
        self.last = now
        return scaled


def execute(
    plan: Plan, cwd: Path, runner: Runner, tracer: Tracer | None = None, probe: bool = False
) -> Iteration:
    """Run one iteration of ``plan`` in ``cwd`` and check every output.  With
    ``probe``, time the speedref job before and after every step, and give
    the set-up and measured times also at reference speed."""
    cwd.mkdir(parents=True)
    data = cwd / DATA
    speed = _ReferenceSpeed(probe)
    setup_s = setup_ref_s = run_ref_s = 0.0
    if plan.prepare is not None:
        if tracer is not None:
            tracer.begin_run("prepare")
        start = time.perf_counter()
        with tracer.span("bench.prepare") if tracer is not None else contextlib.nullcontext():
            plan.prepare(data)
        setup_s += time.perf_counter() - start
        setup_ref_s += speed.scale(setup_s)
    steps = [(cmd, args, True) for cmd, args in plan.setup] + [(cmd, args, False) for cmd, args in plan.measured]
    results: list[StepResult] = []
    for command, args, is_setup in steps:
        code, stdout, stderr, wall, rss = runner(cwd, command, args)
        if is_setup:
            setup_s += wall
            setup_ref_s += speed.scale(wall)
        else:
            run_ref_s += speed.scale(wall)
        result = StepResult(command, is_setup, code, stdout, wall, rss)
        if code != 0:
            result.problems = [f"exit {code}: {(stderr.strip().splitlines() or [''])[-1]}"]
        else:
            try:
                result.problems = checks.check(command, checks.parse_summary(stdout), data, plan.expect)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                result.problems = [f"unreadable output: {exc!r}"]
        results.append(result)
        if not result.ok:
            break
    return Iteration(setup_s, results, len(steps) - len(results), setup_ref_s, run_ref_s)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def compare_runs(untraced: Iteration, traced: Iteration, dir_a: Path, dir_b: Path) -> list[str]:
    """Byte differences between the artifacts and summaries of two runs."""
    problems = []
    a, b = tree_bytes(dir_a), tree_bytes(dir_b)
    if a.keys() != b.keys():
        problems.append(f"file sets differ: {sorted(a.keys() ^ b.keys())[:5]}")
    problems += [f"{name} differs" for name in sorted(a.keys() & b.keys()) if a[name] != b[name]][:5]
    for sa, sb in zip(untraced.steps, traced.steps):
        if sa.stdout != sb.stdout:
            problems.append(f"{sa.command} printed a different summary")
    return problems
