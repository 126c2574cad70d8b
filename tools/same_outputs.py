"""Check that the working tree gives the same outputs as a git revision.

    python tools/same_outputs.py --base REV

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
"""

from __future__ import annotations

import argparse
import hashlib
import io
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402  (needs the paths above)
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


def default_chain() -> Case:
    hyps = ",".join(STAGE0)

    def step(command: str, *sets: str) -> tuple[str, list[str]]:
        return command, [arg for pair in sets for arg in ("--set", pair)]

    return Case(
        "default",
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
        proc = subprocess.run(
            [sys.executable, "-m", "corrfuse.cli", command, *args],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        results.append((command, proc.returncode, proc.stdout, proc.stderr))
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    cases = [default_chain()] + [plan_case(w, seed) for w in ("train", "diverse", "fuse") for seed in PLAN_SEEDS]
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
    if n_problems:
        print(f"not the same outputs as {args.base}: {n_problems} of {len(cases)} cases")
        return 1
    print(f"same outputs as {args.base}: {len(cases)} cases, {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
