"""``first_problem`` of ``tools/same_outputs.py``: the rule by which two
trees' runs of a case count as the same outputs, on hand-made results; and
``main``, which reports every case that differs and how many of its files
differ."""

import importlib.util
import sys
from pathlib import Path

import pytest


def load_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    saved = sys.path[:]
    try:
        spec.loader.exec_module(module)  # puts src/ and bench/ on the path
    finally:
        sys.path[:] = saved
    return module


TOOL = load_tool()
CASE = TOOL.Case("case", None, [])
STEPS = [("gen", 0, "command=gen\n", ""), ("train", 0, "command=train\n", "")]
FILES = {"run/a.txt": "11", "run/b.txt": "22"}


def with_step(index: int, **changes) -> list[tuple[str, int, str, str]]:
    """STEPS with fields of step ``index`` replaced."""
    steps = list(STEPS)
    command, code, out, err = steps[index]
    fields = {"code": code, "out": out, "err": err, **changes}
    steps[index] = (command, fields["code"], fields["out"], fields["err"])
    return steps


@pytest.mark.parametrize("tree", ["base", "head"])
def test_a_failed_step_in_either_tree_fails(tree):
    failed = with_step(1, code=3, err="data error: x\n")
    base, head = (failed, STEPS) if tree == "base" else (STEPS, failed)
    problem = TOOL.first_problem(CASE, (base, FILES), (head, FILES))
    assert problem.startswith(f"FAILED: case step 1 (train): exit 3 in {tree}")


def test_the_same_failure_in_both_trees_still_fails():
    failed = with_step(0, code=4)
    problem = TOOL.first_problem(CASE, (failed, FILES), (failed, FILES))
    assert problem.startswith("FAILED: case step 0 (gen): exit 4 in base")


@pytest.mark.parametrize("field, what", [("out", "stdout"), ("err", "stderr")])
def test_different_stdout_or_stderr_is_different(field, what):
    head = with_step(1, **{field: "something else\n"})
    problem = TOOL.first_problem(CASE, (STEPS, FILES), (head, FILES))
    assert problem.startswith(f"DIFFERENT: case step 1 (train): {what} differs")


@pytest.mark.parametrize(
    "head_files",
    [{"run/a.txt": "11", "run/b.txt": "99"}, {"run/a.txt": "11"}, {**FILES, "run/c.txt": "33"}],
    ids=["differs", "only-in-base", "only-in-head"],
)
def test_a_differing_or_unmatched_file_is_different(head_files):
    problem = TOOL.first_problem(CASE, (STEPS, FILES), (STEPS, head_files))
    assert problem.startswith("DIFFERENT: case: run/")


def test_equal_results_have_no_problem():
    assert TOOL.first_problem(CASE, (STEPS, FILES), (list(STEPS), dict(FILES))) is None


def test_every_differing_case_is_reported(monkeypatch, capsys):
    differing = ("default", "fuse-seed3000")
    monkeypatch.setattr(TOOL, "unpack", lambda rev, dest: None)

    def run_case(case, src, cwd):
        head = src == TOOL.ROOT / "src"
        return STEPS, {**FILES, "run/a.txt": "33"} if head and case.name in differing else FILES

    monkeypatch.setattr(TOOL, "run_case", run_case)
    assert TOOL.main(["--base", "HEAD"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[1].strip() for line in lines if line.startswith("DIFFERENT:")] == list(differing)
    assert sum(line.startswith("same: ") for line in lines) == 8
    assert lines[-1] == "not the same outputs as HEAD: 2 of 10 cases"


def test_a_differing_case_lists_how_many_files_differ_and_the_first_ten(monkeypatch, capsys):
    base_files = {f"run/f{i:02d}": "0" for i in range(14)}
    head_files = {**base_files, **{f"run/f{i:02d}": "1" for i in range(12)}}
    monkeypatch.setattr(TOOL, "unpack", lambda rev, dest: None)
    monkeypatch.setattr(
        TOOL, "run_case",
        lambda case, src, cwd: (STEPS, head_files if src == TOOL.ROOT / "src" and case.name == "default"
                                else base_files),
    )
    assert TOOL.main(["--base", "HEAD"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "DIFFERENT: default: run/f00 differs (base 0, head 1)"
    assert lines[1] == "  12 of 14 files differ: " + " ".join(f"run/f{i:02d}" for i in range(10)) + " ..."


@pytest.mark.parametrize(
    "head_files, listed",
    [
        (FILES, "  0 of 2 files differ:"),
        ({"run/a.txt": "11", "run/c.txt": "33"}, "  2 of 3 files differ: run/b.txt run/c.txt"),
    ],
    ids=["none", "unmatched-both-ways"],
)
def test_differing_files_line_counts_files_in_either_tree(head_files, listed):
    assert TOOL.differing_files_line(FILES, head_files) == listed


def test_the_default_chain_runs_the_sign_test_against_a_stage0_output():
    evals = [args for command, args in TOOL.default_chain().steps if command == "eval"]
    assert [arg for args in evals for arg in args if arg.startswith("eval.baseline=")] == [
        f"eval.baseline={TOOL.STAGE0[0]}"
    ]
