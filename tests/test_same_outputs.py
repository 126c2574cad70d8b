"""``first_problem`` of ``tools/same_outputs.py``: the rule by which two
trees' runs of a case count as the same outputs, on hand-made results;
``main``, which reports every case that differs and how many of its files
differ; its ``--seeds`` cases; and its ``--repeat`` timing rounds and their
summary.  No CLI child runs here."""

import importlib.util
import json
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


def usage(wall_s, ref_s=0.0, rss_mb=40.0, minflt=100):
    return TOOL.Usage(wall_s, 0.9 * wall_s, ref_s, rss_mb, minflt)


TWO_STEPS = TOOL.Case("default", None, [("gen", []), ("train", [])])


def test_the_timing_summary_takes_medians_and_counts_wins_per_step():
    runs = {
        "base": [[usage(1.0, 0.8, 41.0, 10), usage(5.0)], [usage(3.0, 2.4, 43.0, 30), usage(4.0)],
                 [usage(2.0, 1.6, 42.0, 20), usage(6.0)]],
        "head": [[usage(2.0), usage(4.0)], [usage(2.0), usage(3.0)], [usage(2.0), usage(7.0)]],
    }
    gen, train = TOOL.timing_summary(TWO_STEPS, runs)
    assert (gen["step"], gen["command"], train["step"], train["command"]) == (0, "gen", 1, "train")
    assert gen["base"] == {
        "wall_s": 2.0, "cpu_s": 1.8, "ref_s": 1.6, "rss_mb": 42.0, "minflt": 20,
        "wall_runs_s": [1.0, 3.0, 2.0], "wins": 1,
    }
    assert gen["head"]["wall_s"] == 2.0 and gen["head"]["wins"] == 1  # round 2 is a tie
    assert (train["base"]["wall_s"], train["head"]["wall_s"]) == (5.0, 4.0)
    assert (train["base"]["wins"], train["head"]["wins"]) == (1, 2)


def test_base_runs_first_in_even_rounds(monkeypatch, tmp_path):
    calls = []

    def time_case(case, src, cwd):
        calls.append((src.name, cwd.name))
        return [usage(1.0), usage(1.0)]

    monkeypatch.setattr(TOOL, "time_case", time_case)
    runs = TOOL.time_rounds(TWO_STEPS, {"base": Path("base"), "head": Path("head")}, tmp_path, 4)
    assert [src for src, _ in calls] == ["base", "head", "head", "base", "base", "head", "head", "base"]
    assert len({cwd for _, cwd in calls}) == 8  # a fresh directory for every run
    assert [len(runs[tree]) for tree in ("base", "head")] == [4, 4]


def test_repeat_writes_the_timing_table_with_this_process_peak_rss(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(TOOL, "unpack", lambda rev, dest: None)
    monkeypatch.setattr(TOOL, "run_case", lambda case, src, cwd: (STEPS, FILES))
    monkeypatch.setattr(TOOL, "time_case", lambda case, src, cwd: [usage(1.0)] * len(case.steps))
    out = tmp_path / "bench.json"
    assert TOOL.main(["--base", "HEAD", "--repeat", "3", "--json", str(out)]) == 0
    table = json.loads(out.read_text())
    assert (table["base"], table["case"], table["rounds"]) == ("HEAD", "default", 3)
    assert table["tool_rss_mb"] > 0
    assert [row["command"] for row in table["steps"]] == [c for c, _ in TOOL.default_chain().steps]
    assert capsys.readouterr().out.splitlines()[-1] == "same outputs as HEAD: 10 cases, 20 files"


def test_json_without_repeat_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        TOOL.main(["--base", "HEAD", "--json", str(tmp_path / "bench.json")])


def test_a_seeded_default_chain_passes_its_seed_to_every_command():
    chain, seeded = TOOL.default_chain(), TOOL.default_chain(4)
    assert seeded.name == "default-seed4"
    assert [(c, args) for c, args in seeded.steps] == [(c, ["--seed", "4", *args]) for c, args in chain.steps]


@pytest.mark.parametrize("flags, seeded", [([], []), (["--seeds", "1,2,3"], [1, 2, 3])], ids=["off", "on"])
def test_seeds_add_one_default_chain_per_seed(monkeypatch, capsys, flags, seeded):
    names = []
    monkeypatch.setattr(TOOL, "unpack", lambda rev, dest: None)
    monkeypatch.setattr(TOOL, "run_case", lambda case, src, cwd: names.append(case.name) or (STEPS, FILES))
    assert TOOL.main(["--base", "HEAD", *flags]) == 0
    cases = names[::2]  # each case runs in base, then head
    assert [name for name in cases if name.startswith("default")] == ["default"] + [
        f"default-seed{seed}" for seed in seeded
    ]
    assert len(cases) == 10 + len(seeded)
