"""Tests of the benchmark itself: input generation, self-time arithmetic,
and byte equality of traced and untraced runs on tiny inputs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import fusegen
import speedref
import tracer as tracing
import workloads
from conftest import BENCH
from corrfuse.evaluation import parse_m2
from corrfuse.textcore import apply_edits, tokenize


def _tree(root: Path) -> dict[str, bytes]:
    return workloads.tree_bytes(root)


class TestFuseInputs:
    def test_same_seed_same_bytes(self, tmp_path):
        fusegen.write_fuse_inputs(tmp_path / "a", 11, 8, 6, 30)
        fusegen.write_fuse_inputs(tmp_path / "b", 11, 8, 6, 30)
        fusegen.write_fuse_inputs(tmp_path / "c", 12, 8, 6, 30)
        a, b, c = (_tree(tmp_path / d) for d in "abc")
        assert a == b
        assert a.keys() == c.keys() and a != c

    def test_layout_and_gold(self, tmp_path):
        fusegen.write_fuse_inputs(tmp_path, 3, 8, 6, 30)
        data = tmp_path / "data"
        for split, n in (("dev", 8), ("test", 6)):
            sources = [tokenize(l) for l in (data / f"{split}.src").read_text().splitlines()]
            refs = [tokenize(l) for l in (data / f"{split}.ref").read_text().splitlines()]
            golds = parse_m2((data / f"{split}.m2").read_text())
            assert len(sources) == len(refs) == len(golds) == n
            for src, ref, gold in zip(sources, refs, golds):
                assert gold.source == src
                assert apply_edits(src, gold.annotators[0]) == ref
                assert 1 <= ref.count(".") <= fusegen.MAX_SENTENCES_PER_LINE
            for system in range(fusegen.SYSTEMS):
                hyps = fusegen.hyp_path(tmp_path, split, system).read_text().splitlines()
                assert len(hyps) == n
        assert len(fusegen.lm_path(tmp_path).read_text().splitlines()) == 30

    def test_line_sizes_are_balanced(self):
        sizes = fusegen._line_sizes(5, 40)
        assert sorted(sizes) == sorted([1, 2, 3, 4] * 10)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0,10] > a [1,4], b [5,7] > c [5.5,6]
        starts = [0.0, 1.0, 5.0, 5.5]
        ends = [10.0, 4.0, 7.0, 6.0]
        parents = [-1, 0, 0, 2]
        assert tracing.self_times(starts, ends, parents) == pytest.approx([5.0, 3.0, 1.5, 0.5])

    def test_overlapping_children_count_once(self):
        starts = [0.0, 1.0, 2.0]
        ends = [10.0, 4.0, 5.0]
        parents = [-1, 0, 0]
        assert tracing.self_times(starts, ends, parents) == pytest.approx([6.0, 3.0, 3.0])

    def test_wrapped_calls_add_up(self):
        spans = tracing.Tracer()
        spans.begin_run("demo")

        def leaf():
            time.sleep(0.002)

        wrapped_leaf = spans.wrap("demo.leaf", leaf)

        def middle():
            wrapped_leaf()
            time.sleep(0.001)
            wrapped_leaf()

        wrapped_middle = spans.wrap("demo.middle", middle)
        with spans.span("cli.demo"):
            wrapped_middle()
        self_s = spans.self_times()
        assert [spans.names[i] for i in spans.name_id] == ["cli.demo", "demo.middle", "demo.leaf", "demo.leaf"]
        assert list(spans.parent) == [-1, 0, 1, 1]
        assert sum(self_s) == pytest.approx(spans.end[0] - spans.start[0], abs=1e-9)
        metrics = tracing.layer_metrics(spans)
        assert metrics["cli.demo.self_s"] == pytest.approx(self_s[0])

    def test_recursion_folds_into_one_span(self):
        spans = tracing.Tracer()
        spans.begin_run("demo")
        holder = {}

        def countdown(n):
            return n if n == 0 else holder["f"](n - 1)

        holder["f"] = spans.wrap("demo.countdown", countdown)
        holder["f"](3)
        assert len(spans.start) == 1

    def test_install_and_restore(self):
        from corrfuse import cli, combiner, tuner

        original = combiner.beam_search
        with tracing.installed(tracing.Tracer()):
            assert cli.beam_search is not original
            assert tuner.beam_search is cli.beam_search is combiner.beam_search
        assert cli.beam_search is tuner.beam_search is combiner.beam_search is original


@pytest.mark.parametrize("workload", ["train", "diverse", "fuse"])
def test_traced_run_writes_untraced_bytes(workload, tmp_path):
    plan = workloads.plan(workload, 5, workloads.TINY)
    runner = workloads.make_cli_runner(BENCH.parent / "src", time.monotonic() + 120)
    untraced = workloads.execute(plan, tmp_path / "untraced", runner)
    spans = tracing.Tracer()
    with tracing.installed(spans):
        traced = workloads.execute(plan, tmp_path / "traced", workloads.InProcess(spans), spans)
    for it in (untraced, traced):
        assert not it.skipped
        assert [(s.command, s.exit_code, s.problems) for s in it.steps] == [
            (s.command, 0, []) for s in it.steps
        ]
    assert workloads.compare_runs(untraced, traced, tmp_path / "untraced", tmp_path / "traced") == []
    metrics = tracing.layer_metrics(spans)
    for command, _ in plan.setup + plan.measured:
        assert metrics[f"cli.{command}.self_s"] > 0


def test_failing_command_is_counted(tmp_path):
    plan = workloads.Plan(None, [], [("gen", ["--set", "no.such.key=1"])], {}, lambda s: 0.0)
    runners = {
        "child": workloads.make_cli_runner(BENCH.parent / "src", time.monotonic() + 60),
        "in-process": workloads.InProcess(tracing.Tracer()),
    }
    for name, runner in runners.items():
        it = workloads.execute(plan, tmp_path / name, runner)
        (step,) = it.steps
        assert step.exit_code == 2 and not step.ok
        assert "unknown config key" in step.problems[0]


def test_steps_scale_by_the_probes_around_them(tmp_path, monkeypatch):
    probes = iter([1.0, 3.0, 2.0, 2.0])
    monkeypatch.setattr(speedref, "probe", lambda: next(probes) * speedref.REFERENCE_S)
    walls = iter([4.0, 6.0, 1.0])

    def runner(cwd, command, args):
        return 0, "", "", next(walls), 1.0

    monkeypatch.setattr(workloads.checks, "check", lambda *args: [])
    plan = workloads.Plan(None, [("gen", [])], [("tune", []), ("eval", [])], {}, lambda s: 0.0)
    it = workloads.execute(plan, tmp_path / "it", runner, probe=True)
    assert it.setup_s == 4.0 and it.run_s() == 7.0
    # gen ran between probes 1 and 3, tune between 3 and 2, eval between 2 and 2
    assert it.setup_ref_s == pytest.approx(4.0 / 2.0)
    assert it.run_ref_s == pytest.approx(6.0 / 2.5 + 1.0 / 2.0)
    assert workloads.execute(plan, tmp_path / "bare", lambda *a: (0, "", "", 1.0, 1.0)).run_ref_s == 0.0


def test_probe_times_the_reference_job():
    assert speedref.probe() > 0.0
