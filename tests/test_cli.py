"""End-to-end CLI tests: the whole pipeline at tiny sizes, run in process
through ``cli.main``, its determinism, and the exit-code contract."""

import contextlib
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from corrfuse import cli
from corrfuse.ddt import DdtConfig, train_stage
from corrfuse.policy import greedy_decode, load_model, load_vocab
from corrfuse.textcore import tokenize

TINY = [
    "--seed", "5",
    "--set", "data.dir=run",
    "--set", "gen.train=3", "--set", "gen.dev=3", "--set", "gen.test=3",
    "--set", "ddt.stages=2",
    "--set", "tune.rounds=1", "--set", "tune.iters=1",
]
HYPS = ",".join(f"run/out/stage2.sys{m}.hyp" for m in range(3))
PIPELINE = [
    ["gen"],
    ["train"],
    ["ddt"],
    ["stages"],
    ["tune", "--set", f"tune.hyps={HYPS}"],
    ["combine", "--set", f"combine.hyps={HYPS}"],
    ["eval", "--set", "eval.hyp=run/out/combined.hyp"],
]


@pytest.fixture(autouse=True)
def _no_env_overrides(monkeypatch):
    for name in list(os.environ):
        if name.startswith("CORRFUSE_"):
            monkeypatch.delenv(name)


def run(cwd: Path, command: list[str], *extra: str) -> int:
    """``cli.main`` on the tiny config with ``cwd`` as working directory."""
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(command + TINY + list(extra))
    finally:
        os.chdir(previous)


def run_pipeline(cwd: Path) -> list[int]:
    cwd.mkdir()
    return [run(cwd, command) for command in PIPELINE]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One finished pipeline directory, the exit codes and the printed summaries."""
    root = tmp_path_factory.mktemp("pipeline") / "a"
    capture = tmp_path_factory.mktemp("stdout") / "out.txt"
    with open(capture, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        codes = run_pipeline(root)
    return root, codes, capture.read_text(encoding="utf-8")


def test_pipeline_exits_zero(pipeline):
    root, codes, stdout = pipeline
    assert codes == [0] * len(PIPELINE)
    for name in ("models/vocab.txt", "models/model_0_ddt.txt", "out/stage2.weights",
                 "out/combine.weights", "out/combined.hyp"):
        assert (root / "run" / name).is_file()
    commands = [line for line in stdout.splitlines() if line.startswith("command=")]
    assert commands == [f"command={c[0]}" for c in PIPELINE]


def test_rerun_is_byte_identical(pipeline, tmp_path, capsys):
    root, _, stdout = pipeline
    capsys.readouterr()
    assert run_pipeline(tmp_path / "b") == [0] * len(PIPELINE)
    assert capsys.readouterr().out == stdout  # includes every config_sha256
    assert tree_bytes(tmp_path / "b") == tree_bytes(root)


@pytest.fixture
def workdir(pipeline, tmp_path):
    """A private copy of the finished pipeline directory."""
    root, _, _ = pipeline
    copy = tmp_path / "w"
    shutil.copytree(root, copy)
    return copy


@pytest.mark.parametrize(
    "command, override",
    [
        (["ddt"], "ddt.k_samples=1"),
        (["ddt"], "ddt.alpha=2"),
        (["stages"], "ddt.stages=-1"),
        (["stages"], "train.models=1"),
        (["train"], "train.models=0"),
        (["train"], "train.batch=0"),
        (["tune", "--set", f"tune.hyps={HYPS}"], "tune.rounds=0"),
        (["tune", "--set", f"tune.hyps={HYPS}"], "tune.iters=0"),
        (["tune", "--set", f"tune.hyps={HYPS}"], "combine.k=0"),
        (["stages"], "combine.beam=0"),
        (["combine", "--set", f"combine.hyps={HYPS}"], "combine.beam=0"),
        (["stages"], "lm.order=0"),
        (["gen"], "gen.dev=0"),
        (["gen"], "gen.rule_prob=2"),
        (["train"], "policy.embed=0"),
        (["train"], "policy.max_len=0"),
        (["eval", "--set", "eval.hyp=run/out/combined.hyp", "--set", "eval.baseline=run/data/dev.src"],
         "eval.resamples=0"),
        (["train"], "no.such_key=1"),
    ],
)
def test_bad_values_are_usage_errors(workdir, capsys, command, override):
    assert run(workdir, command, "--set", override) == 2
    assert "usage error" in capsys.readouterr().err


def test_jobs_accepts_only_one(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run(workdir, ["combine", "--set", f"combine.hyps={HYPS}"], "--jobs", "2")
    assert exc.value.code == 2
    assert run(workdir, ["combine", "--set", f"combine.hyps={HYPS}"], "--jobs", "1") == 0


def _truncate(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")


def _keep_header_fields(path: Path, n: int) -> None:
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    path.write_text(" ".join(header.split()[:n]) + "\n" + body, encoding="utf-8")


@pytest.mark.parametrize(
    "command, damage",
    [
        (["stages"], lambda run_dir: _truncate(run_dir / "models/model_1.txt")),
        (["stages"], lambda run_dir: (run_dir / "models/model_1.txt").write_text("garbage\n")),
        (["stages"], lambda run_dir: _keep_header_fields(run_dir / "models/model_1.txt", 3)),
        (["ddt"], lambda run_dir: _truncate(run_dir / "models/vocab.txt")),
        (["ddt"], lambda run_dir: (run_dir / "models/vocab.txt").write_text("a\nb\n")),
        (
            ["combine", "--set", f"combine.hyps={HYPS}"],
            lambda run_dir: (run_dir / "out/combine.weights").write_text("lm\t\n"),
        ),
        (
            ["combine", "--set", f"combine.hyps={HYPS}"],
            lambda run_dir: (run_dir / "out/combine.weights").write_text("lm\t1.0\n"),
        ),
        (
            ["train"],
            lambda run_dir: (run_dir / "data/train.ref").write_text(
                "<unk> cat\n" * 12, encoding="utf-8"
            ),
        ),
        (["eval", "--set", "eval.hyp=run/out/missing.hyp"], lambda run_dir: None),
        (
            ["stages"],
            lambda run_dir: [(run_dir / f"data/dev.{ext}").write_text("") for ext in ("src", "ref", "m2")],
        ),
        (
            ["tune", "--set", f"tune.hyps={HYPS}"],
            lambda run_dir: _truncate(run_dir / "out/stage2.sys0.hyp"),
        ),
    ],
)
def test_bad_inputs_are_data_errors(workdir, capsys, command, damage):
    damage(workdir / "run")
    assert run(workdir, command) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_is_numeric_failure(workdir, capsys):
    assert run(workdir, ["train"], "--set", "train.lr=1e300") == 4
    assert "numeric failure" in capsys.readouterr().err


def test_ddt_skips_references_over_the_length_limit(workdir, capsys):
    ref = workdir / "run/data/dev.ref"
    lines = ref.read_text(encoding="utf-8").splitlines()
    # policy.max_len is 16: the first reference is dropped, the second kept
    ref.write_text("\n".join(["word " * 17, "word " * 16] + lines[2:]) + "\n", encoding="utf-8")
    assert run(workdir, ["ddt"], "--set", "ddt.epochs=2") == 0
    assert "steps=4" in capsys.readouterr().out.splitlines()  # 2 epochs x 2 kept sentences
    ref.write_text(("word " * 17 + "\n") * len(lines), encoding="utf-8")
    assert run(workdir, ["ddt"]) == 3
    assert "no DDT sentence fits" in capsys.readouterr().err


def test_ddt_checkpoint_is_one_train_stage(pipeline):
    root, _, _ = pipeline
    models_dir = root / "run/models"
    vocab = load_vocab(str(models_dir / "vocab.txt"))
    models = [load_model(str(models_dir / f"model_{i}.txt"), vocab) for i in range(3)]
    src, ref = (
        [tokenize(line) for line in (root / f"run/data/dev.{ext}").read_text().splitlines()]
        for ext in ("src", "ref")
    )
    peers = [[greedy_decode(m, x) for m in models[1:]] for x in src]
    seed = 5 * 1000 + 2  # ddt.seed derived from --seed 5
    cfg = DdtConfig(learning_rate=0.002, seed=seed)  # the ddt.* defaults
    train_stage(models[0], list(zip(src, ref)), peers, cfg, np.random.default_rng((seed, 0)))
    ddt = load_model(str(models_dir / "model_0_ddt.txt"), vocab)
    assert np.array_equal(ddt.params, models[0].params)
