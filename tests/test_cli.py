"""End-to-end CLI tests: the whole pipeline at tiny sizes, run in process
through ``cli.main``, its determinism, and the exit-code contract."""

import contextlib
import gc
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corrfuse import cli, combiner, ddt, evaluation, pipeline, policy, tuner
from corrfuse.config import ExperimentConfig, stream_seed
from corrfuse.ddt import train_stage
from corrfuse.evaluation import GoldAnnotation, Scorer, parse_m2
from corrfuse.policy import greedy_decode, parse_model, parse_vocab
from corrfuse.textcore import TokenSeq, tokenize

from defaults import ddt_cfg

TINY = [
    "--seed", "5",
    "--set", "data.dir=run",
    "--set", "gen.train=3", "--set", "gen.dev=3", "--set", "gen.test=3",
    "--set", "ddt.stages=2",
    "--set", "tune.rounds=1", "--set", "tune.iters=1",
]
HYPS = ",".join(f"run/out/stage2.sys{m}.hyp" for m in range(3))
DIV_A, DIV_B = "div.a=run/out/stage2.sys0.hyp", "div.b=run/out/stage2.sys1.hyp"
PIPELINE = [
    ["gen"],
    ["train"],
    ["ddt"],
    ["stages"],
    ["tune", "--set", f"tune.hyps={HYPS}"],
    ["combine", "--set", f"combine.hyps={HYPS}"],
    ["eval", "--set", "eval.hyp=run/out/combined.hyp"],
]


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
def cli_chain(tmp_path_factory):
    """One finished pipeline directory, the exit codes and the printed summaries."""
    root = tmp_path_factory.mktemp("pipeline") / "a"
    capture = tmp_path_factory.mktemp("stdout") / "out.txt"
    with open(capture, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        codes = run_pipeline(root)
    return root, codes, capture.read_text(encoding="utf-8")


def test_pipeline_exits_zero(cli_chain):
    root, codes, stdout = cli_chain
    assert codes == [0] * len(PIPELINE)
    for name in ("models/vocab.txt", "models/model_0_ddt.txt", "out/stage2.weights",
                 "out/combine.weights", "out/combined.hyp"):
        assert (root / "run" / name).is_file()
    commands = [line for line in stdout.splitlines() if line.startswith("command=")]
    assert commands == [f"command={c[0]}" for c in PIPELINE]


def test_stages_reports_each_components_score(cli_chain):
    root, _, stdout = cli_chain
    section = stdout.split("command=stages\n")[1].split("command=")[0]
    summary = dict(line.split("=", 1) for line in section.splitlines())
    data = root / "run" / "data"
    sources = [tokenize(line) for line in (data / "dev.src").read_text().splitlines()]
    scorer = Scorer(sources, parse_m2((data / "dev.m2").read_text()))
    for stage in range(3):
        for m in range(3):
            path = root / "run" / "out" / f"stage{stage}.sys{m}.hyp"
            total, _ = scorer.corpus([tokenize(line) for line in path.read_text().splitlines()])
            assert summary[f"stage{stage}_component{m}_f05"] == cli._fmt(total.f05)


def test_rerun_is_byte_identical(cli_chain, tmp_path, capsys):
    root, _, stdout = cli_chain
    capsys.readouterr()
    assert run_pipeline(tmp_path / "b") == [0] * len(PIPELINE)
    assert capsys.readouterr().out == stdout  # includes every config_sha256
    assert tree_bytes(tmp_path / "b") == tree_bytes(root)


def gen_data(cwd: Path, *settings: str) -> dict[str, str]:
    """The text of every file ``gen`` writes on the tiny config with
    ``settings``, run in a fresh ``cwd``."""
    cwd.mkdir()
    with contextlib.redirect_stdout(None):
        assert run(cwd, ["gen"], *(arg for kv in settings for arg in ("--set", kv))) == 0
    return {p.name: p.read_text(encoding="utf-8") for p in sorted((cwd / "run" / "data").iterdir())}


def m2_blocks(text: str) -> list[str]:
    return text.strip("\n").split("\n\n")


@pytest.mark.parametrize("settings", [("gen.train=7",), ("gen.oversample=1",), ("gen.train=1", "gen.oversample=3")])
def test_gen_dev_and_test_do_not_depend_on_the_train_split(tmp_path, settings):
    def held_out(files):
        return {name: text for name, text in files.items() if name.startswith(("dev.", "test."))}

    base, other = gen_data(tmp_path / "base"), gen_data(tmp_path / "other", *settings)
    assert other["train.ref"] != base["train.ref"]
    assert len(held_out(other)) == 6 and held_out(other) == held_out(base)


def test_gen_a_shorter_dev_split_is_a_prefix_of_a_longer_one(tmp_path):
    short, long = gen_data(tmp_path / "short", "gen.dev=4"), gen_data(tmp_path / "long", "gen.dev=8")
    for name in ("dev.src", "dev.ref"):
        assert len(short[name].splitlines()) == 4
        assert short[name].splitlines() == long[name].splitlines()[:4]
    assert len(m2_blocks(long["dev.m2"])) == 8
    assert m2_blocks(short["dev.m2"]) == m2_blocks(long["dev.m2"])[:4]


@pytest.mark.parametrize("oversample", [1, 3])
def test_gen_oversampling_repeats_the_train_references(tmp_path, oversample):
    # a split's references are the first ones of the grammar stream, so the
    # first 3 of the 5 dev references are the train references
    files = gen_data(tmp_path / "run", "gen.dev=5", f"gen.oversample={oversample}")
    assert files["train.ref"].splitlines() == files["dev.ref"].splitlines()[:3] * oversample
    assert len(m2_blocks(files["train.m2"])) == 3 * oversample


def gen_corpora(seed: int, monkeypatch) -> dict[str, list]:
    """The examples that the default ``gen`` at ``seed`` draws per split."""
    from corrfuse import toydata

    drawn, generate = [], toydata.generate_corpus
    with monkeypatch.context() as patch:
        patch.setattr(toydata, "generate_corpus", lambda *a, **k: drawn.append(generate(*a, **k)) or drawn[-1])
        cli.cmd_gen(ExperimentConfig.load(None, {"seed": seed}))
    return dict(zip(("train", "dev", "test"), drawn))


def test_gen_adjacent_seeds_corrupt_as_unrelated_streams_do(monkeypatch):
    """Seed s's test split and seed s+1's train split, sentence by sentence,
    apply the same set of corruption rules no more often than two unrelated
    streams do.  Over seeds 0-21, unrelated streams agree in about 8% of
    sentences (at most 16 of 120 for one seed); when ``seed * 100 + split *
    50`` gave both the one stream, seeds 0-9 agreed in 259 of 1,200.  The
    bound, 10% of the 1,200 sentences of seeds 0-9, lies between the two."""
    corpora = [gen_corpora(seed, monkeypatch) for seed in range(11)]
    same = sum(
        a.applied == b.applied
        for s in range(10)
        for a, b in zip(corpora[s]["test"], corpora[s + 1]["train"])
    )
    assert same <= 120


@pytest.fixture
def workdir(cli_chain, tmp_path):
    """A private copy of the finished pipeline directory."""
    root, _, _ = cli_chain
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
        (["tune", "--set", f"tune.hyps={HYPS}"], "tune.random_dirs=-5"),
        (["stages"], "eval.resamples=0"),
        (["diversity", "--set", DIV_A], "div.b="),
        (["train"], "train.lr=-0.5"),
        (["train"], "train.lr=0"),
        (["train"], "train.lr=nan"),
        (["train"], "train.lr=inf"),
        (["ddt"], "ddt.lr=nan"),
        (["ddt"], "ddt.lr=inf"),
        (["stages"], "ddt.lr=nan"),
        (["stages"], "ddt.lr=-inf"),
        (["train"], "train.epochs=0"),
        (["train"], "train.epochs=-1"),
        (["gen"], "seed=-1"),
        (["ddt"], "ddt.reward=nope"),
        (["eval", "--set", "eval.hyp=run/out/combined.hyp"], "eval.split=train"),
        (["gen"], "gen.rule_prob=nan"),
        (["stages"], "ddt.alpha=nan"),
        (["eval", "--set", "eval.hyp=run/out/combined.hyp"], "combine.beam=0"),
    ],
)
def test_bad_values_are_usage_errors(workdir, capsys, command, override):
    assert run(workdir, command, "--set", override) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        (["gen"], ["gen.train=4", "gen.test=0"], "gen.test must be >= 1, got 0"),
        (["train"], ["train.batch=0", "data.dev_m2=nope.m2"], "train.batch must be >= 1, got 0"),
        (["eval", "--set", "eval.hyp=run/out/combined.hyp"], ["eval.resamples=0"],
         "eval.resamples must be >= 1, got 0"),
    ],
    ids=["gen-before-writing-a-split", "train-before-a-missing-file", "eval-without-a-baseline"],
)
def test_bad_value_fails_before_any_file_is_read_or_written(workdir, capsys, command, overrides, message):
    before = tree_bytes(workdir)
    assert run(workdir, command, *[arg for o in overrides for arg in ("--set", o)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert tree_bytes(workdir) == before


def test_diversity_is_a_fraction(workdir, capsys):
    assert run(workdir, ["diversity"], "--set", DIV_A, "--set", DIV_B) == 0
    summary = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert 0.0 <= float(summary["diversity"]) <= 1.0


def test_config_file_values_apply_and_comments_are_ignored(workdir, capsys):
    (workdir / "exp.cfg").write_text(
        f"# the systems to compare\n{DIV_A.replace('=', ' = ')}  # first system\n\n{DIV_B}\n",
        encoding="utf-8",
    )
    assert run(workdir, ["diversity"], "--config", "exp.cfg") == 0
    out = capsys.readouterr().out.splitlines()
    assert "a=run/out/stage2.sys0.hyp" in out and "b=run/out/stage2.sys1.hyp" in out


@pytest.mark.parametrize(
    "text",
    [
        "no.such_key = 1\n",
        "# a comment\ndiv.a run/out/stage2.sys0.hyp\n",
        None,
        "# caf\u00e9\n".encode("latin-1"),
        f"{DIV_A}\n{DIV_B}\n{DIV_A}\n",
    ],
    ids=["unknown-key", "no-equals", "missing-file", "not-utf8", "key-set-twice"],
)
def test_bad_config_file_is_usage_error(workdir, capsys, text):
    if isinstance(text, bytes):
        (workdir / "exp.cfg").write_bytes(text)
    elif text is not None:
        (workdir / "exp.cfg").write_text(text, encoding="utf-8")
    assert run(workdir, ["diversity"], "--config", "exp.cfg") == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["config", "src", "m2", "hyp"])
def test_a_leading_byte_order_mark_is_not_part_of_an_input(workdir, capsys, name):
    """Some editors begin a UTF-8 file with a byte-order mark: the file
    reads as the same text without it, so the summary and the config hash
    do not move."""
    (workdir / "exp.cfg").write_text("eval.hyp = run/out/combined.hyp\n", encoding="utf-8")
    path = {"config": workdir / "exp.cfg", **_dev_eval_files(workdir)}[name]
    summaries = []
    for _ in range(2):
        assert run(workdir, ["eval"], "--config", "exp.cfg") == 0
        summaries.append(capsys.readouterr().out)
        _prepend_bom(path)
    assert summaries[0] == summaries[1]
    assert "config_sha256=" in summaries[0]


def test_config_directory_is_usage_error(workdir, capsys):
    (workdir / "exp.cfg").mkdir()
    assert run(workdir, ["eval"], "--config", "exp.cfg") == 2
    assert "usage error" in capsys.readouterr().err


def test_jobs_accepts_only_one(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run(workdir, ["combine", "--set", f"combine.hyps={HYPS}"], "--jobs", "2")
    assert exc.value.code == 2
    assert run(workdir, ["combine", "--set", f"combine.hyps={HYPS}"], "--jobs", "1") == 0


def _truncate(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")


def _replace_line(path: Path, index: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _prepend_bom(path: Path) -> None:
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")


def _prepend_latin1_word(path: Path) -> None:
    """A Latin-1 encoded word at the start, which makes the file invalid UTF-8."""
    path.write_bytes("caf\u00e9 ".encode("latin-1") + path.read_bytes())


def _prepend_word(path: Path, word: str) -> None:
    """``word`` and a space at the start of the first line."""
    path.write_text(f"{word} " + path.read_text(encoding="utf-8"), encoding="utf-8")


def _set_weight(path: Path, name: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [f"{name}\t{value}" if line.startswith(name + "\t") else line for line in lines]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _keep_header_fields(path: Path, n: int) -> None:
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    path.write_text(" ".join(header.split()[:n]) + "\n" + body, encoding="utf-8")


def _insert_header_field(path: Path, field: str) -> None:
    """Put ``field`` right after the checkpoint's magic and version."""
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    magic, version, rest = header.split(" ", 2)
    path.write_text(f"{magic} {version} {field} {rest}\n{body}", encoding="utf-8")


def _set_max_len(path: Path, value: int) -> None:
    """Give the checkpoint's header the decode limit ``value``."""
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    fields = [f"max_len={value}" if f.startswith("max_len=") else f for f in header.split()]
    path.write_text(" ".join(fields) + "\n" + body, encoding="utf-8")


def _append_line(path: Path, line: str) -> None:
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")


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
            ["combine", "--set", f"combine.hyps={HYPS}"],
            lambda run_dir: _set_weight(run_dir / "out/combine.weights", "lm", "nan"),
        ),
        (
            ["combine", "--set", f"combine.hyps={HYPS}"],
            lambda run_dir: _set_weight(run_dir / "out/combine.weights", "match_0", "-inf"),
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
        (
            ["diversity", "--set", DIV_A, "--set", DIV_B],
            lambda run_dir: _truncate(run_dir / "out/stage2.sys1.hyp"),
        ),
        (
            ["eval", "--set", "eval.hyp=run/out/combined.hyp"],
            lambda run_dir: _replace_line(run_dir / "data/dev.src", 0, "no such source line"),
        ),
        (
            ["tune", "--set", f"tune.hyps={HYPS}"],
            lambda run_dir: _replace_line(run_dir / "data/dev.src", 0, "no such source line"),
        ),
        (["train"], lambda run_dir: _replace_line(run_dir / "data/dev.src", 0, "no such source line")),
        (
            ["eval", "--set", "eval.hyp=run/out/combined.hyp"],
            lambda run_dir: _prepend_latin1_word(run_dir / "out/combined.hyp"),
        ),
        (["train"], lambda run_dir: _prepend_latin1_word(run_dir / "data/train.src")),
        (["ddt"], lambda run_dir: _prepend_latin1_word(run_dir / "data/dev.ref")),
        (
            ["ddt", "--set", "ddt.peers=run/out/stage2.sys1.hyp"],
            lambda run_dir: _prepend_latin1_word(run_dir / "out/stage2.sys1.hyp"),
        ),
        (
            ["combine", "--set", f"combine.hyps={HYPS}"],
            lambda run_dir: _prepend_latin1_word(run_dir / "data/train.ref"),
        ),
        (
            ["tune", "--set", f"tune.hyps={HYPS}"],
            lambda run_dir: [
                (run_dir / name).write_text("")
                for name in ["data/dev.src", "data/dev.ref", "data/dev.m2"]
                + [f"out/stage2.sys{m}.hyp" for m in range(3)]
            ],
        ),
        (
            ["eval", "--set", "eval.hyp=run/out/combined.hyp", "--set", "eval.baseline=run/data/dev.src"],
            lambda run_dir: [
                (run_dir / name).write_text("")
                for name in ("data/dev.src", "data/dev.m2", "out/combined.hyp")
            ],
        ),
        (
            ["train"],
            lambda run_dir: [(run_dir / f"data/dev.{ext}").write_text("") for ext in ("src", "ref", "m2")],
        ),
        (
            ["combine", "--set", f"combine.hyps={HYPS}"],
            lambda run_dir: _append_line(run_dir / "out/combine.weights", "match_0\t9.0"),
        ),
        (["ddt"], lambda run_dir: _insert_header_field(run_dir / "models/model_1.txt", "vocab=99")),
        (["stages"], lambda run_dir: _replace_line(run_dir / "models/model_1.txt", 2, "abc")),
        (["ddt"], lambda run_dir: _set_max_len(run_dir / "models/model_1.txt", 129)),
        (["stages"], lambda run_dir: _set_max_len(run_dir / "models/model_1.txt", 129)),
        (["train"], lambda run_dir: _prepend_word(run_dir / "data/train.src", "<eos>")),
    ],
)
def test_bad_inputs_are_data_errors(workdir, capsys, command, damage):
    damage(workdir / "run")
    assert run(workdir, command) == 3
    assert "data error" in capsys.readouterr().err


def test_text_input_that_is_not_utf8_is_a_data_error_naming_the_file(workdir, capsys):
    _prepend_latin1_word(workdir / "run/out/combined.hyp")
    assert run(workdir, ["eval"], "--set", "eval.hyp=run/out/combined.hyp") == 3
    assert "data error: run/out/combined.hyp: not UTF-8 text" in capsys.readouterr().err


def test_gen_with_a_custom_grammar_writes_only_its_words(tmp_path, capsys):
    """Every token of every split comes from the grammar file: plural
    subjects take its first determiner, not an English "the"."""
    from corrfuse.toydata import parse_grammar

    text = "det le\ndet un\nnoun chat chats\nverbi dort dorment\nverbt voit voient\nprep sur\n"
    (tmp_path / "grammar.txt").write_text(text, encoding="utf-8")
    assert run(tmp_path, ["gen"], "--set", "gen.grammar=grammar.txt", "--set", "gen.train=20") == 0
    summary = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    vocabulary = parse_grammar(text).vocabulary()
    assert summary["vocab_size"] == str(len(vocabulary))
    for path in sorted((tmp_path / "run/data").iterdir()):
        if path.suffix in (".src", ".ref"):
            tokens = {tok for line in path.read_text(encoding="utf-8").splitlines() for tok in tokenize(line)}
            assert tokens <= set(vocabulary), path.name


@pytest.mark.parametrize(
    "content", [None, b"noun cat cats\n", "café".encode("latin-1"), "directory"],
    ids=["missing", "malformed", "not-utf8", "directory"],
)
def test_bad_grammar_file_is_a_data_error_naming_it(tmp_path, capsys, content):
    if content == "directory":
        (tmp_path / "grammar.txt").mkdir()
    elif content is not None:
        (tmp_path / "grammar.txt").write_bytes(content)
    assert run(tmp_path, ["gen"], "--set", "gen.grammar=grammar.txt") == 3
    err = capsys.readouterr().err
    assert "data error" in err and "grammar.txt" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--set", "eval.hyp=run/out"],
        ["combine", "--set", f"combine.hyps={HYPS}", "--set", "combine.weights=run/out"],
    ],
)
def test_directory_in_place_of_an_input_file_is_a_data_error(workdir, capsys, command):
    assert run(workdir, command) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, override",
    [
        (["gen"], "data.dir=run/data/dev.src/sub"),
        (["combine", "--set", f"combine.hyps={HYPS}"], "combine.out=run/out"),
        (["tune", "--set", f"tune.hyps={HYPS}"], "tune.out=run/out/combined.hyp/tuned.weights"),
        (["ddt"], "ddt.out=run/models"),
        (["train", "--set", "train.epochs=1"], "model.dir=run/data/dev.src/models"),
    ],
    ids=[
        "gen-under-a-file", "combine-to-a-directory", "tune-under-a-file", "ddt-to-a-directory",
        "train-under-a-file",
    ],
)
def test_unwritable_output_is_a_data_error_naming_it(workdir, capsys, command, override):
    assert run(workdir, command, "--set", override) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write ") and override.split("=", 1)[1] in err
    assert "Traceback" not in err and ".tmp" not in err


@pytest.mark.parametrize(
    "command",
    [["tune", "--set", f"tune.hyps={HYPS}"], ["combine", "--set", f"combine.hyps={HYPS}"]],
)
def test_overlong_hypothesis_line_is_data_error(workdir, capsys, command):
    hyp = workdir / "run/out/stage2.sys1.hyp"
    lines = hyp.read_text(encoding="utf-8").splitlines()
    hyp.write_text("\n".join([" ".join(["word"] * 129)] + lines[1:]) + "\n", encoding="utf-8")
    assert run(workdir, command) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "run/out/stage2.sys1.hyp:1: 129 tokens" in err


def test_decode_limit_above_aligner_limit_is_usage_error(workdir, capsys):
    assert run(workdir, ["train"], "--set", "policy.max_len=200") == 2
    assert run(workdir, ["stages"], "--set", "policy.max_len=200") == 2
    assert "policy.max_len must be in [1,128]" in capsys.readouterr().err


def test_stages_checks_dev_references_against_every_decode_limit(workdir, capsys):
    """Model 1 decodes at most 3 tokens, fewer than the longest dev
    reference: stages must fail before it trains or writes anything."""
    checkpoint = workdir / "run/models/model_1.txt"
    header, _, body = checkpoint.read_text(encoding="utf-8").partition("\n")
    assert "max_len=16" in header.split()
    checkpoint.write_text(header.replace("max_len=16", "max_len=3") + "\n" + body, encoding="utf-8")
    before = tree_bytes(workdir)
    assert run(workdir, ["stages"]) == 3
    assert "shortest model decode limit (3)" in capsys.readouterr().err
    assert tree_bytes(workdir) == before


def test_stages_checks_only_the_decode_limits_of_models_it_trains(workdir, capsys):
    """Model 2 decodes at most 3 tokens.  The round robin trains models 0 to
    ``ddt.stages`` - 1, so model 2's limit counts only from 3 stages on."""
    checkpoint = workdir / "run/models/model_2.txt"
    header, _, body = checkpoint.read_text(encoding="utf-8").partition("\n")
    assert "max_len=16" in header.split()
    checkpoint.write_text(header.replace("max_len=16", "max_len=3") + "\n" + body, encoding="utf-8")
    for stages in (0, 2):
        assert run(workdir, ["stages"], "--set", f"ddt.stages={stages}") == 0
    capsys.readouterr()
    before = tree_bytes(workdir / "run")
    assert run(workdir, ["stages"], "--set", "ddt.stages=3") == 3
    assert capsys.readouterr().err == (
        "data error: dev references longer than the shortest model decode limit (3);"
        " regenerate or raise policy.max_len\n"
    )
    assert tree_bytes(workdir / "run") == before


def test_diverging_training_is_numeric_failure(workdir, capsys):
    """The failure is the one line on stderr: no floating-point warning
    comes before it."""
    models, report = workdir / "run/models", workdir / "run/report.txt"
    before = tree_bytes(models), report.read_bytes()
    for command, override, message in [
        ("train", "train.lr=1e300", "numeric failure: non-finite parameters after individual training of model 0\n"),
        ("ddt", "ddt.lr=1e300", "numeric failure: non-finite parameters after diversity-driven training stage 0\n"),
    ]:
        assert run(workdir, [command], "--set", override) == 4
        captured = capsys.readouterr()
        assert captured.err == message
        assert "command=" not in captured.out
        assert (tree_bytes(models), report.read_bytes()) == before


@pytest.mark.parametrize(
    "command, checkpoint",
    [(["ddt"], "model_1.txt"), (["ddt"], "model_0.txt"), (["stages"], "model_1.txt")],
    ids=["ddt-peer", "ddt-backbone", "stages"],
)
def test_non_finite_checkpoint_is_a_data_error_naming_it(workdir, capsys, command, checkpoint):
    """A NaN parameter is bad input, not a failure of training: the
    command must stop before it trains or writes anything."""
    path = workdir / "run/models" / checkpoint
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "nan"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = tree_bytes(workdir / "run")
    assert run(workdir, command) == 3
    captured = capsys.readouterr()
    assert captured.err == f"data error: run/models/{checkpoint}: non-finite parameters in checkpoint\n"
    assert "command=" not in captured.out
    assert tree_bytes(workdir / "run") == before


@pytest.mark.parametrize(
    "override, code",
    [("train.lr=1e300", 4), ("train.epochs=0", 2)],
    ids=["diverging", "no-epochs"],
)
def test_failed_training_leaves_the_model_directory_as_it_was(workdir, override, code):
    """A shorter policy.max_len keeps fewer pairs and so builds a smaller
    vocabulary; a failed run must not put it next to the old checkpoints."""
    models = workdir / "run/models"
    before = tree_bytes(models)
    assert run(workdir, ["train"], "--set", "policy.max_len=6", "--set", override) == code
    assert tree_bytes(models) == before


def test_train_writes_the_vocabulary_and_every_checkpoint_or_none(workdir, capsys):
    """model_1.txt is a directory: train must fail before it writes any
    file, so the old vocabulary and checkpoints stay, with no temporary
    file beside them."""
    models = workdir / "run/models"
    (models / "model_1.txt").unlink()
    (models / "model_1.txt").mkdir()
    names, before = sorted(p.name for p in models.iterdir()), tree_bytes(models)
    assert run(workdir, ["train"], "--set", "train.epochs=3") == 3
    assert capsys.readouterr().err == "data error: cannot write run/models/model_1.txt: Is a directory\n"
    assert sorted(p.name for p in models.iterdir()) == names
    assert tree_bytes(models) == before


@pytest.mark.parametrize(
    "command, extra, last_output",
    [
        (["gen"], [], "run/data/test.m2"),
        (["stages"], ["--set", "ddt.stages=3"], "run/out/stage3.weights"),
    ],
    ids=["gen", "stages"],
)
def test_every_output_is_written_or_none(workdir, capsys, command, extra, last_output):
    """The command's last output is a directory: it must fail before it
    writes any file.  Another seed makes every output differ, so a partial
    write would show in the bytes."""
    (workdir / last_output).unlink(missing_ok=True)
    (workdir / last_output).mkdir()
    before = tree_bytes(workdir / "run")
    assert run(workdir, command, "--seed", "8", *extra) == 3
    assert capsys.readouterr().err == f"data error: cannot write {last_output}: Is a directory\n"
    assert tree_bytes(workdir / "run") == before
    assert not list((workdir / "run").rglob("*.tmp"))


def test_diverging_stage_training_is_numeric_failure(workdir, capsys):
    report = workdir / "run/report.txt"
    before = report.read_bytes()
    assert run(workdir, ["stages"], "--set", "ddt.lr=1e300") == 4
    captured = capsys.readouterr()
    assert captured.err == "numeric failure: non-finite parameters after diversity-driven training stage 1\n"
    assert "command=stages" not in captured.out
    assert report.read_bytes() == before


def test_a_stage_diverging_after_earlier_stages_were_tuned_writes_nothing(workdir, capsys, monkeypatch):
    """Stage 2's first DDT step writes a NaN.  The round robin yields stages
    0 and 1, which are tuned as they come, and raises at stage 2; ``stages``
    exits 4 with the numeric failure as its one line on stderr and writes
    nothing."""
    events, steps = [], []
    real_stage, real_step, real_tune = ddt.train_stage, ddt.ddt_step, pipeline.tune_loop

    def stage(*args):
        events.append(("ddt", args[-1]))
        steps.clear()
        return real_stage(*args)

    def step(model, *args):
        result = real_step(model, *args)
        steps.append(model)
        if events[-1] == ("ddt", 2) and len(steps) == 1:
            model.params[0] = np.nan
        return result

    def tune(*args, **kwargs):
        events.append(("tune", kwargs["rng_seed"]))
        return real_tune(*args, **kwargs)

    monkeypatch.setattr(ddt, "train_stage", stage)
    monkeypatch.setattr(ddt, "ddt_step", step)
    monkeypatch.setattr(pipeline, "tune_loop", tune)
    before = tree_bytes(workdir / "run")
    assert run(workdir, ["stages"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "numeric failure: non-finite parameters after diversity-driven training stage 2\n"
    assert captured.out == ""
    assert tree_bytes(workdir / "run") == before
    cfg = tiny_config()
    tuned = [("tune", stream_seed(cfg, "tune", stage)) for stage in (0, 1)]
    assert events == [tuned[0], ("ddt", 1), tuned[1], ("ddt", 2)]


def test_report_is_each_successful_commands_summary_block_in_order(workdir, capsys):
    """The report holds exactly what each successful command printed, each
    block ended by ``--``; a failed command adds nothing to it."""
    report = workdir / "run/report.txt"
    report.unlink()
    blocks = []
    for command in (["eval", "--set", "eval.hyp=run/out/combined.hyp"],
                    ["diversity", "--set", DIV_A, "--set", DIV_B]):
        assert run(workdir, command) == 0
        blocks.append(capsys.readouterr().out)
    assert blocks[0].startswith("command=eval\nconfig_sha256=")
    assert blocks[1].startswith("command=diversity\nconfig_sha256=")
    assert report.read_text(encoding="utf-8") == f"{blocks[0]}--\n{blocks[1]}--\n"
    assert run(workdir, ["eval", "--set", "eval.hyp=run/out/missing.hyp"]) == 3
    assert report.read_text(encoding="utf-8") == f"{blocks[0]}--\n{blocks[1]}--\n"


@pytest.mark.parametrize(
    "command", [["gen"], ["train", "--set", "train.epochs=1"]], ids=["gen", "train"]
)
def test_report_that_is_a_directory_fails_before_any_write_or_print(workdir, capsys, command):
    """The report is one of the command's files: when it cannot be read,
    nothing is written and no summary is printed.  Another seed makes every
    output differ, so a partial write would show in the bytes."""
    (workdir / "run/report.txt").unlink()
    (workdir / "run/report.txt").mkdir()
    before = tree_bytes(workdir / "run")
    assert run(workdir, command, "--seed", "8") == 3
    captured = capsys.readouterr()
    assert captured.err == "data error: cannot read run/report.txt: Is a directory\n"
    assert captured.out == ""
    assert tree_bytes(workdir / "run") == before
    assert (workdir / "run/report.txt").is_dir()


def test_report_that_is_not_utf8_is_a_data_error_naming_it(workdir, capsys):
    _prepend_latin1_word(workdir / "run/report.txt")
    before = tree_bytes(workdir / "run")
    assert run(workdir, ["gen"], "--seed", "8") == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: run/report.txt: not UTF-8 text")
    assert captured.out == ""
    assert tree_bytes(workdir / "run") == before


def test_output_in_place_of_the_report_is_a_usage_error(workdir, capsys):
    report = workdir / "run/report.txt"
    before = tree_bytes(workdir / "run")
    command = ["combine", "--set", f"combine.hyps={HYPS}", "--set", "combine.out=./run/report.txt"]
    assert run(workdir, command) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: combine cannot write its output to the report run/report.txt\n"
    assert captured.out == ""
    assert tree_bytes(workdir / "run") == before and report.is_file()


def test_ddt_normalize_changes_the_checkpoint(workdir):
    """``ddt.normalize`` reaches the reward: at the same seed, a run with
    normalized rewards writes a different checkpoint from the default's."""
    texts = []
    for setting in ("ddt.normalize=false", "ddt.normalize=true"):
        out = f"run/models/{setting}.txt"
        assert run(workdir, ["ddt"], "--set", setting, "--set", f"ddt.out={out}") == 0
        texts.append((workdir / out).read_text(encoding="utf-8"))
    assert texts[0] == (workdir / "run/models/model_0_ddt.txt").read_text(encoding="utf-8")
    assert texts[0] != texts[1]


def _prepend_to_first_dev_source(data: Path, word: str) -> None:
    """``word`` at the start of the first dev source, in dev.src and in its
    ``S`` line in dev.m2, so that the two still agree."""
    _prepend_word(data / "dev.src", word)
    m2 = data / "dev.m2"
    m2.write_text(m2.read_text(encoding="utf-8").replace("S ", f"S {word} ", 1), encoding="utf-8")


@pytest.mark.parametrize(
    "damage, error",
    [
        (
            lambda data: _replace_line(data / "dev.ref", 0, "word " * 17),
            "dev references longer than the shortest model decode limit (16);"
            " regenerate or raise policy.max_len",
        ),
        (lambda data: _prepend_word(data / "dev.ref", "<eos>"), "dev text: <eos> is reserved"),
        (lambda data: _prepend_to_first_dev_source(data, "<unk>"), "dev text: <unk> is reserved"),
    ],
    ids=["ref-over-decode-limit", "ref-eos", "src-unk"],
)
def test_ddt_and_stages_reject_dev_text_that_ddt_cannot_train_on(workdir, capsys, damage, error):
    """DDT trains on every dev source and reference: a reference of 17
    tokens, over the decode limit ``policy.max_len`` 16, or a reserved token
    in either is the same data error under both commands, before either
    trains or writes anything."""
    damage(workdir / "run/data")
    before = tree_bytes(workdir / "run")
    for command in ("ddt", "stages"):
        assert run(workdir, [command]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"data error: {error}\n"
        assert captured.out == ""
    assert tree_bytes(workdir / "run") == before


def test_train_takes_one_lockstep_step_per_minibatch(workdir, monkeypatch, capsys):
    steps = []
    mle_step = policy.mle_step
    monkeypatch.setattr(policy, "mle_step", lambda *args: steps.append(len(args[1].x_starts)) or mle_step(*args))
    assert run(workdir, ["train"], "--set", "train.epochs=2", "--set", "train.batch=4") == 0
    summary = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert steps == [3] * 2 * math.ceil(int(summary["n_pairs"]) / 4)  # a batch per model


def read_model(path: Path, vocab):
    return cli._read_text(str(path), lambda text: parse_model(text, vocab))


def _ddt_inputs(root: Path):
    models_dir = root / "run/models"
    vocab = cli._read_text(str(models_dir / "vocab.txt"), parse_vocab)
    models = [read_model(models_dir / f"model_{i}.txt", vocab) for i in range(3)]
    src, ref = (
        [tokenize(line) for line in (root / f"run/data/dev.{ext}").read_text().splitlines()]
        for ext in ("src", "ref")
    )
    return vocab, models, list(zip(src, ref))


def test_ddt_checkpoint_is_one_train_stage(cli_chain):
    root, _, _ = cli_chain
    vocab, models, data = _ddt_inputs(root)
    peers = [[greedy_decode(m, x) for x, _ in data] for m in models[1:]]
    cfg = ddt_cfg(seed=stream_seed(tiny_config(), "ddt"))
    train_stage(models[0], data, peers, cfg, 0)
    ddt = read_model(root / "run/models/model_0_ddt.txt", vocab)
    assert np.array_equal(ddt.params, models[0].params)


def test_ddt_backbone_1_is_one_train_stage_against_models_0_and_2(workdir, capsys):
    assert run(workdir, ["ddt"], "--set", "ddt.backbone=1") == 0
    assert "backbone=1" in capsys.readouterr().out.splitlines()
    vocab, models, data = _ddt_inputs(workdir)
    peers = [[greedy_decode(m, x) for x, _ in data] for m in (models[0], models[2])]
    cfg = ddt_cfg(seed=stream_seed(tiny_config(), "ddt"))
    train_stage(models[1], data, peers, cfg, 0)
    ddt = read_model(workdir / "run/models/model_1_ddt.txt", vocab)
    assert np.array_equal(ddt.params, models[1].params)


# more stages and tuning rounds than TINY: models, spaces and weights recur
REUSE = ("--set", "ddt.stages=4", "--set", "tune.rounds=3", "--set", "tune.iters=2")


def stage_outputs(cwd: Path, stages: int) -> list[tuple[TokenSeq, ...]]:
    """The combined and component outputs of each stage's files under
    ``cwd``, stage by stage."""
    return [
        tuple(map(tokenize, stage_file(cwd, stage, f"{name}.hyp").splitlines()))
        for stage in range(stages)
        for name in ("combined", "sys0", "sys1", "sys2")
    ]


def dev_sentences(cwd: Path) -> list[tuple]:
    """The (source, gold) of each dev sentence under ``cwd``."""
    data = cwd / "run/data"
    sources = [tokenize(line) for line in (data / "dev.src").read_text(encoding="utf-8").splitlines()]
    return list(zip(sources, parse_m2((data / "dev.m2").read_text(encoding="utf-8"))))


def test_stages_does_each_piece_of_lattice_work_once(workdir, monkeypatch):
    """Every distinct hypothesis tuple is aligned once, every distinct
    (space, weights, beam) searched once and every distinct (sentence,
    hypothesis) scored once over all stages, tuning's candidates and the
    reported outputs together."""
    aligned, searches, scored, tuned_spaces, pools = [], [], [], [], []
    expansions = 0
    align_all, extensions = combiner.align_all, combiner.extensions
    search, score, tune = tuner.beam_search, evaluation.score_sentence, pipeline.tune_loop

    def counted_extensions(*args):
        nonlocal expansions
        expansions += 1
        return extensions(*args)

    def recorded_search(space, weights, lm, beam, k):
        before = expansions
        result = search(space, weights, lm, beam, k)
        key = (space.hyps, np.asarray(weights, dtype=float).tobytes(), beam)
        searches.append((key, expansions > before))
        return result

    def recorded_tune(scorer, spaces, *args, **kwargs):
        weights, pool = tune(scorer, spaces, *args, **kwargs)
        tuned_spaces.append(spaces)
        sentences = list(zip(scorer.sources, scorer.golds))
        pools.append({(*sentences[i], t) for i, slot in enumerate(pool.sentences) for t in slot})
        return weights, pool

    monkeypatch.setattr(combiner, "align_all", lambda hyps: aligned.append(hyps) or align_all(hyps))
    monkeypatch.setattr(combiner, "extensions", counted_extensions)
    monkeypatch.setattr(tuner, "beam_search", recorded_search)
    monkeypatch.setattr(evaluation, "score_sentence", lambda s, t, g: scored.append((s, g, t)) or score(s, t, g))
    monkeypatch.setattr(pipeline, "tune_loop", recorded_tune)
    assert run(workdir, ["stages"], *REUSE) == 0

    assert len(tuned_spaces) == 5
    hyp_tuples = {space.hyps for spaces in tuned_spaces for space in spaces}
    assert len(aligned) == len(hyp_tuples) < sum(map(len, tuned_spaces))
    assert set(aligned) == hyp_tuples
    keys = {key for key, _ in searches}
    expanded = [key for key, grew in searches if grew]
    assert len(expanded) == len(keys) < len(searches)
    candidates = set().union(*pools)
    reports = stage_outputs(workdir, 5)
    sentences = dev_sentences(workdir)
    reported = {(*sentences[i], hyp) for outputs in reports for i, hyp in enumerate(outputs)}
    assert len(candidates) < sum(map(len, pools))
    assert len(scored) == len(set(scored)) < sum(map(len, pools)) + sum(map(len, reports))
    assert set(scored) == candidates | reported


def test_stages_tie_goes_to_the_earliest_stage(workdir, monkeypatch, capsys):
    """With ``ddt.stages=2`` (as in TINY) model 2 is never trained; a
    combination that always outputs model 2's hypothesis scores the same at
    every stage, and the tie goes to stage 0, which is not tested against
    itself."""
    monkeypatch.setattr(pipeline, "decode_corpus", lambda spaces, *args: [space.hyps[2] for space in spaces])
    assert run(workdir, ["stages"], "--set", "ddt.stages=2") == 0
    summary = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    out = workdir / "run/out"
    for stage in range(3):
        combined = (out / f"stage{stage}.combined.hyp").read_bytes()
        assert combined == (out / "stage0.sys2.hyp").read_bytes()
        assert summary[f"stage{stage}_combined_f05"] == summary["stage0_component2_f05"]
    assert summary["best_stage"] == "0"
    assert "p_best_vs_stage0" not in summary


def test_stages_artifacts_do_not_depend_on_the_search_memo(cli_chain, tmp_path, monkeypatch, capsys):
    root, _, _ = cli_chain
    search = tuner.beam_search
    results = []
    for memo in (True, False):
        if not memo:  # every search on a fresh copy of its space, whose memo is empty
            monkeypatch.setattr(
                tuner, "beam_search",
                lambda space, *args, **kwargs: search(
                    combiner.SearchSpace(space.hyps, space.groups), *args, **kwargs
                ),
            )
        copy = tmp_path / f"memo{memo}"
        shutil.copytree(root, copy)
        capsys.readouterr()
        assert run(copy, ["stages"], *REUSE) == 0
        results.append((capsys.readouterr().out, tree_bytes(copy)))
    assert results[0] == results[1]


def stage_file(cwd: Path, stage: int, name: str) -> str:
    """The text of ``run/out/stage<stage>.<name>`` under ``cwd``."""
    return (cwd / f"run/out/stage{stage}.{name}").read_text(encoding="utf-8")


def test_stage_files_are_what_tune_and_combine_make_of_the_stage_outputs(tmp_path, monkeypatch):
    """One combination path across commands: tuning a stage's component
    outputs with that stage's ``tune`` key writes the stage's weights, and
    combining with them writes its combined outputs.  The ``tune`` command
    tunes with stage key 0, so stage 0 goes through the ``tune`` and
    ``combine`` commands and the later stages through ``pipeline.tune`` and
    ``decode_corpus`` in process; each tunes with its stage's seed."""
    sizes = ("--set", "gen.train=8", "--set", "gen.dev=8")
    assert [run(tmp_path, [command], *sizes, *REUSE) for command in ("gen", "train", "stages")] == [0] * 3
    schema = combiner.FeatureSchema(3)
    seeds, tune = [], pipeline.tune_loop
    monkeypatch.setattr(
        pipeline, "tune_loop", lambda *args, **kwargs: seeds.append(kwargs["rng_seed"]) or tune(*args, **kwargs)
    )
    monkeypatch.chdir(tmp_path)
    cfg = tiny_config(*REUSE)
    scorer = Scorer(*cli._load_split(cfg, "dev"))
    lm = cli._load_lm(cfg)
    for stage in range(5):
        weights = stage_file(tmp_path, stage, "weights")
        # tuned weights, not the defaults, or the comparisons below show nothing
        assert combiner.parse_weights(weights, schema) != schema.default_weights()
        hyps = ",".join(f"run/out/stage{stage}.sys{m}.hyp" for m in range(3))
        if stage == 0:
            assert run(tmp_path, ["tune"], *REUSE, "--set", f"tune.hyps={hyps}",
                       "--set", "tune.out=run/check.weights") == 0
            assert (tmp_path / "run/check.weights").read_text(encoding="utf-8") == weights
            assert run(tmp_path, ["combine"], "--set", f"combine.hyps={hyps}",
                       "--set", "combine.weights=run/check.weights", "--set", "combine.out=run/check.hyp") == 0
            combined = (tmp_path / "run/check.hyp").read_text(encoding="utf-8")
        else:
            spaces, tuned, _ = pipeline.tune(cfg, cli._read_hyps("tune.hyps", hyps), scorer, lm, stage)
            assert combiner.format_weights(schema, tuned) == weights
            combined = cli._lines_text(cli.decode_corpus(spaces, tuned, lm, cfg.get_int("combine.beam")))
        assert combined == stage_file(tmp_path, stage, "combined.hyp")
    assert seeds == [stream_seed(cfg, "tune", stage) for stage in range(5)]


def tiny_config(*extra: str) -> ExperimentConfig:
    """The config that ``run`` gives ``cli.main`` with ``extra`` arguments,
    for in-process calls."""
    args = cli.build_parser().parse_args(["stages", *TINY, *extra])
    return ExperimentConfig.load(None, {"seed": args.seed, **dict(kv.split("=", 1) for kv in args.set)})


def test_run_stages_yields_what_the_stage_files_hold(cli_chain, monkeypatch):
    """The chain in process: ``make_splits``, ``train_models`` and
    ``run_stages`` at the tiny config, formatted by ``cli``'s own
    formatters, give the CLI chain's data files, checkpoints and stage files
    byte for byte.  Each stage's record carries its DDT losses and the pool
    that ``tune_loop`` returned."""
    from corrfuse.toydata import DEFAULT_GRAMMAR

    root, _, _ = cli_chain
    pools, tune = [], pipeline.tune_loop

    def recorded_tune(*args, **kwargs):
        weights, pool = tune(*args, **kwargs)
        pools.append(pool)
        return weights, pool

    monkeypatch.setattr(pipeline, "tune_loop", recorded_tune)
    cfg = tiny_config()
    splits = pipeline.make_splits(cfg, DEFAULT_GRAMMAR)
    files = {}
    for split, examples in splits.items():
        files.update(cli._split_files(cfg, split, examples))
    train, dev = splits["train"], splits["dev"]
    vocab, models, _ = pipeline.train_models(cfg, [(e.source, e.reference) for e in train])
    files.update(cli._model_files(cfg, vocab, models))
    scorer = Scorer([e.source for e in dev], [GoldAnnotation(e.source, (e.gold_edits,)) for e in dev])
    lm = combiner.train_lm([e.reference for e in train], cfg.get_int("lm.order"))
    records = list(pipeline.run_stages(cfg, models, scorer, [e.reference for e in dev], lm))
    for record in records:
        files.update(cli._stage_files(cfg, record))

    assert len(files) == 3 * 3 + 1 + 3 + 3 * 5  # splits, vocabulary, checkpoints, stage files
    assert files == {path: (root / path).read_text(encoding="utf-8") for path in files}
    assert [record.report.stage for record in records] == [0, 1, 2]
    assert len(pools) == len(records) and all(r.pool is pool for r, pool in zip(records, pools))
    for record in records:
        losses = (record.report.mle_loss, record.report.mean_reward)
        assert all(map(math.isnan, losses)) if record.report.stage == 0 else all(map(math.isfinite, losses))


def test_stages_scores_each_distinct_output_once(workdir, monkeypatch):
    """The report scores component and combined outputs through the scorer
    that tuning fills: outside tuning, ``score_sentence`` runs only for
    (sentence, output) pairs of the stage files that no k-best pool held
    yet, and once each, though a model's outputs recur over the stages that
    do not train it."""
    tuning, pooled, reported, pooled_when_reported = False, set(), [], []
    score, tune = evaluation.score_sentence, pipeline.tune_loop

    def recorded_tune(scorer, *args, **kwargs):
        nonlocal tuning
        tuning = True
        weights, pool = tune(scorer, *args, **kwargs)
        tuning = False
        sentences = list(zip(scorer.sources, scorer.golds))
        pooled.update((*sentences[i], t) for i, slot in enumerate(pool.sentences) for t in slot)
        return weights, pool

    def recorded_score(source, hyp, gold):
        if not tuning:
            reported.append((source, gold, hyp))
            pooled_when_reported.append((source, gold, hyp) in pooled)
        return score(source, hyp, gold)

    monkeypatch.setattr(evaluation, "score_sentence", recorded_score)
    monkeypatch.setattr(pipeline, "tune_loop", recorded_tune)
    # two candidates a search: some reported outputs are in no pool
    assert run(workdir, ["stages"], *REUSE, "--set", "combine.k=2") == 0
    outputs = stage_outputs(workdir, 5)
    assert len(set(outputs)) < len(outputs)
    sentences = dev_sentences(workdir)
    reports = {(*sentences[i], hyp) for out in outputs for i, hyp in enumerate(out)}
    assert 0 < len(reports - pooled) < len(reports)
    assert not any(pooled_when_reported)
    assert len(reported) == len(set(reported))
    assert set(reported) <= reports <= pooled | set(reported)


def test_repeated_token_outputs_combine_quickly(tmp_path):
    """Models this small and this briefly trained emit "." repeated to the
    decode limit (or nothing), the input on which an exact minimum-crossing
    aligner takes exponential time; the combination commands must still
    finish."""
    small = ["--set", "policy.embed=4", "--set", "policy.hidden=8", "--set", "train.epochs=2"]
    assert [run(tmp_path, command, *small) for command in (["gen"], ["train"])] == [0, 0]
    start = time.perf_counter()
    assert run(tmp_path, ["stages"], *small) == 0
    dots = " ".join(["."] * 16)
    outputs = [(tmp_path / p).read_text(encoding="utf-8").splitlines() for p in HYPS.split(",")]
    assert sum(all(line == dots for line in lines) for lines in outputs) >= 2
    assert run(tmp_path, PIPELINE[4], *small) == 0  # tune
    assert run(tmp_path, PIPELINE[5], *small) == 0  # combine
    assert time.perf_counter() - start < 2.0


def _fuse_commands(workdir: Path) -> list[list[str]]:
    """tune and combine over three systems written into ``workdir``: two
    damaged copies of the dev references and the references.  An LM trained
    on the first copy prefers it, so tuning has weights to move."""
    refs = [line.split() for line in (workdir / "run/data/dev.ref").read_text().splitlines()]
    systems = [[r[:1] + r[2:] for r in refs], [r[:2] + r[1:] for r in refs], refs]
    names = []
    for m, lines in enumerate(systems):
        names.append(f"run/system{m}.hyp")
        (workdir / names[-1]).write_text("".join(" ".join(t) + "\n" for t in lines))
    hyps = ",".join(names)
    lm = ("--set", f"lm.corpus={names[0]}")
    return [
        ["tune", "--set", f"tune.hyps={hyps}", "--set", "tune.rounds=3", "--set", "tune.iters=3", *lm],
        ["combine", "--set", f"combine.hyps={hyps}", *lm],
    ]


def _run_child(cwd: Path, command: list[str], **env: str) -> subprocess.CompletedProcess:
    """``command`` on the tiny config as a ``python -m corrfuse.cli`` child."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "corrfuse.cli", *command[:1], *TINY, *command[1:]],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=src, **env), check=True, capture_output=True,
        text=True, timeout=120,
    )


def test_tune_and_combine_do_not_depend_on_the_hash_seed(workdir, tmp_path):
    # the lattice search and the tuner keep tables keyed by strings, token
    # tuples and packed bit masks; no output may follow the per-process
    # string hash seed
    commands = _fuse_commands(workdir)
    results = []
    for seed in ("1", "2"):
        copy = tmp_path / f"hashseed{seed}"
        shutil.copytree(workdir, copy)
        for command in commands:
            _run_child(copy, command, PYTHONHASHSEED=seed)
        out = copy / "run" / "out"
        results.append(((out / "combine.weights").read_bytes(), (out / "combined.hyp").read_bytes()))
    assert results[0] == results[1]
    schema = cli.FeatureSchema(3)
    tuned = cli._read_text(
        str(copy / "run/out/combine.weights"), lambda text: combiner.parse_weights(text, schema)
    )
    assert not np.array_equal(tuned, schema.default_weights())


@pytest.mark.parametrize("command", [["eval", "--set", "eval.hyp=run/out/combined.hyp"], ["stages"]])
def test_source_line_unlike_its_m2_line_names_both_files(workdir, capsys, command):
    _replace_line(workdir / "run/data/dev.src", 0, "no such source line")
    assert run(workdir, command) == 3
    err = capsys.readouterr().err
    assert "run/data/dev.src:1:" in err and "run/data/dev.m2" in err


def _eval_counts(workdir: Path, capsys, src: str, m2: str, hyp: str) -> dict[str, str]:
    capsys.readouterr()
    assert run(workdir, ["eval"], "--set", f"data.dev_src={src}", "--set", f"data.dev_m2={m2}",
               "--set", f"eval.hyp={hyp}") == 0
    summary = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    return {key: summary[key] for key in ("tp", "fp", "fn")}


def _dev_eval_files(workdir: Path) -> dict[str, Path]:
    return {"src": workdir / "run/data/dev.src", "m2": workdir / "run/data/dev.m2",
            "hyp": workdir / "run/out/combined.hyp"}


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_unicode_separators_inside_lines_read_as_spaces(workdir, capsys, separator):
    # str.splitlines would break these lines in two; tokenize reads the
    # separator as a space, so the scores must not move
    files = _dev_eval_files(workdir)
    want = _eval_counts(workdir, capsys, *map(str, files.values()))
    for name, path in files.items():
        lines = path.read_text(encoding="utf-8").split("\n")
        if name == "m2":  # the sentence of each S line, not its prefix or the A lines
            lines = ["S " + line[2:].replace(" ", separator, 1) if line.startswith("S ") else line
                     for line in lines]
        else:
            lines = [line.replace(" ", separator, 1) for line in lines]
        assert any(separator in line for line in lines)
        (workdir / f"sep.{name}").write_text("\n".join(lines), encoding="utf-8")
    assert _eval_counts(workdir, capsys, "sep.src", "sep.m2", "sep.hyp") == want
    assert len(cli._read_token_lines(str(workdir / "sep.hyp"))) == len(cli._read_token_lines(str(files["hyp"])))


def test_crlf_files_read_as_before(workdir, capsys):
    files = _dev_eval_files(workdir)
    want = _eval_counts(workdir, capsys, *map(str, files.values()))
    for name, path in files.items():
        (workdir / f"crlf.{name}").write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert cli._read_token_lines(str(workdir / "crlf.src")) == cli._read_token_lines(str(files["src"]))
    assert _eval_counts(workdir, capsys, "crlf.src", "crlf.m2", "crlf.hyp") == want


def test_set_value_that_is_not_utf8_is_a_usage_error_before_any_work(tmp_path, capsys):
    # the shell hands over b"r\xff", which Python decodes to "r\udcff"
    assert run(tmp_path, ["gen"], "--set", "data.dir=r\udcff") == 2
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("code", [0, 2, 3])
def test_entry_freezes_once_then_exits_with_mains_code(monkeypatch, code):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["corrfuse", "eval"])  # entry parses it first

    def spy(argv=None):
        events.append(("main", argv))
        return code

    monkeypatch.setattr(cli, "main", spy)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert events == ["freeze", ("main", None)]
    assert exc.value.code == code


def test_module_run_and_console_script_go_through_entry(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import gc, runpy, sys; gc.freeze = lambda: print('freeze'); "
            "sys.argv[1:] = ['eval', '--set', 'eval.hyp=']; "
            "runpy.run_module('corrfuse.cli', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "freeze\n")
    scripts = (src.parent / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    assert scripts.split("[")[0].split() == ["corrfuse", "=", '"corrfuse.cli:entry"']


@pytest.mark.parametrize("command, loaded, exit_code",
                         [(["train"], True, 3), (["eval", "--set", "eval.hyp="], False, 2)],
                         ids=["train", "eval"])
def test_entry_loads_numpy_before_the_freeze_only_for_numeric_commands(tmp_path, command, loaded,
                                                                       exit_code):
    # numpy's objects are frozen with the rest of the start-up heap; a text
    # command does not load it at all
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import gc, runpy, sys; gc.freeze = lambda: print('numpy' in sys.modules); "
            f"sys.argv[1:] = {command!r}; "
            "runpy.run_module('corrfuse.cli', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (proc.returncode, proc.stdout) == (exit_code, f"{loaded}\n")


def test_package_import_loads_no_module():
    # a child that imports the package alone must not pay for numpy or for
    # any corrfuse module it does not use
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, corrfuse; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('corrfuse.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert proc.stdout == "[]\n"


NUMPY, POLICY, TOYDATA = "numpy", "corrfuse.policy", "corrfuse.toydata"
DATACLASSES = "dataclasses"  # no command loads it
LOADED_BY_COMMAND = [
    # (id, command, which of the four modules it loads, exit code)
    ("tune", ["tune", "--set", f"tune.hyps={HYPS}"], [NUMPY], 0),
    ("combine", ["combine", "--set", f"combine.hyps={HYPS}",
                 "--set", "combine.weights=run/out/combine.weights"], [], 0),
    ("combine-default-weights", ["combine", "--set", f"combine.hyps={HYPS}",
                                 "--set", "combine.weights=run/none.weights"], [], 0),
    ("eval", ["eval", "--set", "eval.hyp=run/out/combined.hyp"], [], 0),
    # the sign test draws from a numpy generator
    ("eval-baseline", ["eval", "--set", "eval.hyp=run/out/combined.hyp",
                       "--set", "eval.baseline=run/out/stage2.sys0.hyp"], [NUMPY], 0),
    ("diversity", ["diversity", "--set", DIV_A, "--set", DIV_B], [], 0),
    ("gen", ["gen"], [NUMPY, TOYDATA], 0),
    ("train", ["train", "--set", "train.epochs=1"], [NUMPY, POLICY], 0),
    ("ddt", ["ddt"], [NUMPY, POLICY], 0),
    ("stages", ["stages"], [NUMPY, POLICY], 0),
    ("help", ["--help"], [], 0),
    ("unknown-command", ["nosuch"], [], 2),  # argparse's usage error
]


@pytest.mark.parametrize("command, loaded, exit_code",
                         [case[1:] for case in LOADED_BY_COMMAND],
                         ids=[case[0] for case in LOADED_BY_COMMAND])
def test_each_command_loads_policy_and_toydata_only_if_it_uses_them(workdir, command, loaded,
                                                                   exit_code):
    # cli imports these two inside the commands that use them, so that the
    # fuse commands' children do not compile them, and numpy inside the
    # functions that make arrays, so that the text commands do not load it;
    # records are named tuples and slotted classes, so no child runs the
    # generated code of dataclasses or imports it
    assert (workdir / "run/out/combine.weights").is_file()  # the combine case's weights
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\nfrom corrfuse import cli\n"
            "try:\n    code = cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    code = exc.code\n"
            f"print([m for m in {[NUMPY, POLICY, TOYDATA, DATACLASSES]!r} if m in sys.modules]); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *command[:1], *TINY, *command[1:]],
                          cwd=workdir, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_main_leaves_the_collector_alone(workdir, capsys):
    frozen = gc.get_freeze_count()
    assert run(workdir, PIPELINE[6]) == 0
    assert run(workdir, ["eval"], "--set", "eval.hyp=") == 2
    assert gc.get_freeze_count() == frozen


def test_frozen_children_write_what_main_writes(workdir, tmp_path, capsys):
    # python -m corrfuse.cli goes through entry, which freezes the heap;
    # main() in this process does not
    commands = _fuse_commands(workdir)
    commands.append(["eval", "--set", "eval.hyp=run/out/combined.hyp",
                     "--set", "eval.baseline=run/system0.hyp", "--set", "eval.resamples=50"])
    child, here = tmp_path / "child", tmp_path / "here"
    shutil.copytree(workdir, child)
    shutil.copytree(workdir, here)
    child_out = [_run_child(child, command).stdout for command in commands]
    capsys.readouterr()
    here_out = []
    for command in commands:
        assert run(here, command[:1], *command[1:]) == 0  # the child's argv
        here_out.append(capsys.readouterr().out)
    assert child_out == here_out
    assert tree_bytes(child) == tree_bytes(here)
    assert "p_value=" in here_out[2]
