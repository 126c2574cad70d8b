"""End-to-end CLI tests: the whole pipeline at tiny sizes, run in process
through ``cli.main``, its determinism, and the exit-code contract."""

import contextlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corrfuse import cli, combiner, tuner
from corrfuse.ddt import DdtConfig, train_stage
from corrfuse.evaluation import parse_m2, score_corpus
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


def test_stages_reports_each_components_score(pipeline):
    root, _, stdout = pipeline
    section = stdout.split("command=stages\n")[1].split("command=")[0]
    summary = dict(line.split("=", 1) for line in section.splitlines())
    data = root / "run" / "data"
    sources = [tokenize(line) for line in (data / "dev.src").read_text().splitlines()]
    golds = parse_m2((data / "dev.m2").read_text())
    for stage in range(3):
        for m in range(3):
            path = root / "run" / "out" / f"stage{stage}.sys{m}.hyp"
            hyps = [tokenize(line) for line in path.read_text().splitlines()]
            total, _ = score_corpus(sources, hyps, golds)
            assert summary[f"stage{stage}_component{m}_f05"] == cli._fmt(total.f_beta(0.5))


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
    ],
)
def test_bad_values_are_usage_errors(workdir, capsys, command, override):
    assert run(workdir, command, "--set", override) == 2
    assert "usage error" in capsys.readouterr().err


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
    ],
    ids=["unknown-key", "no-equals", "missing-file", "not-utf8"],
)
def test_bad_config_file_is_usage_error(workdir, capsys, text):
    if isinstance(text, bytes):
        (workdir / "exp.cfg").write_bytes(text)
    elif text is not None:
        (workdir / "exp.cfg").write_text(text, encoding="utf-8")
    assert run(workdir, ["diversity"], "--config", "exp.cfg") == 2
    assert "usage error" in capsys.readouterr().err


def test_jobs_accepts_only_one(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run(workdir, ["combine", "--set", f"combine.hyps={HYPS}"], "--jobs", "2")
    assert exc.value.code == 2
    assert run(workdir, ["combine", "--set", f"combine.hyps={HYPS}"], "--jobs", "1") == 0


def _truncate(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")


def _replace_first_line(path: Path, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([text] + lines[1:]) + "\n", encoding="utf-8")


def _prepend_bom(path: Path) -> None:
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")


def _prepend_latin1_word(path: Path) -> None:
    """A Latin-1 encoded word at the start, which makes the file invalid UTF-8."""
    path.write_bytes("caf\u00e9 ".encode("latin-1") + path.read_bytes())


def _set_weight(path: Path, name: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [f"{name}\t{value}" if line.startswith(name + "\t") else line for line in lines]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        (["eval", "--set", "eval.hyp=run/out/combined.hyp"], lambda run_dir: _prepend_bom(run_dir / "data/dev.src")),
        (
            ["tune", "--set", f"tune.hyps={HYPS}"],
            lambda run_dir: _replace_first_line(run_dir / "data/dev.src", "no such source line"),
        ),
        (["train"], lambda run_dir: _replace_first_line(run_dir / "data/dev.src", "no such source line")),
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
    assert run(workdir, ["train"], "--set", "policy.max_len=200") == 0
    assert run(workdir, ["stages"], "--set", "policy.max_len=200") == 2
    assert "policy.max_len must be <= 128" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_is_numeric_failure(workdir, capsys):
    assert run(workdir, ["train"], "--set", "train.lr=1e300") == 4
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_stage_training_is_numeric_failure(workdir, capsys):
    report = workdir / "run/report.txt"
    before = report.read_bytes()
    assert run(workdir, ["stages"], "--set", "ddt.lr=1e300") == 4
    captured = capsys.readouterr()
    assert "numeric failure: non-finite parameters after diversity-driven training stage 1" in captured.err
    assert "command=stages" not in captured.out
    assert report.read_bytes() == before


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


# more stages and tuning rounds than TINY: models, spaces and weights recur
REUSE = ("--set", "ddt.stages=4", "--set", "tune.rounds=3", "--set", "tune.iters=2")


def test_stages_does_each_piece_of_lattice_work_once(workdir, monkeypatch):
    """Every distinct hypothesis tuple is aligned once, every distinct
    (space, weights, beam) searched once and every distinct (sentence,
    candidate) scored once over all stages."""
    aligned, searches, scored, tuned_spaces, pools = [], [], [], [], []
    expansions = 0
    align_all, successors = combiner.align_all, combiner._successors
    search, score, tune = tuner.beam_search, tuner.score_sentence, cli.tune_loop

    def counted_successors(*args):
        nonlocal expansions
        expansions += 1
        return successors(*args)

    def recorded_search(space, weights, lm, beam, k):
        before = expansions
        result = search(space, weights, lm, beam, k)
        key = (space.hyps, np.asarray(weights, dtype=float).tobytes(), beam)
        searches.append((key, expansions > before))
        return result

    def recorded_tune(sources, golds, spaces, *args, **kwargs):
        weights, pool = tune(sources, golds, spaces, *args, **kwargs)
        tuned_spaces.append(spaces)
        pools.append({(sources[i], golds[i], t) for i, slot in enumerate(pool.sentences) for t in slot})
        return weights, pool

    monkeypatch.setattr(combiner, "align_all", lambda hyps: aligned.append(hyps) or align_all(hyps))
    monkeypatch.setattr(combiner, "_successors", counted_successors)
    monkeypatch.setattr(tuner, "beam_search", recorded_search)
    monkeypatch.setattr(tuner, "score_sentence", lambda s, t, g: scored.append((s, g, t)) or score(s, t, g))
    monkeypatch.setattr(cli, "tune_loop", recorded_tune)
    assert run(workdir, ["stages"], *REUSE) == 0

    assert len(tuned_spaces) == 5
    hyp_tuples = {space.hyps for spaces in tuned_spaces for space in spaces}
    assert len(aligned) == len(hyp_tuples) < sum(map(len, tuned_spaces))
    assert set(aligned) == hyp_tuples
    keys = {key for key, _ in searches}
    expanded = [key for key, grew in searches if grew]
    assert len(expanded) == len(keys) < len(searches)
    candidates = set().union(*pools)
    assert len(scored) == len(candidates) < sum(map(len, pools))
    assert set(scored) == candidates


def test_stages_artifacts_do_not_depend_on_the_search_memo(pipeline, tmp_path, monkeypatch, capsys):
    root, _, _ = pipeline
    search = tuner.beam_search
    results = []
    for memo in (True, False):
        if not memo:  # every search on a fresh copy of its space, whose memo is empty
            monkeypatch.setattr(
                tuner, "beam_search",
                lambda space, *args, **kwargs: search(
                    cli.SearchSpace(space.hyps, space.groups), *args, **kwargs
                ),
            )
        copy = tmp_path / f"memo{memo}"
        shutil.copytree(root, copy)
        capsys.readouterr()
        assert run(copy, ["stages"], *REUSE) == 0
        results.append((capsys.readouterr().out, tree_bytes(copy)))
    assert results[0] == results[1]


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


def test_tune_and_combine_do_not_depend_on_the_hash_seed(workdir, tmp_path):
    # the lattice search and the tuner keep tables keyed by strings, token
    # tuples and packed bit masks; no output may follow the per-process
    # string hash seed
    refs = [line.split() for line in (workdir / "run/data/dev.ref").read_text().splitlines()]
    # two damaged copies of the references and the references; an LM trained
    # on the first copy prefers it, so tuning has weights to move
    systems = [[r[:1] + r[2:] for r in refs], [r[:2] + r[1:] for r in refs], refs]
    names = []
    for m, lines in enumerate(systems):
        names.append(f"run/system{m}.hyp")
        (workdir / names[-1]).write_text("".join(" ".join(t) + "\n" for t in lines))
    hyps = ",".join(names)
    lm = ("--set", f"lm.corpus={names[0]}")
    src = str(Path(cli.__file__).resolve().parents[1])
    results = []
    for seed in ("1", "2"):
        copy = tmp_path / f"hashseed{seed}"
        shutil.copytree(workdir, copy)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for command in (
            ["tune", "--set", f"tune.hyps={hyps}", "--set", "tune.rounds=3",
             "--set", "tune.iters=3", *lm],
            ["combine", "--set", f"combine.hyps={hyps}", *lm],
        ):
            subprocess.run(
                [sys.executable, "-m", "corrfuse.cli", *command[:1], *TINY, *command[1:]],
                cwd=copy, env=env, check=True, capture_output=True, timeout=120,
            )
        out = copy / "run" / "out"
        results.append(((out / "combine.weights").read_bytes(), (out / "combined.hyp").read_bytes()))
    assert results[0] == results[1]
    schema = cli.FeatureSchema(len(systems))
    tuned = cli.load_weights(str(copy / "run/out/combine.weights"), schema)
    assert not np.array_equal(tuned, schema.default_weights())


@pytest.mark.parametrize("command", [["eval", "--set", "eval.hyp=run/out/combined.hyp"], ["stages"]])
def test_source_line_unlike_its_m2_line_names_both_files(workdir, capsys, command):
    _prepend_bom(workdir / "run/data/dev.src")
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
