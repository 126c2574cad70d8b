"""Command-line orchestration: gen, train, ddt, stages, combine, tune, eval,
diversity.  Every command is deterministic given its config and returns
``(files, summary)``: the text of each artifact it makes, by path, and its
key=value summary; no command writes or prints.  ``main`` adds
<data.dir>/report.txt to the files, its text so far followed by the summary
block (the command, the config hash and the summary, ended by ``--``), writes
them all or none (``_write_all``), and prints the block only after that.

Exit codes: 0 success; 2 usage error (bad flags, unknown keys, a value
outside its key's legal values in ``config.KNOWN_KEYS``, which the config
checks as it loads, before any file is read or written; an unset file key,
or a setting that does not fit another key or the checkpoints); 3 data error
(missing, misaligned or malformed input files, an output path that cannot be
written, an empty dev or test split, empty hypothesis files, hypothesis lines
too long to align, reserved tokens in the training text or in the dev text
that DDT trains on); 4 numeric failure (non-finite parameters).  The
library's errors for malformed files are mapped to these here.  Every
command but those of ``TEXT_COMMANDS`` runs with numpy's floating-point
warnings off: a diverging run reports itself once, as its numeric failure,
not also as overflow warnings along the way.

``_read_text`` reads and parses every input, the ``--config`` file (whose
failures are usage errors) and the report included, and ``_write_all``
writes every artifact: they are the only file access.  Formats are pure
text functions in the library, such as ``parse_m2`` and ``format_m2``.
Splits are read by ``_load_split``, hypothesis lists by ``_read_hyps``, and
what DDT reads (the checkpoints, the dev split and ``data.dev_ref``) by
``_load_ddt_inputs``.  The experiment is ``pipeline``'s functions of data:
the commands read their inputs, call them and format what they return
(``_split_files``, ``_model_files`` and ``_stage_files``).  A command scores
a split through one ``evaluation.Scorer``, so tuning and every report share
one memo of sentence scores.  ``policy.max_len`` is checked at config load
and at checkpoint parse.  Combination runs in one process, so ``--jobs``
accepts only 1.

Importing ``cli`` loads no numpy, ``policy`` or ``toydata``: each is imported
inside the functions that use it.  So the fuse path's children compile
neither module, and the text commands (``combine``, ``eval`` and
``diversity``) load no numpy but for ``eval``'s sign test.  The other
corrfuse modules stay top-level imports, because the benchmark's tracer
imports ``cli`` and then hooks what ``sys.modules`` holds, and its tests
read ``cli.beam_search``.

``entry`` is the process entry, behind both the ``corrfuse`` script and
``python -m corrfuse.cli``.  It parses the command line, so that ``--help``
and usage errors exit before anything else loads; imports numpy unless the
command is in ``TEXT_COMMANDS``; calls ``gc.freeze()``, so that no
collection, at exit included, walks the objects of the imports (the
collector only frees unreachable cycles, so no output depends on it); and
exits with ``main()``'s code.  ``main(argv)`` parses the command line itself
and leaves the collector alone: tests and in-process runners call it many
times in one process, where a freeze would pin every object then alive.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence, TypeVar

from . import pipeline
from .alignment import MAX_TOKENS
from .combiner import FeatureSchema, NGramLM, build_spaces, format_weights, parse_weights, train_lm
from .combiner import beam_search  # noqa: F401  (bench/tests read cli's traced binding)
from .config import ExperimentConfig
from .ddt import train_stage
from .errors import DataError, NumericError, UsageError
from .evaluation import (
    GoldAnnotation, Scorer, ScoreStats, diversity, format_m2, mean_pairwise_diversity, parse_m2,
)
from .textcore import TokenSeq, detokenize, split_lines, tokenize
from .tuner import decode_corpus

if TYPE_CHECKING:
    from .policy import PolicyModel, Vocabulary
    from .toydata import CorpusExample

T = TypeVar("T")
# what a command returns: the text of each file it makes, by path, and its summary
Result = tuple[dict[str, str], dict[str, object]]


# ---------------------------------------------------------------------------
# small I/O helpers
# ---------------------------------------------------------------------------

def _read_text(path: str, parse: Callable[[str], T], error: type[Exception] = DataError) -> T:
    """Read a UTF-8 text input, less a leading byte-order mark, and parse it;
    a missing, undecodable or malformed file is an ``error``, as is one that
    cannot be read.  This is the only reader of files."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise error(f"missing input file: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return parse(text)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def _read_token_lines(path: str) -> list[TokenSeq]:
    return _read_text(path, lambda text: [tokenize(line) for line in split_lines(text)])


def _write_all(files: dict[str, str]) -> None:
    """Write every file of ``files`` (path -> text) or none, creating parent
    directories.  Each text goes to a temporary name beside its path, and
    all are renamed into place only after every write has succeeded; a path
    that is a directory fails before anything is written, a failure is a
    data error naming the path, and no temporary file is left behind."""
    for path in files:
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: Is a directory")
    created: list[str] = []
    try:
        for path, text in files.items():
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                created.append(fh.name)
                fh.write(text)
        for path in files:
            os.replace(path + ".tmp", path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        for temp in created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _lines_text(token_lines: Sequence[TokenSeq]) -> str:
    """One detokenized line per token sequence, each ended by a newline."""
    return "".join(detokenize(tokens) + "\n" for tokens in token_lines)


def _require_aligned(**named: Sequence) -> None:
    lengths = {name: len(seq) for name, seq in named.items()}
    if len(set(lengths.values())) > 1:
        detail = ", ".join(f"{name}: {n} lines" for name, n in lengths.items())
        raise DataError(f"line-count mismatch across aligned files ({detail})")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _split_paths(raw: str) -> list[str]:
    return [p.strip() for p in raw.split(",") if p.strip()]


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _model_paths(cfg: ExperimentConfig) -> tuple[str, list[str]]:
    model_dir = cfg.get_str("model.dir")
    vocab_path = os.path.join(model_dir, "vocab.txt")
    n = cfg.get_int("train.models")
    return vocab_path, [os.path.join(model_dir, f"model_{i}.txt") for i in range(n)]


def _load_models(cfg: ExperimentConfig) -> list[PolicyModel]:
    from .policy import parse_model, parse_vocab

    vocab_path, model_paths = _model_paths(cfg)
    if not os.path.exists(vocab_path):
        raise DataError(f"missing vocabulary file: {vocab_path} (run the train command first)")
    vocab = _read_text(vocab_path, parse_vocab)
    models = []
    for path in model_paths:
        if not os.path.exists(path):
            raise DataError(f"missing checkpoint: {path} (run the train command first)")
        models.append(_read_text(path, lambda text: parse_model(text, vocab)))
    return models


def _load_split(
    cfg: ExperimentConfig, split: str
) -> tuple[list[TokenSeq], list[GoldAnnotation]]:
    """The sources and gold edits of ``split`` (dev or test): non-empty, one
    M2 sentence per source line, and each source equal to its ``S`` line."""
    src_path, m2_path = cfg.get_str(f"data.{split}_src"), cfg.get_str(f"data.{split}_m2")
    sources = _read_token_lines(src_path)
    golds = _read_text(m2_path, parse_m2)
    _require_aligned(**{f"{split}_src": sources, f"{split}_m2": golds})
    if not sources:
        raise DataError(f"empty {split} data: {src_path}")
    for number, (source, gold) in enumerate(zip(sources, golds), 1):
        if source != gold.source:
            raise DataError(f"{src_path}:{number}: source line differs from its S line in {m2_path}")
    return sources, golds


def _read_hyps(key: str, raw: str) -> list[list[TokenSeq]]:
    """The hypothesis files listed in ``raw`` (the value of ``key``): at
    least two, line-aligned, non-empty, and every line short enough to
    align."""
    paths = _split_paths(raw)
    if len(paths) < 2:
        raise UsageError(f"{key} must list at least two comma-separated hypothesis files")
    hyp_lines = [_read_token_lines(p) for p in paths]
    _require_aligned(**{f"hyp_{i}": lines for i, lines in enumerate(hyp_lines)})
    if not hyp_lines[0]:
        raise DataError(f"empty hypothesis file: {paths[0]}")
    for path, lines in zip(paths, hyp_lines):
        for number, line in enumerate(lines, 1):
            if len(line) > MAX_TOKENS:
                raise DataError(
                    f"{path}:{number}: {len(line)} tokens, alignment supports at most {MAX_TOKENS}"
                )
    return hyp_lines


def _load_ddt_inputs(
    cfg: ExperimentConfig,
) -> tuple[list[PolicyModel], list[TokenSeq], list[GoldAnnotation], list[TokenSeq]]:
    """What DDT reads: the checkpoints, the dev split and its references."""
    models = _load_models(cfg)
    dev_src, dev_golds = _load_split(cfg, "dev")
    dev_ref = _read_token_lines(cfg.get_str("data.dev_ref"))
    _require_aligned(dev_src=dev_src, dev_ref=dev_ref)
    return models, dev_src, dev_golds, dev_ref


def _load_lm(cfg: ExperimentConfig) -> NGramLM:
    corpus_path = cfg.get_str("lm.corpus") or cfg.get_str("data.train_ref")
    corpus = _read_token_lines(corpus_path)
    if not corpus:
        raise DataError(f"empty language model corpus: {corpus_path}")
    return train_lm(corpus, cfg.get_int("lm.order"))


def _split_files(cfg: ExperimentConfig, split: str, examples: list[CorpusExample]) -> dict[str, str]:
    """The source, reference and M2 files of ``split``, by path."""
    golds = (GoldAnnotation(e.source, (e.gold_edits,)) for e in examples)
    return {
        cfg.get_str(f"data.{split}_src"): _lines_text([e.source for e in examples]),
        cfg.get_str(f"data.{split}_ref"): _lines_text([e.reference for e in examples]),
        cfg.get_str(f"data.{split}_m2"): format_m2(golds),
    }


def _model_files(
    cfg: ExperimentConfig, vocab: Vocabulary, models: Sequence[PolicyModel]
) -> dict[str, str]:
    """The vocabulary and every checkpoint, by path."""
    from .policy import format_model, format_vocab

    vocab_path, model_paths = _model_paths(cfg)
    files = {vocab_path: format_vocab(vocab)}
    files.update((path, format_model(model)) for model, path in zip(models, model_paths))
    return files


def _stage_files(cfg: ExperimentConfig, result: pipeline.StageResult) -> dict[str, str]:
    """A stage's outputs per model, combined outputs and weights, by path."""
    outputs = result.report.outputs
    prefix = os.path.join(cfg.get_str("data.dir"), "out", f"stage{result.report.stage}")
    files = {f"{prefix}.sys{m}.hyp": _lines_text(lines) for m, lines in enumerate(outputs)}
    files[f"{prefix}.combined.hyp"] = _lines_text(result.combined)
    files[f"{prefix}.weights"] = format_weights(FeatureSchema(len(outputs)), result.weights)
    return files


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: ExperimentConfig) -> Result:
    from .toydata import DEFAULT_GRAMMAR, parse_grammar

    grammar_path = cfg.get_str("gen.grammar")
    grammar = _read_text(grammar_path, parse_grammar) if grammar_path else DEFAULT_GRAMMAR
    files: dict[str, str] = {}
    summary: dict[str, object] = {}
    for split, examples in pipeline.make_splits(cfg, grammar).items():
        files.update(_split_files(cfg, split, examples))
        summary[f"n_{split}"] = len(examples)
        summary[f"{split}_src"] = cfg.get_str(f"data.{split}_src")
    summary["vocab_size"] = len(grammar.vocabulary())
    return files, summary


def cmd_train(cfg: ExperimentConfig) -> Result:
    """Train the models (``pipeline.train_models``) and score each one's
    greedy dev output.  The files are the vocabulary and every checkpoint."""
    from .policy import greedy_decode

    train_src = _read_token_lines(cfg.get_str("data.train_src"))
    train_ref = _read_token_lines(cfg.get_str("data.train_ref"))
    _require_aligned(train_src=train_src, train_ref=train_ref)
    if not train_src:
        raise DataError(f"empty training data: {cfg.get_str('data.train_src')}")
    pairs = list(zip(train_src, train_ref))
    dev_src, dev_golds = _load_split(cfg, "dev")
    vocab, models, nlls = pipeline.train_models(cfg, pairs)

    n_pairs = len(pipeline.fitting_pairs(cfg, pairs))
    summary: dict[str, object] = {"vocab_size": len(vocab), "n_pairs": n_pairs}
    scorer = Scorer(dev_src, dev_golds)
    for i, (model, nll) in enumerate(zip(models, nlls)):
        stats, _ = scorer.corpus([greedy_decode(model, x) for x in dev_src])
        summary[f"model_{i}_nll"] = nll
        summary[f"model_{i}_dev_f05"] = stats.f05
    return _model_files(cfg, vocab, models), summary


def cmd_ddt(cfg: ExperimentConfig) -> Result:
    from .policy import format_model, greedy_decode

    backbone_idx, n_models = cfg.get_int("ddt.backbone"), cfg.get_int("train.models")
    if backbone_idx >= n_models:
        raise UsageError(f"ddt.backbone must be in [0,{n_models - 1}], got {backbone_idx}")
    models, dev_src, dev_golds, dev_ref = _load_ddt_inputs(cfg)
    pipeline.check_references_fit([models[backbone_idx]], dev_src, dev_ref)
    ddt_cfg = pipeline.ddt_config(cfg)
    peer_files = _split_paths(cfg.get_str("ddt.peers"))
    if peer_files:
        peer_outputs = [_read_token_lines(p) for p in peer_files]
        _require_aligned(
            dev_src=dev_src, **{f"peer_{i}": lines for i, lines in enumerate(peer_outputs)}
        )
    else:
        peer_outputs = [
            [greedy_decode(m, x) for x in dev_src]
            for i, m in enumerate(models)
            if i != backbone_idx
        ]
    if not peer_outputs:
        raise DataError("no peer systems: provide ddt.peers or train more than one model")

    backbone = models[backbone_idx].copy()
    data = list(zip(dev_src, dev_ref))
    mle_loss, mean_reward = train_stage(backbone, data, peer_outputs, ddt_cfg, 0)

    out_path = cfg.get_str("ddt.out") or os.path.join(
        cfg.get_str("model.dir"), f"model_{backbone_idx}_ddt.txt"
    )
    outputs = [greedy_decode(backbone, x) for x in dev_src]
    stats, _ = Scorer(dev_src, dev_golds).corpus(outputs)
    div = mean_pairwise_diversity([outputs, *peer_outputs])
    return {out_path: format_model(backbone)}, {
        "backbone": backbone_idx,
        "reward": cfg.get_str("ddt.reward"),
        "alpha": ddt_cfg.alpha,
        "steps": ddt_cfg.epochs * len(dev_src),
        "mle_loss": mle_loss,
        "mean_reward": mean_reward,
        "dev_f05": stats.f05,
        "diversity": div,
        "checkpoint": out_path,
    }


def cmd_stages(cfg: ExperimentConfig) -> Result:
    n_models = cfg.get_int("train.models")
    if n_models < 2:
        raise UsageError(f"stages needs train.models >= 2, got {n_models}")
    models, dev_src, dev_golds, dev_ref = _load_ddt_inputs(cfg)
    lm = _load_lm(cfg)
    scorer = Scorer(dev_src, dev_golds)
    files: dict[str, str] = {}
    summary: dict[str, object] = {"stages": cfg.get_int("ddt.stages"), "models": len(models)}
    # each stage's combination, scored: (corpus statistics, per sentence)
    combined: list[tuple[ScoreStats, list[ScoreStats]]] = []
    for result in pipeline.run_stages(cfg, models, scorer, dev_ref, lm):
        stage = result.report.stage
        files.update(_stage_files(cfg, result))
        combined.append(scorer.corpus(result.combined))
        summary[f"stage{stage}_diversity"] = result.report.diversity
        summary[f"stage{stage}_combined_f05"] = combined[-1][0].f05
        for m, outputs in enumerate(result.report.outputs):
            summary[f"stage{stage}_component{m}_f05"] = scorer.corpus(outputs)[0].f05
    best = max(range(len(combined)), key=lambda i: (combined[i][0].f05, -i))
    summary["best_stage"] = best
    summary["best_combined_f05"] = combined[best][0].f05
    if best != 0:
        summary["p_best_vs_stage0"] = pipeline.p_value(cfg, combined[best][1], combined[0][1])
    return files, summary


def cmd_combine(cfg: ExperimentConfig) -> Result:
    hyp_lines = _read_hyps("combine.hyps", cfg.get_str("combine.hyps"))
    lm = _load_lm(cfg)
    schema = FeatureSchema(len(hyp_lines))
    weights_path = cfg.get_str("combine.weights")
    if os.path.exists(weights_path):
        weights = _read_text(weights_path, lambda text: parse_weights(text, schema))
    else:
        weights = schema.default_weights()
    beam = cfg.get_int("combine.beam")
    combined = decode_corpus(build_spaces(hyp_lines), weights, lm, beam)
    out_path = cfg.get_str("combine.out")
    return {out_path: _lines_text(combined)}, {
        "systems": len(hyp_lines), "sentences": len(hyp_lines[0]), "out": out_path,
    }


def cmd_tune(cfg: ExperimentConfig) -> Result:
    hyp_lines = _read_hyps("tune.hyps", cfg.get_str("tune.hyps") or cfg.get_str("combine.hyps"))
    dev_src, dev_golds = _load_split(cfg, "dev")
    _require_aligned(
        dev_src=dev_src, **{f"hyp_{i}": lines for i, lines in enumerate(hyp_lines)}
    )
    lm = _load_lm(cfg)
    _, weights, pool = pipeline.tune(cfg, hyp_lines, Scorer(dev_src, dev_golds), lm)
    out_path = cfg.get_str("tune.out")
    return {out_path: format_weights(FeatureSchema(len(hyp_lines)), weights)}, {
        "systems": len(hyp_lines),
        "pool_size": pool.size(),
        "pool_f05": pool.corpus_f(weights),
        "weights": out_path,
    }


def cmd_eval(cfg: ExperimentConfig) -> Result:
    hyp_path = cfg.get_str("eval.hyp")
    if not hyp_path:
        raise UsageError("eval.hyp must name the hypothesis file to score")
    hyps = _read_token_lines(hyp_path)
    split = cfg.get_str("eval.split")
    src, golds = _load_split(cfg, split)
    _require_aligned(src=src, hyps=hyps)
    scorer = Scorer(src, golds)
    stats, per_sentence = scorer.corpus(hyps)
    summary: dict[str, object] = {
        "hyp": hyp_path,
        "split": split,
        "tp": stats.tp,
        "fp": stats.fp,
        "fn": stats.fn,
        "precision": stats.precision,
        "recall": stats.recall,
        "f05": stats.f05,
    }
    baseline_path = cfg.get_str("eval.baseline")
    if baseline_path:
        baseline = _read_token_lines(baseline_path)
        _require_aligned(src=src, baseline=baseline)
        summary["baseline"] = baseline_path
        summary["p_value"] = pipeline.p_value(cfg, per_sentence, scorer.corpus(baseline)[1])
    return {}, summary


def cmd_diversity(cfg: ExperimentConfig) -> Result:
    path_a, path_b = cfg.get_str("div.a"), cfg.get_str("div.b")
    if not path_a or not path_b:
        raise UsageError("div.a and div.b must name the two hypothesis files to compare")
    lines_a = _read_token_lines(path_a)
    lines_b = _read_token_lines(path_b)
    _require_aligned(a=lines_a, b=lines_b)
    if not lines_a:
        raise DataError(f"empty hypothesis file: {path_a}")
    return {}, {"a": path_a, "b": path_b, "diversity": diversity(lines_a, lines_b)}


COMMANDS: dict[str, Callable[[ExperimentConfig], Result]] = {
    "gen": cmd_gen,
    "train": cmd_train,
    "ddt": cmd_ddt,
    "stages": cmd_stages,
    "combine": cmd_combine,
    "tune": cmd_tune,
    "eval": cmd_eval,
    "diversity": cmd_diversity,
}
# the commands that run without numpy: main leaves its warnings alone for
# them, and entry does not import it before the freeze
TEXT_COMMANDS = frozenset({"combine", "eval", "diversity"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrfuse",
        description="Train diverse text-correction systems and fuse their outputs.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="path to a key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument(
        "--jobs", type=int, choices=[1], default=1,
        help="worker processes; combination runs in one process, so only 1 is accepted",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides: dict[str, object] = {"seed": args.seed}
        for item in args.set:
            if "=" not in item:
                raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
            try:
                item.encode("utf-8")
            except UnicodeEncodeError:
                raise UsageError(f"--set {item!r} is not valid UTF-8") from None
            key, _, value = item.partition("=")
            overrides[key.strip()] = value
        text = _read_text(args.config, str, UsageError) if args.config else None
        cfg = ExperimentConfig.load(text, overrides, args.config or "config")
        quiet: contextlib.AbstractContextManager = contextlib.nullcontext()
        if args.command not in TEXT_COMMANDS:
            import numpy as np

            quiet = np.errstate(all="ignore")
        with quiet:
            files, summary = COMMANDS[args.command](cfg)
        block = f"command={args.command}\nconfig_sha256={cfg.sha256()}\n"
        block += "".join(f"{key}={_fmt(value)}\n" for key, value in summary.items())
        report = os.path.join(cfg.get_str("data.dir"), "report.txt")
        if any(os.path.normpath(path) == os.path.normpath(report) for path in files):
            raise UsageError(f"{args.command} cannot write its output to the report {report}")
        old_report = _read_text(report, str) if os.path.exists(report) else ""
        _write_all({**files, report: old_report + block + "--\n"})
        print(block, end="")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


def entry() -> NoReturn:
    """Load numpy unless the command is a text command, freeze, run ``main``."""
    if build_parser().parse_args().command not in TEXT_COMMANDS:
        import numpy  # noqa: F401  (before the freeze, so that its objects are frozen)
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
