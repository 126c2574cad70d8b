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
too long to align, reserved tokens in the training text); 4 numeric failure
(non-finite parameters).  The library's errors for malformed files are
mapped to these here.  Every command but those of ``TEXT_COMMANDS`` runs
with numpy's floating-point warnings off: a diverging run reports itself
once, as its numeric failure, not also as overflow warnings along the way.
The text commands, ``combine``, ``eval`` and ``diversity``, make no float
array, so they run without numpy; only ``eval``'s sign test, with
``eval.baseline`` set, loads it, for its generator.

``_read_text`` reads and parses every input, the ``--config`` file (whose
failures are usage errors) and the report included, and ``_write_all``
writes every artifact, the report included: they are the only file access.
The formats are pure text functions in the library, such as
``parse_m2`` and ``format_m2``.  Every split is read by ``_load_split`` (its
sources and M2 gold edits) and every hypothesis list of ``combine`` and
``tune`` by ``_read_hyps``.  ``ddt`` and ``stages`` read the checkpoints,
the dev split and ``data.dev_ref``, the references that DDT trains on,
through ``_load_ddt_inputs``.  Combination runs in one process, so
``--jobs`` accepts only 1.

A command scores a split through one ``evaluation.Scorer``, so tuning and
every report share one memo of sentence scores.  ``run_stages`` is the
in-process entry for study scripts: it yields one ``StageResult`` per DDT
stage, tuned through the scorer it is given, and ``cmd_stages`` reports from
that scorer, picks the best and formats.  A DDT stage, its random stream and
its divergence check included, is one ``ddt.train_stage`` call, keyed by the
stage (0 for ``ddt``).  Every random stream's seed comes from
``config.stream_seed`` by purpose and key: DDT's in ``_ddt_config``, the
stage's MERT streams in ``_tune``, the significance test's in ``_p_value``.
The decode limit ``policy.max_len`` is checked where it enters: at config load
and at checkpoint parse (``policy.parse_model``).

Importing ``cli`` loads every corrfuse module but two, and no numpy.
``policy`` is imported inside the functions of ``train``, ``ddt`` and
``stages`` that use it, and ``toydata`` inside ``gen``.  numpy is imported
inside the functions that make arrays, here and in ``config``,
``evaluation``, ``ddt`` and ``tuner``; ``combiner`` does not use it.  So the
children of ``tune``, ``combine``, ``eval`` and ``diversity``, most of the
fuse path's start-up, compile neither ``policy`` nor ``toydata``, and those
of the text commands load no numpy, whose import was about a third of such
a child's CPU time.  The corrfuse modules stay top-level imports: the
benchmark's tracer imports ``cli`` and then reads every module it hooks
from ``sys.modules``, and its tests read ``cli.beam_search``.  The benchmark
imports ``policy`` and ``toydata`` itself before it installs the tracer.

``entry`` is the process entry, behind both the ``corrfuse`` script and
``python -m corrfuse.cli``.  It parses the command line, so that ``--help``
and usage errors exit before anything else loads; imports numpy unless the
command is in ``TEXT_COMMANDS``; calls ``gc.freeze()`` once; and then exits
with ``main()``'s return code (``main`` parses the command line again, as
it does for in-process callers).  The freeze moves the container objects
that the imports made into the permanent generation, which no collection
examines again: neither the full collections during a run nor those at
interpreter exit, and the OS takes their memory back when the process ends.
That cuts the exit of a CLI child from about 35 ms to about 7 ms.  It
freezes about 14,200 objects for a text command and about 21,900, numpy's
included, for the others; importing numpy after the freeze instead made a
``tune`` child about 10 ms slower.  A command's own import of ``policy`` or
``toydata`` comes after the freeze and adds about 260 or 270 tracked
objects, too few to lose that saving.  No output can depend on it: the
collector only frees unreachable cycles, and no command reads when or
whether it ran.
``main(argv)`` leaves the collector alone, because tests and in-process
runners call it many times in one long-lived process, where a freeze would
pin every object alive at that moment for the rest of the process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence, TypeVar

from .alignment import MAX_TOKENS
from .combiner import (
    FeatureSchema,
    NGramLM,
    SearchSpace,
    beam_search,  # noqa: F401  (unused here; bench/tests checks cli's traced binding)
    build_spaces,
    format_weights,
    parse_weights,
    train_lm,
)
from .config import ExperimentConfig, stream_seed
from .ddt import DdtConfig, StageReport, mean_pairwise_diversity, round_robin, train_stage
from .errors import DataError, NumericError, UsageError
from .evaluation import (
    GoldAnnotation,
    Scorer,
    ScoreStats,
    compare_outputs,
    diversity,
    format_m2,
    parse_m2,
    sign_test_bootstrap,
)
from .rewards import RewardKind
from .textcore import TokenSeq, detokenize, split_lines, tokenize
from .tuner import KBestPool, decode_corpus, tune_loop

if TYPE_CHECKING:
    import numpy as np

    from .policy import PolicyModel, Vocabulary

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


def _check_finite(model: PolicyModel, what: str) -> None:
    import numpy as np

    if not np.isfinite(model.params).all():
        raise NumericError(f"non-finite parameters after {what}")


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


def _ddt_config(cfg: ExperimentConfig) -> DdtConfig:
    return DdtConfig(
        alpha=cfg.get_float("ddt.alpha"),
        k_samples=cfg.get_int("ddt.k_samples"),
        reward_kind=RewardKind(cfg.get_str("ddt.reward")),
        learning_rate=cfg.get_float("ddt.lr"),
        epochs=cfg.get_int("ddt.epochs"),
        seed=stream_seed(cfg, "ddt"),
        normalize_reward=cfg.get_bool("ddt.normalize"),
    )


def _tune(
    cfg: ExperimentConfig,
    outputs_per_model: Sequence[Sequence[TokenSeq]],
    scorer: Scorer,
    lm: NGramLM,
    stage: int = 0,
    known_spaces: dict[tuple[TokenSeq, ...], SearchSpace] | None = None,
) -> tuple[list[SearchSpace], np.ndarray, KBestPool]:
    """Build the systems' search spaces and tune the combination weights on
    ``scorer``'s split with the config's beam (``combine.beam``), k-best
    size (``combine.k``) and MERT schedule (``tune.rounds``, ``tune.iters``,
    ``tune.random_dirs``), seeded with the ``tune`` stream of ``stage``.
    Returns the spaces, the tuned weights and the k-best pool.
    ``known_spaces`` is ``build_spaces``'s memo, for a caller that tunes
    several times on the same sentences."""
    spaces = build_spaces(outputs_per_model, known_spaces)
    weights, pool = tune_loop(
        scorer,
        spaces,
        lm,
        FeatureSchema(len(outputs_per_model)).default_weights(),
        beam=cfg.get_int("combine.beam"),
        k=cfg.get_int("combine.k"),
        rounds=cfg.get_int("tune.rounds"),
        mert_iters=cfg.get_int("tune.iters"),
        n_random=cfg.get_int("tune.random_dirs"),
        rng_seed=stream_seed(cfg, "tune", stage),
    )
    return spaces, weights, pool


@dataclass(frozen=True)
class StageResult:
    """One round-robin stage: its DDT report (the outputs per model, their
    diversity, ``mle_loss`` and ``mean_reward``), the weights tuned on its
    outputs, the tuner's k-best pool and the tuned combination's outputs."""

    report: StageReport
    weights: np.ndarray
    pool: KBestPool
    combined: tuple[TokenSeq, ...]


def run_stages(
    cfg: ExperimentConfig,
    models: Sequence[PolicyModel],
    scorer: Scorer,
    refs: Sequence[TokenSeq],
    lm: NGramLM,
) -> Iterator[StageResult]:
    """Run ``ddt.stages`` round-robin DDT stages on (``scorer.sources``,
    ``refs``), then tune and decode each stage's combination on ``scorer``'s
    split.  A diverged stage raises ``NumericError`` before any stage is
    tuned.  The search spaces (each with its memo of k-best searches) are
    shared by the stages, as a model's outputs recur, and so is ``scorer``."""
    _, reports = round_robin(
        models, list(zip(scorer.sources, refs)), _ddt_config(cfg), cfg.get_int("ddt.stages")
    )
    known_spaces: dict[tuple[TokenSeq, ...], SearchSpace] = {}
    for report in reports:
        spaces, weights, pool = _tune(cfg, report.outputs, scorer, lm, report.stage, known_spaces)
        combined = decode_corpus(spaces, weights, lm, cfg.get_int("combine.beam"))
        yield StageResult(report, weights, pool, tuple(combined))


def _p_value(cfg: ExperimentConfig, per_a: list[ScoreStats], per_b: list[ScoreStats]) -> float:
    """The bootstrapped sign test of A against B, seeded with the
    ``significance`` stream."""
    seed = stream_seed(cfg, "significance")
    return sign_test_bootstrap(compare_outputs(per_a, per_b), cfg.get_int("eval.resamples"), seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: ExperimentConfig) -> Result:
    from .toydata import DEFAULT_GRAMMAR, RULE_KINDS, CorruptionRule, generate_corpus, parse_grammar

    grammar_path = cfg.get_str("gen.grammar")
    grammar = _read_text(grammar_path, parse_grammar) if grammar_path else DEFAULT_GRAMMAR
    rules = tuple(CorruptionRule(kind, cfg.get_float("gen.rule_prob")) for kind in RULE_KINDS)
    oversample = cfg.get_int("gen.oversample")
    # every split draws its references from the start of the one
    # ``references`` stream, so dev and test are freshly corrupted versions of
    # sentences the models trained on; each split has its own ``corruption``
    # stream, and train corrupts its references ``gen.oversample`` times from it
    grammar_seed = stream_seed(cfg, "references")
    files: dict[str, str] = {}
    summary: dict[str, object] = {}
    for split_idx, split in enumerate(("train", "dev", "test")):
        examples = generate_corpus(
            grammar_seed=grammar_seed,
            n_sentences=cfg.get_int(f"gen.{split}"),
            rules=rules,
            rng_seed=stream_seed(cfg, "corruption", split_idx),
            grammar=grammar,
            passes=oversample if split == "train" else 1,
        )
        src_path = cfg.get_str(f"data.{split}_src")
        ref_path = cfg.get_str(f"data.{split}_ref")
        m2_path = cfg.get_str(f"data.{split}_m2")
        files[src_path] = _lines_text([e.source for e in examples])
        files[ref_path] = _lines_text([e.reference for e in examples])
        files[m2_path] = format_m2(GoldAnnotation(e.source, (e.gold_edits,)) for e in examples)
        summary[f"n_{split}"] = len(examples)
        summary[f"{split}_src"] = src_path
    summary["vocab_size"] = len(grammar.vocabulary())
    return files, summary


def _train_models(
    cfg: ExperimentConfig, vocab: Vocabulary, pairs: list[tuple[TokenSeq, TokenSeq]]
) -> tuple[list[PolicyModel], list[float]]:
    """Train the ``train.models`` component models in lockstep and return
    them with each one's mean NLL over its last epoch.

    Model i has its own initial parameters and its own generator for the
    order of the pairs in each epoch, as if trained alone.  The models'
    parameters are the rows of one array, and each minibatch step advances
    every model on its own minibatch in one stacked forward and backward
    pass (``mle_step``), with the numbers of separate steps.  The pairs are
    padded once; each epoch's minibatches are cut from them in one pass
    (``epoch_batches``).  The run makes one step workspace, sized from the
    padded pairs' widths, ``train.batch`` and ``train.models``, and every
    step writes its gradients and temporaries into it, so that no step
    allocates its arrays (see the ``policy`` module docstring).
    """
    import numpy as np

    from .policy import PolicyModel, StepWorkspace, epoch_batches, mle_step, pad_batches, stack_params

    n_models = cfg.get_int("train.models")
    models = [
        PolicyModel(
            vocab,
            embed_width=cfg.get_int("policy.embed"),
            hidden_width=cfg.get_int("policy.hidden"),
            max_len=cfg.get_int("policy.max_len"),
            init_seed=stream_seed(cfg, "init", i),
        )
        for i in range(n_models)
    ]
    rngs = [np.random.default_rng(stream_seed(cfg, "order", i)) for i in range(n_models)]
    batch_size = cfg.get_int("train.batch")
    epochs = cfg.get_int("train.epochs")
    lr = cfg.get_float("train.lr")
    padded = pad_batches(models[0], [x for x, _ in pairs], [y for _, y in pairs], True)
    ws = StepWorkspace(models[0], stack_params(models), padded, batch_size)
    last_nll: list[float] = []
    for _ in range(epochs):
        orders = np.stack([rng.permutation(len(pairs)) for rng in rngs])
        nll_sums = [0.0] * n_models
        n_batches = 0
        for batches in epoch_batches(padded, orders, batch_size):
            nlls = mle_step(ws, batches, lr)
            nll_sums = [total + nll for total, nll in zip(nll_sums, nlls)]
            n_batches += 1
        last_nll = [total / n_batches for total in nll_sums]
        for i, model in enumerate(models):
            _check_finite(model, f"individual training of model {i}")
    return models, last_nll


def cmd_train(cfg: ExperimentConfig) -> Result:
    """Build the vocabulary from the training pairs that fit
    ``policy.max_len``, train the models in lockstep (``_train_models``),
    and score each model's greedy dev output.  The files are the vocabulary
    and every checkpoint."""
    from .policy import Vocabulary, format_model, format_vocab, greedy_decode

    train_src = _read_token_lines(cfg.get_str("data.train_src"))
    train_ref = _read_token_lines(cfg.get_str("data.train_ref"))
    _require_aligned(train_src=train_src, train_ref=train_ref)
    if not train_src:
        raise DataError(f"empty training data: {cfg.get_str('data.train_src')}")
    max_len = cfg.get_int("policy.max_len")
    pairs = [(x, y) for x, y in zip(train_src, train_ref) if len(y) <= max_len]
    if not pairs:
        raise DataError("no training pair fits within policy.max_len")
    try:
        vocab = Vocabulary.build(tok for x, y in pairs for tok in x + y)
    except ValueError as exc:
        raise DataError(f"training text: {exc}") from exc
    vocab_path, model_paths = _model_paths(cfg)
    dev_src, dev_golds = _load_split(cfg, "dev")
    models, nlls = _train_models(cfg, vocab, pairs)

    files = {vocab_path: format_vocab(vocab)}
    files.update((path, format_model(model)) for model, path in zip(models, model_paths))
    summary: dict[str, object] = {"vocab_size": len(vocab), "n_pairs": len(pairs)}
    scorer = Scorer(dev_src, dev_golds)
    for i, (model, nll) in enumerate(zip(models, nlls)):
        stats, _ = scorer.corpus([greedy_decode(model, x) for x in dev_src])
        summary[f"model_{i}_nll"] = nll
        summary[f"model_{i}_dev_f05"] = stats.f_beta(0.5)
    return files, summary


def cmd_ddt(cfg: ExperimentConfig) -> Result:
    from .policy import format_model, greedy_decode

    backbone_idx, n_models = cfg.get_int("ddt.backbone"), cfg.get_int("train.models")
    if backbone_idx >= n_models:
        raise UsageError(f"ddt.backbone must be in [0,{n_models - 1}], got {backbone_idx}")
    models, dev_src, dev_golds, dev_ref = _load_ddt_inputs(cfg)
    ddt_cfg = _ddt_config(cfg)
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
    kept = [i for i, y_ref in enumerate(dev_ref) if len(y_ref) <= backbone.max_len]
    if not kept:
        raise DataError("no DDT sentence fits within the decode length limit")
    data = [(dev_src[i], dev_ref[i]) for i in kept]
    peers = [[p[i] for i in kept] for p in peer_outputs]
    mle_loss, mean_reward = train_stage(backbone, data, peers, ddt_cfg, 0)

    out_path = cfg.get_str("ddt.out") or os.path.join(
        cfg.get_str("model.dir"), f"model_{backbone_idx}_ddt.txt"
    )
    outputs = [greedy_decode(backbone, x) for x in dev_src]
    stats, _ = Scorer(dev_src, dev_golds).corpus(outputs)
    div = mean_pairwise_diversity([outputs] + [list(p) for p in peer_outputs])
    return {out_path: format_model(backbone)}, {
        "backbone": backbone_idx,
        "reward": cfg.get_str("ddt.reward"),
        "alpha": ddt_cfg.alpha,
        "steps": ddt_cfg.epochs * len(kept),
        "mle_loss": mle_loss,
        "mean_reward": mean_reward,
        "dev_f05": stats.f_beta(0.5),
        "diversity": div,
        "checkpoint": out_path,
    }


def cmd_stages(cfg: ExperimentConfig) -> Result:
    n_models = cfg.get_int("train.models")
    if n_models < 2:
        raise UsageError(f"stages needs train.models >= 2, got {n_models}")
    models, dev_src, dev_golds, dev_ref = _load_ddt_inputs(cfg)
    lm = _load_lm(cfg)
    shortest_limit = min(m.max_len for m in models)
    if any(len(y) > shortest_limit for y in dev_ref):
        raise DataError(
            f"dev references longer than the shortest model decode limit ({shortest_limit});"
            " regenerate or raise policy.max_len"
        )
    scorer = Scorer(dev_src, dev_golds)
    score = scorer.corpus
    out_dir = os.path.join(cfg.get_str("data.dir"), "out")
    schema = FeatureSchema(len(models))
    files: dict[str, str] = {}
    summary: dict[str, object] = {"stages": cfg.get_int("ddt.stages"), "models": len(models)}
    combined: list[tuple[TokenSeq, ...]] = []
    for result in run_stages(cfg, models, scorer, dev_ref, lm):
        stage, outputs_per_model = result.report.stage, result.report.outputs
        prefix = os.path.join(out_dir, f"stage{stage}")
        for m, outputs in enumerate(outputs_per_model):
            files[f"{prefix}.sys{m}.hyp"] = _lines_text(outputs)
        files[f"{prefix}.combined.hyp"] = _lines_text(result.combined)
        files[f"{prefix}.weights"] = format_weights(schema, result.weights)
        combined.append(result.combined)
        summary[f"stage{stage}_diversity"] = result.report.diversity
        summary[f"stage{stage}_combined_f05"] = score(result.combined)[0].f_beta(0.5)
        for m, outputs in enumerate(outputs_per_model):
            summary[f"stage{stage}_component{m}_f05"] = score(outputs)[0].f_beta(0.5)
    best = max(range(len(combined)), key=lambda i: (score(combined[i])[0].f_beta(0.5), -i))
    summary["best_stage"] = best
    summary["best_combined_f05"] = score(combined[best])[0].f_beta(0.5)
    if best != 0:
        summary["p_best_vs_stage0"] = _p_value(cfg, score(combined[best])[1], score(combined[0])[1])
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
    _, weights, pool = _tune(cfg, hyp_lines, Scorer(dev_src, dev_golds), lm)
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
        "f05": stats.f_beta(0.5),
    }
    baseline_path = cfg.get_str("eval.baseline")
    if baseline_path:
        baseline = _read_token_lines(baseline_path)
        _require_aligned(src=src, baseline=baseline)
        summary["baseline"] = baseline_path
        summary["p_value"] = _p_value(cfg, per_sentence, scorer.corpus(baseline)[1])
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
    """Load numpy unless the command is a text command, freeze the
    import-time heap, then exit with ``main()``'s code."""
    if build_parser().parse_args().command not in TEXT_COMMANDS:
        import numpy  # noqa: F401  (before the freeze, so that its objects are frozen)
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
