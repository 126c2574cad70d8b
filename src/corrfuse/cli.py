"""Command-line orchestration: gen, train, ddt, stages, combine, tune, eval,
diversity.  Every command is deterministic given its config, writes its
artifacts as plain text, prints a key=value summary, and appends the same
summary (with the config hash) to <data.dir>/report.txt.

Exit codes: 0 success; 2 usage error (bad flags, unknown keys, out-of-range
values); 3 data error (missing, misaligned or malformed input files,
hypothesis lines too long to align, reserved tokens in the training text);
4 numeric failure (non-finite parameters).  The library's errors for bad
values and malformed files are mapped to these here.
Combination runs in one process, so ``--jobs`` accepts only 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from .alignment import MAX_TOKENS
from .combiner import (
    FeatureSchema,
    NGramLM,
    SearchSpace,
    beam_search,  # noqa: F401  (unused here; bench/tests checks cli's traced binding)
    build_spaces,
    load_weights,
    save_weights,
    train_lm,
)
from .config import ExperimentConfig
from .ddt import DdtConfig, mean_pairwise_diversity, round_robin, train_stage
from .errors import DataError, NumericError, UsageError
from .evaluation import (
    GoldAnnotation,
    ScoreStats,
    compare_outputs,
    diversity,
    format_m2,
    parse_m2,
    score_corpus,
    sign_test_bootstrap,
)
from .policy import (
    PolicyModel,
    Vocabulary,
    greedy_decode,
    load_model,
    load_vocab,
    mle_step_stack,
    save_model,
    save_vocab,
    stack_params,
)
from .rewards import RewardKind
from .textcore import TokenSeq, detokenize, split_lines, tokenize
from .toydata import DEFAULT_GRAMMAR, CorruptionRule, RULE_KINDS, generate_corpus, parse_grammar
from .tuner import KBestPool, decode_corpus, tune_loop


# ---------------------------------------------------------------------------
# small I/O helpers
# ---------------------------------------------------------------------------

def _read_token_lines(path: str) -> list[TokenSeq]:
    if not os.path.exists(path):
        raise DataError(f"missing input file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    return [tokenize(line) for line in split_lines(text)]


def _read_golds(path: str) -> list[GoldAnnotation]:
    if not os.path.exists(path):
        raise DataError(f"missing gold file: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_m2(fh.read())
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _write_lines(path: str, lines: Sequence[str]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _require_alignable(paths: Sequence[str], hyp_lines: Sequence[Sequence[TokenSeq]]) -> None:
    for path, lines in zip(paths, hyp_lines):
        for number, line in enumerate(lines, 1):
            if len(line) > MAX_TOKENS:
                raise DataError(
                    f"{path}:{number}: {len(line)} tokens, alignment supports at most {MAX_TOKENS}"
                )


def _require_aligned(**named: Sequence) -> None:
    lengths = {name: len(seq) for name, seq in named.items()}
    if len(set(lengths.values())) > 1:
        detail = ", ".join(f"{name}: {n} lines" for name, n in lengths.items())
        raise DataError(f"line-count mismatch across aligned files ({detail})")


def _require_same_sources(
    src_path: str, sources: Sequence[TokenSeq], m2_path: str, golds: Sequence[GoldAnnotation]
) -> None:
    for number, (source, gold) in enumerate(zip(sources, golds), 1):
        if source != gold.source:
            raise DataError(f"{src_path}:{number}: source line differs from its S line in {m2_path}")


def _check_finite(model: PolicyModel, what: str) -> None:
    if not np.isfinite(model.params).all():
        raise NumericError(f"non-finite parameters after {what}")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _emit_summary(cfg: ExperimentConfig, command: str, summary: dict[str, object]) -> None:
    lines = [f"command={command}", f"config_sha256={cfg.sha256()}"]
    lines += [f"{key}={_fmt(value)}" for key, value in summary.items()]
    for line in lines:
        print(line)
    report = os.path.join(cfg.get_str("data.dir"), "report.txt")
    os.makedirs(os.path.dirname(report) or ".", exist_ok=True)
    with open(report, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n--\n")


def _split_paths(raw: str) -> list[str]:
    return [p.strip() for p in raw.split(",") if p.strip()]


def _positive_int(cfg: ExperimentConfig, key: str) -> int:
    value = cfg.get_int(key)
    if value < 1:
        raise UsageError(f"{key} must be >= 1, got {value}")
    return value


def _load_file(load: Callable, path: str, *args: object):
    """Call a file loader; a malformed file is a data error."""
    try:
        return load(path, *args)
    except (ValueError, KeyError) as exc:
        raise DataError(f"cannot load {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _model_paths(cfg: ExperimentConfig) -> tuple[str, list[str]]:
    model_dir = cfg.get_str("model.dir")
    vocab_path = os.path.join(model_dir, "vocab.txt")
    n = _positive_int(cfg, "train.models")
    return vocab_path, [os.path.join(model_dir, f"model_{i}.txt") for i in range(n)]


def _load_models(cfg: ExperimentConfig) -> tuple[Vocabulary, list[PolicyModel]]:
    vocab_path, model_paths = _model_paths(cfg)
    if not os.path.exists(vocab_path):
        raise DataError(f"missing vocabulary file: {vocab_path} (run the train command first)")
    vocab = _load_file(load_vocab, vocab_path)
    models = []
    for path in model_paths:
        if not os.path.exists(path):
            raise DataError(f"missing checkpoint: {path} (run the train command first)")
        models.append(_load_file(load_model, path, vocab))
    return vocab, models


def _load_dev(cfg: ExperimentConfig) -> tuple[list[TokenSeq], list[TokenSeq], list[GoldAnnotation]]:
    src_path, m2_path = cfg.get_str("data.dev_src"), cfg.get_str("data.dev_m2")
    src = _read_token_lines(src_path)
    ref = _read_token_lines(cfg.get_str("data.dev_ref"))
    golds = _read_golds(m2_path)
    _require_aligned(dev_src=src, dev_ref=ref, dev_m2=golds)
    _require_same_sources(src_path, src, m2_path, golds)
    return src, ref, golds


def _load_lm(cfg: ExperimentConfig) -> NGramLM:
    corpus_path = cfg.get_str("lm.corpus") or cfg.get_str("data.train_ref")
    corpus = _read_token_lines(corpus_path)
    if not corpus:
        raise DataError(f"empty language model corpus: {corpus_path}")
    return train_lm(corpus, _positive_int(cfg, "lm.order"))


def _ddt_config(cfg: ExperimentConfig) -> DdtConfig:
    try:
        kind = RewardKind(cfg.get_str("ddt.reward"))
    except ValueError as exc:
        raise UsageError(f"ddt.reward must be one of edit|bleu|tokendiff: {exc}") from exc
    try:
        return DdtConfig(
            alpha=cfg.get_float("ddt.alpha"),
            k_samples=cfg.get_int("ddt.k_samples"),
            reward_kind=kind,
            learning_rate=cfg.get_float("ddt.lr"),
            epochs=cfg.get_int("ddt.epochs"),
            seed=cfg.derived_seed("ddt.seed", 2),
            normalize_reward=cfg.get_bool("ddt.normalize"),
        )
    except ValueError as exc:
        raise UsageError(f"invalid ddt setting: {exc}") from exc


def _tune_settings(cfg: ExperimentConfig) -> dict[str, int]:
    """The checked beam, k-best size and MERT schedule, as ``tune_loop``
    keyword arguments."""
    settings = {
        "beam": _positive_int(cfg, "combine.beam"),
        "k": _positive_int(cfg, "combine.k"),
        "rounds": _positive_int(cfg, "tune.rounds"),
        "mert_iters": _positive_int(cfg, "tune.iters"),
        "n_random": cfg.get_int("tune.random_dirs"),
    }
    if settings["n_random"] < 0:
        raise UsageError(f"tune.random_dirs must be >= 0, got {settings['n_random']}")
    return settings


def _tune(
    settings: dict[str, int],
    outputs_per_model: Sequence[Sequence[TokenSeq]],
    sources: Sequence[TokenSeq],
    golds: Sequence[GoldAnnotation],
    lm: NGramLM,
    rng_seed: int,
    known_spaces: dict[tuple[TokenSeq, ...], SearchSpace] | None = None,
    scores: dict[tuple, ScoreStats] | None = None,
) -> tuple[list[SearchSpace], np.ndarray, KBestPool]:
    """Build the systems' search spaces and tune the combination weights on
    ``sources``/``golds`` with ``_tune_settings``.  Returns the spaces, the
    tuned weights and the k-best pool.  ``known_spaces`` and ``scores`` are
    ``build_spaces``'s and ``tune_loop``'s memos, for a caller that tunes
    several times on the same sentences."""
    spaces = build_spaces(outputs_per_model, known_spaces)
    weights, pool = tune_loop(
        sources,
        golds,
        spaces,
        lm,
        FeatureSchema(len(outputs_per_model)).default_weights(),
        rng_seed=rng_seed,
        scores=scores,
        **settings,
    )
    return spaces, weights, pool


def _score_against_dev(
    sources: Sequence[TokenSeq], golds: Sequence[GoldAnnotation], hyps: Sequence[TokenSeq]
) -> tuple[ScoreStats, list[ScoreStats]]:
    _require_aligned(sources=sources, hypotheses=hyps, golds=golds)
    return score_corpus(sources, hyps, golds)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: ExperimentConfig) -> int:
    grammar = DEFAULT_GRAMMAR
    grammar_path = cfg.get_str("gen.grammar")
    if grammar_path:
        if not os.path.exists(grammar_path):
            raise DataError(f"missing grammar file: {grammar_path}")
        with open(grammar_path, encoding="utf-8") as fh:
            try:
                grammar = parse_grammar(fh.read())
            except ValueError as exc:
                raise DataError(f"{grammar_path}: {exc}") from exc
    try:
        rules = tuple(CorruptionRule(kind, cfg.get_float("gen.rule_prob")) for kind in RULE_KINDS)
    except ValueError as exc:
        raise UsageError(f"gen.rule_prob: {exc}") from exc
    seed = cfg.get_int("seed")
    oversample = _positive_int(cfg, "gen.oversample")
    # all splits draw reference sentences from one grammar stream, so dev and
    # test are freshly corrupted versions of sentences the models trained on;
    # the train split is oversampled with independent corruption passes
    grammar_seed = seed * 8
    summary: dict[str, object] = {}
    for split_idx, split in enumerate(("train", "dev", "test")):
        n = _positive_int(cfg, f"gen.{split}")
        passes = oversample if split == "train" else 1
        examples = []
        for corruption_pass in range(passes):
            examples += generate_corpus(
                grammar_seed=grammar_seed,
                n_sentences=n,
                rules=rules,
                rng_seed=seed * 100 + split_idx * 50 + corruption_pass,
                grammar=grammar,
            )
        src_path = cfg.get_str(f"data.{split}_src")
        ref_path = cfg.get_str(f"data.{split}_ref")
        m2_path = cfg.get_str(f"data.{split}_m2")
        _write_lines(src_path, [detokenize(e.source) for e in examples])
        _write_lines(ref_path, [detokenize(e.reference) for e in examples])
        annotations = [GoldAnnotation(e.source, (e.gold_edits,)) for e in examples]
        os.makedirs(os.path.dirname(m2_path) or ".", exist_ok=True)
        with open(m2_path, "w", encoding="utf-8") as fh:
            fh.write(format_m2(annotations))
        summary[f"n_{split}"] = len(examples)
        summary[f"{split}_src"] = src_path
    summary["vocab_size"] = len(grammar.vocabulary())
    _emit_summary(cfg, "gen", summary)
    return 0


def _train_models(
    cfg: ExperimentConfig, vocab: Vocabulary, pairs: list[tuple[TokenSeq, TokenSeq]]
) -> tuple[list[PolicyModel], list[float]]:
    """Train the ``train.models`` component models in lockstep and return
    them with each one's mean NLL over its last epoch.

    Model i has its own initial parameters and its own generator for the
    order of the pairs in each epoch, as if trained alone.  The models'
    parameters are the rows of one array, and each minibatch step advances
    every model on its own minibatch in one stacked forward and backward
    pass (``mle_step_stack``), with the numbers of separate steps.
    """
    seed = cfg.get_int("seed")
    n_models = _positive_int(cfg, "train.models")
    models = [
        PolicyModel(
            vocab,
            embed_width=_positive_int(cfg, "policy.embed"),
            hidden_width=_positive_int(cfg, "policy.hidden"),
            max_len=cfg.get_int("policy.max_len"),
            init_seed=seed * 1000 + 100 + i,
        )
        for i in range(n_models)
    ]
    stack = stack_params(models)
    rngs = [np.random.default_rng((seed, 200 + i)) for i in range(n_models)]
    batch_size = _positive_int(cfg, "train.batch")
    epochs = _positive_int(cfg, "train.epochs")
    lr = cfg.get_float("train.lr")
    encoded = [(vocab.encode(x), vocab.encode(y)) for x, y in pairs]
    last_nll: list[float] = []
    for _ in range(epochs):
        orders = [rng.permutation(len(pairs)) for rng in rngs]
        nll_sums = [0.0] * n_models
        n_batches = 0
        for start in range(0, len(pairs), batch_size):
            batches = [[encoded[i] for i in order[start : start + batch_size]] for order in orders]
            nlls = mle_step_stack(models[0], stack, batches, lr)
            nll_sums = [total + nll for total, nll in zip(nll_sums, nlls)]
            n_batches += 1
        last_nll = [total / n_batches for total in nll_sums]
        for i, model in enumerate(models):
            _check_finite(model, f"individual training of model {i}")
    return models, last_nll


def cmd_train(cfg: ExperimentConfig) -> int:
    """Build the vocabulary from the training pairs that fit
    ``policy.max_len``, train the models in lockstep (``_train_models``),
    then write the vocabulary and every checkpoint, and score each model's
    greedy dev output.  Nothing is written until every model has trained
    and is finite, so a failed run leaves ``model.dir`` as it was."""
    train_src = _read_token_lines(cfg.get_str("data.train_src"))
    train_ref = _read_token_lines(cfg.get_str("data.train_ref"))
    _require_aligned(train_src=train_src, train_ref=train_ref)
    if not train_src:
        raise DataError(f"empty training data: {cfg.get_str('data.train_src')}")
    max_len = _positive_int(cfg, "policy.max_len")
    lr = cfg.get_float("train.lr")
    if not (math.isfinite(lr) and lr > 0):
        raise UsageError(f"train.lr must be finite and > 0, got {lr}")
    pairs = [(x, y) for x, y in zip(train_src, train_ref) if len(y) <= max_len]
    if not pairs:
        raise DataError("no training pair fits within policy.max_len")
    try:
        vocab = Vocabulary.build(tok for x, y in pairs for tok in x + y)
    except ValueError as exc:
        raise DataError(f"training text: {exc}") from exc
    vocab_path, model_paths = _model_paths(cfg)
    dev_src, _, dev_golds = _load_dev(cfg)
    models, nlls = _train_models(cfg, vocab, pairs)

    os.makedirs(os.path.dirname(vocab_path) or ".", exist_ok=True)
    save_vocab(vocab, vocab_path)
    for model, path in zip(models, model_paths):
        save_model(model, path)
    summary: dict[str, object] = {"vocab_size": len(vocab), "n_pairs": len(pairs)}
    for i, (model, nll) in enumerate(zip(models, nlls)):
        outputs = [greedy_decode(model, x) for x in dev_src]
        stats, _ = _score_against_dev(dev_src, dev_golds, outputs)
        summary[f"model_{i}_nll"] = nll
        summary[f"model_{i}_dev_f05"] = stats.f_beta(0.5)
    _emit_summary(cfg, "train", summary)
    return 0


def cmd_ddt(cfg: ExperimentConfig) -> int:
    vocab, models = _load_models(cfg)
    dev_src, dev_ref, dev_golds = _load_dev(cfg)
    backbone_idx = cfg.get_int("ddt.backbone")
    if not 0 <= backbone_idx < len(models):
        raise UsageError(f"ddt.backbone must be in [0,{len(models) - 1}], got {backbone_idx}")
    ddt_cfg = _ddt_config(cfg)
    peer_files = _split_paths(cfg.get_str("ddt.peers"))
    if peer_files:
        peer_outputs = [_read_token_lines(p) for p in peer_files]
        for path, lines in zip(peer_files, peer_outputs):
            if len(lines) != len(dev_src):
                raise DataError(
                    f"peer file {path} has {len(lines)} lines, expected {len(dev_src)}"
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
    mle_loss, mean_reward = train_stage(
        backbone,
        [(dev_src[i], dev_ref[i]) for i in kept],
        [[p[i] for p in peer_outputs] for i in kept],
        ddt_cfg,
        np.random.default_rng((ddt_cfg.seed, 0)),
    )
    _check_finite(backbone, "diversity-driven training")

    out_path = cfg.get_str("ddt.out") or os.path.join(
        cfg.get_str("model.dir"), f"model_{backbone_idx}_ddt.txt"
    )
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    save_model(backbone, out_path)
    outputs = [greedy_decode(backbone, x) for x in dev_src]
    stats, _ = _score_against_dev(dev_src, dev_golds, outputs)
    div = mean_pairwise_diversity([outputs] + [list(p) for p in peer_outputs])
    _emit_summary(
        cfg,
        "ddt",
        {
            "backbone": backbone_idx,
            "reward": cfg.get_str("ddt.reward"),
            "alpha": ddt_cfg.alpha,
            "steps": ddt_cfg.epochs * len(kept),
            "mle_loss": mle_loss,
            "mean_reward": mean_reward,
            "dev_f05": stats.f_beta(0.5),
            "diversity": div,
            "checkpoint": out_path,
        },
    )
    return 0


def cmd_stages(cfg: ExperimentConfig) -> int:
    vocab, models = _load_models(cfg)
    dev_src, dev_ref, dev_golds = _load_dev(cfg)
    lm = _load_lm(cfg)
    stages = cfg.get_int("ddt.stages")
    ddt_cfg = _ddt_config(cfg)
    if stages < 0:
        raise UsageError(f"ddt.stages must be >= 0, got {stages}")
    if len(models) < 2:
        raise UsageError(f"stages needs train.models >= 2, got {len(models)}")
    decode_limit = max(m.max_len for m in models)
    if decode_limit > MAX_TOKENS:
        raise UsageError(
            f"stages aligns model outputs, so policy.max_len must be <= {MAX_TOKENS},"
            f" got {decode_limit}"
        )
    if not dev_src:
        raise DataError(f"empty dev data: {cfg.get_str('data.dev_src')}")
    shortest_limit = min(m.max_len for m in models)
    if any(len(y) > shortest_limit for y in dev_ref):
        raise DataError(
            f"dev references longer than the shortest model decode limit ({shortest_limit});"
            " regenerate or raise policy.max_len"
        )
    # a bad setting must fail before the DDT stages train, not after
    settings = _tune_settings(cfg)
    tune_base = cfg.derived_seed("tune.seed", 3)
    resamples = _positive_int(cfg, "eval.resamples")
    eval_seed = cfg.derived_seed("eval.seed", 4)
    _, reports = round_robin(
        models,
        list(zip(dev_src, dev_ref)),
        ddt_cfg,
        stages,
        lambda model, stage: _check_finite(model, f"diversity-driven training stage {stage}"),
    )

    out_dir = os.path.join(cfg.get_str("data.dir"), "out")
    schema = FeatureSchema(len(models))
    summary: dict[str, object] = {"stages": stages, "models": len(models)}
    stage_f05: list[float] = []
    per_sentence_by_stage: list[list[ScoreStats]] = []
    # a model's outputs stay the same across the stages that do not train it,
    # so its scores, most search spaces (one per hypothesis tuple, each with
    # its memo of k-best searches) and most candidate scores recur
    component_f05: dict[tuple[TokenSeq, ...], float] = {}
    known_spaces: dict[tuple[TokenSeq, ...], SearchSpace] = {}
    scores: dict[tuple, ScoreStats] = {}
    for report in reports:
        outputs_per_model = [list(o) for o in report.outputs]
        for m, outputs in enumerate(outputs_per_model):
            _write_lines(
                os.path.join(out_dir, f"stage{report.stage}.sys{m}.hyp"),
                [detokenize(o) for o in outputs],
            )
        spaces, weights, _ = _tune(
            settings, outputs_per_model, dev_src, dev_golds, lm, tune_base + report.stage,
            known_spaces, scores,
        )
        combined = decode_corpus(spaces, weights, lm, settings["beam"])
        stats, per_sentence = _score_against_dev(dev_src, dev_golds, combined)
        _write_lines(
            os.path.join(out_dir, f"stage{report.stage}.combined.hyp"),
            [detokenize(o) for o in combined],
        )
        save_weights(schema, weights, os.path.join(out_dir, f"stage{report.stage}.weights"))
        stage_f05.append(stats.f_beta(0.5))
        per_sentence_by_stage.append(per_sentence)
        summary[f"stage{report.stage}_diversity"] = report.diversity
        summary[f"stage{report.stage}_combined_f05"] = stats.f_beta(0.5)
        for m, outputs in enumerate(report.outputs):
            if outputs not in component_f05:
                comp_stats, _ = _score_against_dev(dev_src, dev_golds, outputs)
                component_f05[outputs] = comp_stats.f_beta(0.5)
            summary[f"stage{report.stage}_component{m}_f05"] = component_f05[outputs]
    best_stage = max(range(len(stage_f05)), key=lambda i: (stage_f05[i], -i))
    summary["best_stage"] = best_stage
    summary["best_combined_f05"] = stage_f05[best_stage]
    if best_stage != 0:
        outcomes = compare_outputs(per_sentence_by_stage[best_stage], per_sentence_by_stage[0])
        summary["p_best_vs_stage0"] = sign_test_bootstrap(outcomes, resamples, eval_seed)
    _emit_summary(cfg, "stages", summary)
    return 0


def cmd_combine(cfg: ExperimentConfig) -> int:
    hyp_paths = _split_paths(cfg.get_str("combine.hyps"))
    if len(hyp_paths) < 2:
        raise UsageError("combine.hyps must list at least two comma-separated hypothesis files")
    hyp_lines = [_read_token_lines(p) for p in hyp_paths]
    _require_aligned(**{f"hyp_{i}": lines for i, lines in enumerate(hyp_lines)})
    n = len(hyp_lines[0])
    if n == 0:
        raise DataError(f"empty hypothesis file: {hyp_paths[0]}")
    lm = _load_lm(cfg)
    _require_alignable(hyp_paths, hyp_lines)
    schema = FeatureSchema(len(hyp_lines))
    weights_path = cfg.get_str("combine.weights")
    if os.path.exists(weights_path):
        weights = _load_file(load_weights, weights_path, schema)
    else:
        weights = schema.default_weights()
    beam = _positive_int(cfg, "combine.beam")
    combined = decode_corpus(build_spaces(hyp_lines), weights, lm, beam)
    out_path = cfg.get_str("combine.out")
    _write_lines(out_path, [detokenize(o) for o in combined])
    _emit_summary(
        cfg, "combine", {"systems": len(hyp_lines), "sentences": n, "out": out_path}
    )
    return 0


def cmd_tune(cfg: ExperimentConfig) -> int:
    hyp_paths = _split_paths(cfg.get_str("tune.hyps") or cfg.get_str("combine.hyps"))
    if len(hyp_paths) < 2:
        raise UsageError("tune.hyps must list at least two comma-separated hypothesis files")
    hyp_lines = [_read_token_lines(p) for p in hyp_paths]
    _require_alignable(hyp_paths, hyp_lines)
    dev_src, _, dev_golds = _load_dev(cfg)
    _require_aligned(
        dev_src=dev_src, **{f"hyp_{i}": lines for i, lines in enumerate(hyp_lines)}
    )
    lm = _load_lm(cfg)
    _, weights, pool = _tune(
        _tune_settings(cfg), hyp_lines, dev_src, dev_golds, lm, cfg.derived_seed("tune.seed", 3)
    )
    out_path = cfg.get_str("tune.out")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    save_weights(FeatureSchema(len(hyp_lines)), weights, out_path)
    _emit_summary(
        cfg, "tune",
        {
            "systems": len(hyp_lines),
            "pool_size": pool.size(),
            "pool_f05": pool.corpus_f(weights),
            "weights": out_path,
        },
    )
    return 0


def _eval_inputs(cfg: ExperimentConfig) -> tuple[list[TokenSeq], list[GoldAnnotation]]:
    split = cfg.get_str("eval.split")
    if split not in ("dev", "test"):
        raise UsageError(f"eval.split must be dev or test, got {split!r}")
    src_path, m2_path = cfg.get_str(f"data.{split}_src"), cfg.get_str(f"data.{split}_m2")
    src = _read_token_lines(src_path)
    golds = _read_golds(m2_path)
    _require_aligned(src=src, golds=golds)
    _require_same_sources(src_path, src, m2_path, golds)
    return src, golds


def cmd_eval(cfg: ExperimentConfig) -> int:
    hyp_path = cfg.get_str("eval.hyp")
    if not hyp_path:
        raise UsageError("eval.hyp must name the hypothesis file to score")
    hyps = _read_token_lines(hyp_path)
    src, golds = _eval_inputs(cfg)
    _require_aligned(src=src, hyps=hyps)
    stats, per_sentence = score_corpus(src, hyps, golds)
    summary: dict[str, object] = {
        "hyp": hyp_path,
        "split": cfg.get_str("eval.split"),
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
        _, base_per_sentence = score_corpus(src, baseline, golds)
        outcomes = compare_outputs(per_sentence, base_per_sentence)
        summary["baseline"] = baseline_path
        summary["p_value"] = sign_test_bootstrap(
            outcomes, _positive_int(cfg, "eval.resamples"), cfg.derived_seed("eval.seed", 4)
        )
    _emit_summary(cfg, "eval", summary)
    return 0


def cmd_diversity(cfg: ExperimentConfig) -> int:
    path_a, path_b = cfg.get_str("div.a"), cfg.get_str("div.b")
    if not path_a or not path_b:
        raise UsageError("div.a and div.b must name the two hypothesis files to compare")
    lines_a = _read_token_lines(path_a)
    lines_b = _read_token_lines(path_b)
    _require_aligned(a=lines_a, b=lines_b)
    if not lines_a:
        raise DataError(f"empty hypothesis file: {path_a}")
    _emit_summary(
        cfg, "diversity",
        {"a": path_a, "b": path_b, "diversity": diversity(lines_a, lines_b)},
    )
    return 0


COMMANDS: dict[str, Callable[[ExperimentConfig], int]] = {
    "gen": cmd_gen,
    "train": cmd_train,
    "ddt": cmd_ddt,
    "stages": cmd_stages,
    "combine": cmd_combine,
    "tune": cmd_tune,
    "eval": cmd_eval,
    "diversity": cmd_diversity,
}


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
            key, _, value = item.partition("=")
            overrides[key.strip()] = value
        cfg = ExperimentConfig.load(args.config, overrides=overrides)
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
