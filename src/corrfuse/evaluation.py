"""Span-based precision/recall/F-beta scoring, BLEU, diversity, significance.

Scoring is untyped exact-span matching: a hypothesis edit counts as a true
positive iff the identical (span, replacement) pair appears in the chosen
annotator's gold set.  Corpus scores are computed from summed per-sentence
sufficient statistics, never from averaged sentence scores.

Every score of a split goes through one ``Scorer``: tuning's candidates and
every reported output alike, so a (sentence, hypothesis) pair that recurs is
scored once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .textcore import Edit, EditScript, TokenSeq, edit_script, ngram_counts, split_lines, tokenize


@dataclass(frozen=True)
class ScoreStats:
    """TP/FP/FN sufficient statistics; aggregation is componentwise addition."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValueError("score statistics must be non-negative")

    def __add__(self, other: "ScoreStats") -> "ScoreStats":
        return ScoreStats(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    def f_beta(self, beta: float = 0.5) -> float:
        return f_beta(self.tp, self.fp, self.fn, beta)


def f_beta(tp: int, fp: int, fn: int, beta: float = 0.5) -> float:
    """F-measure from counts.

    Convention for degenerate inputs: a hypothesis that proposes no edits
    when the gold has none is a perfect no-op (score 1.0); any other case
    with zero precision or recall scores 0.0.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if tp + fp == 0 and tp + fn == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return f_beta_pr(p, r, beta)


def f_beta_pr(precision: float, recall: float, beta: float = 0.5) -> float:
    """F-measure from precision and recall (any common scale, e.g. percent)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if precision <= 0.0 or recall <= 0.0:
        return 0.0
    b2 = beta * beta
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


@dataclass(frozen=True)
class GoldAnnotation:
    """Gold edits for one source sentence, one edit tuple per annotator."""

    source: TokenSeq
    annotators: tuple[EditScript, ...]

    def __post_init__(self) -> None:
        if not self.annotators:
            raise ValueError("at least one annotator required")
        for edits in self.annotators:
            prev: Edit | None = None
            for e in edits:
                if e.end > len(self.source):
                    raise ValueError(
                        f"gold edit [{e.start},{e.end}) outside sentence of length {len(self.source)}"
                    )
                if prev is not None and (e.start < prev.end or (e.start, e.end) <= (prev.start, prev.end)):
                    raise ValueError("gold edits must be sorted and non-overlapping")
                prev = e


def score_sentence(source: TokenSeq, hyp: TokenSeq, gold: GoldAnnotation) -> ScoreStats:
    """Score one hypothesis against gold edits.

    Hypothesis edits are extracted with the canonical edit_script; with
    multiple annotators the one maximizing sentence F0.5 wins (ties to the
    lowest annotator index).
    """
    if gold.source != source:
        raise ValueError("gold annotation does not match the source sentence")
    hyp_edits = set(edit_script(source, hyp))
    best: ScoreStats | None = None
    best_f = -1.0
    for edits in gold.annotators:
        gold_edits = set(edits)
        tp = len(hyp_edits & gold_edits)
        stats = ScoreStats(tp, len(hyp_edits) - tp, len(gold_edits) - tp)
        f = stats.f_beta(0.5)
        if f > best_f:
            best, best_f = stats, f
    assert best is not None
    return best


class Scorer:
    """``score_sentence`` on one split, memoized by (sentence index,
    hypothesis).  ``score_sentence`` is looked up as a module global at each
    call, not bound here.
    """

    def __init__(self, sources: Sequence[TokenSeq], golds: Sequence[GoldAnnotation]) -> None:
        if len(sources) != len(golds):
            raise ValueError("sources and golds must be line-aligned")
        self.sources = tuple(sources)
        self.golds = tuple(golds)
        self._memo: dict[tuple[int, TokenSeq], ScoreStats] = {}

    def sentence(self, i: int, hyp: TokenSeq) -> ScoreStats:
        """The statistics of ``hyp`` as the output for sentence ``i``."""
        key = (i, hyp)
        stats = self._memo.get(key)
        if stats is None:
            stats = self._memo[key] = score_sentence(self.sources[i], hyp, self.golds[i])
        return stats

    def corpus(self, hyps: Sequence[TokenSeq]) -> tuple[ScoreStats, list[ScoreStats]]:
        """Per-sentence statistics of line-aligned ``hyps`` and their sum."""
        if len(hyps) != len(self.sources):
            raise ValueError("hypotheses and sources must be line-aligned")
        per_sentence = [self.sentence(i, hyp) for i, hyp in enumerate(hyps)]
        return sum(per_sentence, ScoreStats()), per_sentence


BLEU_ORDER = 4


def bleu(hyp: TokenSeq, ref: TokenSeq) -> float:
    """Sentence BLEU-4 with add-one smoothing on the n >= 2 precisions.

    Smoothing adds one to both the clipped-match numerator and the total
    count denominator, so bleu(x, x) is exactly 1.  Brevity penalty is
    min(1, exp(1 - |ref|/|hyp|)); an empty hypothesis scores 0.
    """
    if not hyp:
        return 0.0
    log_p_sum = 0.0
    for n in range(1, BLEU_ORDER + 1):
        hyp_counts = ngram_counts(hyp, n)
        ref_counts = ngram_counts(ref, n)
        total = sum(hyp_counts.values())
        clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        if n == 1:
            if clipped == 0:
                return 0.0
            p = clipped / total
        else:
            p = (clipped + 1) / (total + 1)
        log_p_sum += math.log(p)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
    return bp * math.exp(log_p_sum / BLEU_ORDER)


def diversity(outputs_a: Sequence[TokenSeq], outputs_b: Sequence[TokenSeq]) -> float:
    """One minus the mean symmetrized sentence BLEU between two output lists."""
    if len(outputs_a) != len(outputs_b):
        raise ValueError("output lists must have equal length")
    if not outputs_a:
        raise ValueError("output lists must be non-empty")
    sym = [
        0.5 * (bleu(a, b) + bleu(b, a))
        for a, b in zip(outputs_a, outputs_b)
    ]
    return 1.0 - sum(sym) / len(sym)


def _sign_test_one_tail(n_a: int, n_b: int) -> float:
    """P(X >= n_a) for X ~ Binomial(n_a + n_b, 0.5); 1.0 when no decisions."""
    n = n_a + n_b
    if n == 0:
        return 1.0
    total = sum(math.comb(n, k) for k in range(n_a, n + 1))
    return total / 2**n


def sign_test_bootstrap(
    per_sentence_better: Sequence[str],
    resamples: int,
    rng_seed: int,
) -> float:
    """Bootstrapped one-tail sign test that system A beats system B.

    Each entry is "A", "B", or "tie".  Sentence indices are resampled with
    replacement; the one-tail sign test p-value is computed per resample
    (ties dropped) and averaged.  Deterministic given the seed.  It is the
    module's one user of numpy, which it imports when called, so that scoring
    alone does not load it.
    """
    import numpy as np

    if not per_sentence_better:
        raise ValueError("need at least one per-sentence outcome")
    bad = set(per_sentence_better) - {"A", "B", "tie"}
    if bad:
        raise ValueError(f"outcomes must be 'A', 'B' or 'tie', got {sorted(bad)}")
    n = len(per_sentence_better)
    rng = np.random.default_rng(rng_seed)
    p_sum = 0.0
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        n_a = sum(1 for i in idx if per_sentence_better[i] == "A")
        n_b = sum(1 for i in idx if per_sentence_better[i] == "B")
        p_sum += _sign_test_one_tail(n_a, n_b)
    return p_sum / resamples


# ---------------------------------------------------------------------------
# M2-style gold edit files
# ---------------------------------------------------------------------------
#
# Blocks separated by blank lines:
#   S the cat sleeps .
#   A 1 2|||substitute|||cats|||REQUIRED|||-NONE-|||0
# The third field is the replacement (space-joined, empty or -NONE- for a
# deletion), the last field the annotator index; the type field is ignored.
# An edit with span -1 -1 registers an annotator with no edits.


def parse_m2(text: str) -> list[GoldAnnotation]:
    annotations: list[GoldAnnotation] = []
    source: TokenSeq | None = None
    per_annotator: dict[int, list[Edit]] = {}

    def flush() -> None:
        nonlocal source, per_annotator
        if source is None:
            return
        ids = sorted(per_annotator) or [0]
        annotators = tuple(tuple(per_annotator.get(i, [])) for i in ids)
        annotations.append(GoldAnnotation(source, annotators))
        source, per_annotator = None, {}

    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            flush()
            continue
        if line.startswith("S ") or line == "S":
            flush()
            source = tokenize(line[2:])
        elif line.startswith("A "):
            if source is None:
                raise ValueError(f"line {lineno}: edit line before any source line")
            fields = line[2:].split("|||")
            if len(fields) < 3:
                raise ValueError(f"line {lineno}: malformed edit line")
            try:
                start_s, end_s = fields[0].split()
                start, end = int(start_s), int(end_s)
                annotator = int(fields[-1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed edit line: {exc}") from exc
            per_annotator.setdefault(annotator, [])
            if start == -1 and end == -1:
                continue  # noop marker: annotator registered with no edits
            repl_field = fields[2].strip()
            replacement = () if repl_field in ("", "-NONE-") else tokenize(repl_field)
            per_annotator[annotator].append(Edit(start, end, replacement))
        else:
            raise ValueError(f"line {lineno}: unexpected line {line!r}")
    flush()
    return annotations


def format_m2(annotations: Iterable[GoldAnnotation]) -> str:
    blocks: list[str] = []
    for ann in annotations:
        lines = ["S " + " ".join(ann.source)]
        for a_idx, edits in enumerate(ann.annotators):
            if not edits:
                lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{a_idx}")
            for e in edits:
                repl = " ".join(e.replacement)
                lines.append(
                    f"A {e.start} {e.end}|||{e.kind}|||{repl}|||REQUIRED|||-NONE-|||{a_idx}"
                )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def compare_outputs(
    per_sentence_a: Sequence[ScoreStats], per_sentence_b: Sequence[ScoreStats]
) -> list[str]:
    """Per-sentence A/B/tie outcomes by sentence F0.5, for the sign test."""
    if len(per_sentence_a) != len(per_sentence_b):
        raise ValueError("per-sentence stats must be line-aligned")
    outcomes = []
    for sa, sb in zip(per_sentence_a, per_sentence_b):
        fa, fb = sa.f_beta(0.5), sb.f_beta(0.5)
        outcomes.append("A" if fa > fb else "B" if fb > fa else "tie")
    return outcomes
