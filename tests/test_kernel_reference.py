"""The string kernels of the fuse path against the implementations they replaced.

``ref_dp_matrix`` and ``ref_edit_script`` are verbatim copies (apart from
their names) of the edit-distance table that indexed ``dist[i][j]`` and took
one ``min()`` per cell, and of the backtrace over it.  The bit-vector
columns of ``textcore._columns`` now stand where that table stood, after
``_dp_matrix``, which filled it row by row from the row above with ``zip``;
every cell and every script must still be the table's.  ``ref_lcs_matching``
and ``ref_align_oriented`` are verbatim copies of the LCS table that took
``max()`` per cell and of the stage loop that built every compatibility
matrix from ``bool(ka & kb)``.  ``RefNGramLM`` keeps the old per-position
counting loop of ``NGramLM.__init__``.  Edit scripts and alignments must be
equal, and every LM table equal with the same inner key order, so that
``logprob`` keeps its bits.
"""

import contextlib
import io
import math
import struct
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from corrfuse import alignment, cli, combiner, evaluation
from corrfuse.alignment import (
    MAX_TOKENS,
    STAGES,
    AlignedPair,
    Alignment,
    _augment,
    _fill,
    _stage_key,
    _uncross,
    align_pair,
)
from corrfuse.combiner import LM_BOS, LM_EOS, LM_UNK, NGramLM
from corrfuse.evaluation import GoldAnnotation, score_sentence
from corrfuse.textcore import Edit, EditScript, TokenSeq, _columns, edit_distance, edit_script
from corrfuse.toydata import RULE_KINDS, CorruptionRule, generate_corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def fusegen():
    """The benchmark's fuse-input writer, from the repository's bench directory."""
    sys.path.insert(0, str(BENCH))
    try:
        import fusegen
    finally:
        sys.path.remove(str(BENCH))
    return fusegen


# ---------------------------------------------------------------------------
# verbatim copies of the replaced kernels
# ---------------------------------------------------------------------------

def ref_dp_matrix(a: TokenSeq, b: TokenSeq) -> list[list[int]]:
    n, m = len(a), len(b)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            dist[i][j] = min(sub, dist[i - 1][j] + 1, dist[i][j - 1] + 1)
    return dist


def ref_edit_script(a: TokenSeq, b: TokenSeq) -> EditScript:
    """Minimal-cost script turning ``a`` into ``b``.

    Ties in the DP backtrace are broken canonically (match, then substitute,
    then delete, then insert, scanning cells from the end), so the script is
    deterministic.  Adjacent single-token operations are merged into one
    span edit; total single-token operation count equals edit_distance(a, b).
    """
    dist = ref_dp_matrix(a, b)
    # raw single-token ops collected back-to-front: (start, end, replacement)
    raw: list[tuple[int, int, TokenSeq]] = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and a[i - 1] == b[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            raw.append((i - 1, i, (b[j - 1],)))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            raw.append((i - 1, i, ()))
            i -= 1
        else:
            raw.append((i, i, (b[j - 1],)))
            j -= 1
    raw.reverse()

    merged: list[Edit] = []
    for start, end, repl in raw:
        if merged and merged[-1].end == start:
            prev = merged[-1]
            # a minimal script never has an adjacent delete+insert pair, so
            # merging preserves the single-op count
            assert not (
                (prev.kind == "delete" and start == end)
                or (prev.kind == "insert" and not repl)
            )
            merged[-1] = Edit(prev.start, end, prev.replacement + repl)
        else:
            merged.append(Edit(start, end, repl))
    return tuple(merged)


def ref_lcs_matching(ok: list[list[bool]]) -> list[tuple[int, int]]:
    """Lexicographically smallest longest non-crossing matching of rows to
    columns over the pairs where ``ok`` holds, in O(rows * columns)."""
    n, m = len(ok), len(ok[0])
    # longest[i][j]: size of the longest such matching of rows i.. to columns j..
    longest = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = longest[i], longest[i + 1]
        for j in range(m - 1, -1, -1):
            row[j] = below[j + 1] + 1 if ok[i][j] else max(below[j], row[j + 1])
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while longest[i][j]:
        # the first pair that still completes a longest matching; the rows
        # skipped on the way are never scanned again
        rest = longest[i][j] - 1
        i, j = next((r, c) for r in range(i, n) for c in range(j, m)
                    if ok[r][c] and longest[r + 1][c + 1] == rest)
        pairs.append((i, j))
        i, j = i + 1, j + 1
    return pairs


def ref_align_oriented(a: TokenSeq, b: TokenSeq) -> tuple[AlignedPair, ...]:
    free_a, free_b = list(range(len(a))), list(range(len(b)))
    pairs: list[AlignedPair] = []
    for stage in STAGES:
        keys_a = [_stage_key(stage, a[i]) for i in free_a]
        keys_b = [_stage_key(stage, b[j]) for j in free_b]
        ok = [[bool(ka & kb) for kb in keys_b] for ka in keys_a]
        if not any(map(any, ok)):
            continue
        found = ref_lcs_matching(ok)
        _fill(ok, found)
        found = _augment(ok, found) if stage == "stem" else _uncross(found, keys_a)
        pairs += (AlignedPair(free_a[r], free_b[c], stage) for r, c in found)
        rows, cols = {r for r, _ in found}, {c for _, c in found}
        free_a = [i for r, i in enumerate(free_a) if r not in rows]
        free_b = [j for c, j in enumerate(free_b) if c not in cols]
    return tuple(sorted(pairs, key=lambda p: (p.a, p.b)))


def ref_align_pair(a: TokenSeq, b: TokenSeq) -> Alignment:
    """``align_pair`` on the old stage loop."""
    if b < a:
        return ref_align_pair(b, a).flipped()
    return Alignment(len(a), len(b), ref_align_oriented(a, b))


class RefNGramLM(NGramLM):
    """``NGramLM`` with its old counting loop; every other method inherited."""

    def __init__(self, corpus: Sequence[TokenSeq], order: int = 3) -> None:
        if order < 1:
            raise ValueError("LM order must be >= 1")
        if not corpus:
            raise ValueError("empty LM training corpus")
        self.order = order
        # continuations[ctx] lists (token, count); ctx_total[ctx] is the
        # prefix count, so seen continuation mass always sums to exactly 1
        self._continuations: dict[tuple[str, ...], dict[str, int]] = {}
        self._ctx_total: dict[tuple[str, ...], int] = {}
        self._unigram: dict[str, int] = {}
        self._total = 0
        for sent in corpus:
            padded = (LM_BOS,) * (order - 1) + tuple(sent) + (LM_EOS,)
            for pos in range(order - 1, len(padded)):
                w = padded[pos]
                self._unigram[w] = self._unigram.get(w, 0) + 1
                self._total += 1
                for n in range(2, order + 1):
                    ctx = padded[pos - n + 1 : pos]
                    slot = self._continuations.setdefault(ctx, {})
                    slot[w] = slot.get(w, 0) + 1
                    self._ctx_total[ctx] = self._ctx_total.get(ctx, 0) + 1
        self._types = set(self._unigram) | {LM_UNK}
        self._vocab_size = len(self._types)
        self._z_cache: dict[tuple[str, ...], float] = {}
        self._transitions: dict[
            tuple[tuple[str, ...], str], tuple[float, tuple[str, ...]]
        ] = {}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# case and stem variants, so that all three alignment stages find pairs
VOCAB = (
    "the", "The", "THE", "a", "cat", "cats", "Cats", "walk", "walks", "Walks",
    "walked", "walking", "go", "goes", "dog", ".", ",",
)


def _variant(rng: np.random.Generator, token: str) -> str:
    """A token of the same stem or the same lowercase form when there is one."""
    family = [t for t in VOCAB if t != token and (t.lower() == token.lower() or t[:3].lower() == token[:3].lower())]
    return family[rng.integers(len(family))] if family else VOCAB[rng.integers(len(VOCAB))]


def _sentence(rng: np.random.Generator, length: int) -> TokenSeq:
    # a few types per sentence, so tokens repeat
    pool = rng.choice(len(VOCAB), size=int(rng.integers(1, 7)), replace=False)
    return tuple(VOCAB[k] for k in rng.choice(pool, size=length))


def _mutated(rng: np.random.Generator, a: TokenSeq) -> TokenSeq:
    out = list(a)
    for _ in range(int(rng.integers(0, 5))):
        op = int(rng.integers(4))
        pos = int(rng.integers(len(out) + 1))
        if op == 0 or not out:
            out.insert(pos, VOCAB[rng.integers(len(VOCAB))])
        elif pos < len(out) and op == 1:
            del out[pos]
        elif pos < len(out):
            out[pos] = _variant(rng, out[pos])
    return tuple(out[:MAX_TOKENS])


def random_pairs(seed: int, count: int) -> list[tuple[TokenSeq, TokenSeq]]:
    """Pairs with empty, length-1, short and 128-token sides; half of them
    near copies of one another."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        length = (0, 1, MAX_TOKENS)[k % 3] if k % 10 == 0 else int(rng.integers(2, 16))
        a = _sentence(rng, length)
        if rng.random() < 0.5:
            b = _mutated(rng, a)
        else:
            b = _sentence(rng, (0, 1, MAX_TOKENS)[k % 3] if k % 7 == 0 else int(rng.integers(0, 16)))
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return pairs


@pytest.fixture(scope="module")
def fuse_tune_pairs(tmp_path_factory):
    """Every (source, hypothesis) pair scored and every hypothesis pair aligned
    by ``tune`` on the benchmark's fuse inputs (30 dev lines of 4 systems)."""
    gen = fusegen()
    data = tmp_path_factory.mktemp("fuse") / "run"
    gen.write_fuse_inputs(data, 1000, 30, 30, 600)
    scored, aligned = [], []
    mp = pytest.MonkeyPatch()
    score, align = evaluation.edit_script, alignment.align_pair
    mp.setattr(evaluation, "edit_script", lambda a, b: scored.append((a, b)) or score(a, b))
    mp.setattr(alignment, "align_pair", lambda a, b: aligned.append((a, b)) or align(a, b))
    hyps = ",".join(str(gen.hyp_path(data, "dev", m)) for m in range(gen.SYSTEMS))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "tune", "--seed", "1000", "--set", f"data.dir={data}",
                "--set", f"lm.corpus={gen.lm_path(data)}", "--set", f"tune.hyps={hyps}",
            ])
    finally:
        mp.undo()
    assert code == 0
    return scored, aligned


# ---------------------------------------------------------------------------
# edit scripts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_edit_scripts_match_reference_on_random_pairs(seed):
    for a, b in random_pairs(seed, 100):
        assert edit_script(a, b) == ref_edit_script(a, b)
        assert edit_distance(a, b) == ref_dp_matrix(a, b)[len(a)][len(b)]


def small_alphabet_pairs(seed: int, count: int, longest: int) -> list[tuple[TokenSeq, TokenSeq]]:
    """Pairs over 1-4 token types, so that the table ties almost everywhere."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        types = "abcd"[: int(rng.integers(1, 5))]
        a, b = (tuple(types[k] for k in rng.integers(len(types), size=int(rng.integers(0, longest + 1))))
                for _ in range(2))
        pairs.append((a, b))
    return pairs


def long_pairs(seed: int, count: int) -> list[tuple[TokenSeq, TokenSeq]]:
    """Pairs of 60-200 tokens, so that a column spans several machine words;
    half of them near copies of one another (cut at ``MAX_TOKENS``)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        a = _sentence(rng, int(rng.integers(60, 201)))
        b = _mutated(rng, a) if rng.random() < 0.5 else _sentence(rng, int(rng.integers(60, 201)))
        pairs.append((a, b))
    return pairs


def columns_table(a: TokenSeq, b: TokenSeq) -> list[list[int]]:
    """The table rebuilt from the kernel's columns, ``dist[i][j]``."""
    columns = _columns(a, b)
    assert len(columns) == len(b) + 1
    dist = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for j, (vp, vn, _) in enumerate(columns):
        for i in range(len(a) + 1):
            low = (1 << i) - 1
            dist[i][j] = j + (vp & low).bit_count() - (vn & low).bit_count()
    return dist


@pytest.mark.parametrize("seed", range(4))
def test_edit_scripts_match_reference_on_small_alphabets(seed):
    for a, b in small_alphabet_pairs(200 + seed, 250, 12):
        assert edit_script(a, b) == ref_edit_script(a, b), (a, b)
        assert edit_distance(a, b) == ref_dp_matrix(a, b)[-1][-1]


def test_edit_scripts_match_reference_on_long_pairs():
    for a, b in long_pairs(300, 16):
        assert edit_script(a, b) == ref_edit_script(a, b)
        assert edit_distance(a, b) == ref_dp_matrix(a, b)[-1][-1]


@pytest.mark.parametrize("pairs", [small_alphabet_pairs(400, 150, 12), long_pairs(401, 3)],
                         ids=["small-alphabets", "long"])
def test_every_cell_rebuilt_from_the_columns_is_the_tables(pairs):
    for a, b in pairs:
        want = ref_dp_matrix(a, b)
        assert columns_table(a, b) == want
        for j, (_, _, d0) in enumerate(_columns(a, b)[1:], 1):
            for i in range(1, len(a) + 1):
                assert bool(d0 >> (i - 1) & 1) == (want[i][j] == want[i - 1][j - 1])


def test_score_sentence_matches_a_scorer_on_the_reference_scripts(monkeypatch):
    rng = np.random.default_rng(500)
    triples = []
    for source, hyp in small_alphabet_pairs(501, 200, 10) + random_pairs(502, 60):
        targets = [_mutated(rng, source) for _ in range(int(rng.integers(1, 3)))]
        gold = GoldAnnotation(source, tuple(ref_edit_script(source, t) for t in targets))
        triples.append((source, hyp, gold))
    got = [score_sentence(*triple) for triple in triples]
    monkeypatch.setattr(evaluation, "edit_script", ref_edit_script)
    assert got == [score_sentence(*triple) for triple in triples]
    assert any(stats.tp for stats in got) and any(stats.fp for stats in got)


def test_edit_scripts_match_reference_on_fuse_tune_pairs(fuse_tune_pairs):
    scored, _ = fuse_tune_pairs
    assert len(scored) >= 500
    for a, b in scored:
        assert edit_script(a, b) == ref_edit_script(a, b)


def test_identical_sides_give_the_empty_script():
    for a in ((), ("a",), ("a", "a", "b")):
        assert edit_script(a, a) == ref_edit_script(a, a) == ()


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_alignments_match_reference_on_random_pairs(seed):
    for a, b in random_pairs(100 + seed, 100):
        assert align_pair(a, b) == ref_align_pair(a, b)


def test_random_pairs_reach_every_stage():
    stages = {p.stage for a, b in random_pairs(100, 100) for p in align_pair(a, b).pairs}
    assert stages == set(STAGES)


def test_alignments_match_reference_on_fuse_tune_pairs(fuse_tune_pairs):
    _, aligned = fuse_tune_pairs
    assert aligned
    for a, b in aligned:
        assert align_pair(a, b) == ref_align_pair(a, b)


# ---------------------------------------------------------------------------
# language model
# ---------------------------------------------------------------------------

def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def lm_corpora() -> list[list[TokenSeq]]:
    rng = np.random.default_rng(7)
    toy = [ex.reference for ex in generate_corpus(
        3, 60, tuple(CorruptionRule(k, 0.3) for k in RULE_KINDS), 11
    )]
    random = [_sentence(rng, int(rng.integers(0, 9))) for _ in range(40)]
    return [toy, random, [()], [("a",), ("a", "a", "a"), ()]]


def assert_same_tables(lm: NGramLM, ref: NGramLM) -> None:
    assert list(lm._unigram.items()) == list(ref._unigram.items())
    assert lm._total == ref._total
    assert lm._ctx_total == ref._ctx_total
    assert lm._continuations == ref._continuations
    for ctx, slot in ref._continuations.items():
        assert list(lm._continuations[ctx]) == list(slot), ctx
    assert lm._types == ref._types


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("corpus", range(4))
def test_lm_tables_match_reference(order, corpus):
    sents = lm_corpora()[corpus]
    lm, ref = NGramLM(sents, order), RefNGramLM(sents, order)
    assert_same_tables(lm, ref)
    types = sorted(ref._unigram)[:8] + ["unseen"]
    contexts = [()]
    for _ in range(order - 1):
        contexts = [ctx + (t,) for ctx in contexts for t in [LM_BOS] + types]
    for ctx in contexts:
        for token in types + [LM_EOS]:
            got, want = lm.logprob(token, ctx), ref.logprob(token, ctx)
            assert bits(got) == bits(want), (token, ctx)
            assert math.isfinite(got)


def test_lm_tables_match_reference_on_the_fuse_lm_corpus(tmp_path):
    gen = fusegen()
    gen.write_fuse_inputs(tmp_path, 1000, 4, 4, 600)
    corpus = cli._read_token_lines(str(gen.lm_path(tmp_path)))
    assert_same_tables(combiner.train_lm(corpus, 3), RefNGramLM(corpus, 3))
