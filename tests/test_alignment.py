import itertools
import time
from bisect import bisect_right, insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrfuse.alignment import (
    MAX_TOKENS,
    STAGES,
    AlignedPair,
    Alignment,
    align_all,
    align_pair,
    _stage_key,
)
from corrfuse.textcore import TokenSeq, tokenize
from corrfuse.toydata import RULE_KINDS, CorruptionRule, generate_corpus


def stage_compatible(stage: str, ta: str, tb: str) -> bool:
    return bool(_stage_key(stage, ta) & _stage_key(stage, tb))


def count_crossings(al: Alignment) -> int:
    """Pairs of aligned pairs that cross, the quantity the aligner minimizes."""
    pts = sorted((p.a, p.b) for p in al.pairs)
    return sum(b1 > b2 for i, (_, b1) in enumerate(pts) for _, b2 in pts[i + 1 :])


def exhaustive_best_matching(edges):
    """Oracle: enumerate every matching, keep max cardinality, then min
    crossings, then smallest sorted pair tuple."""
    a_nodes = sorted(edges)
    all_matchings = [[]]
    for a in a_nodes:
        extended = []
        for matching in all_matchings:
            used = {b for _, b in matching}
            extended.append(matching)  # leave a unmatched
            for b in edges[a]:
                if b not in used:
                    extended.append(matching + [(a, b)])
        all_matchings = extended

    def crossings(m):
        return sum(
            1
            for (a1, b1), (a2, b2) in itertools.combinations(sorted(m), 2)
            if b1 > b2
        )

    best_card = max(len(m) for m in all_matchings)
    candidates = [tuple(sorted(m)) for m in all_matchings if len(m) == best_card]
    return min(candidates, key=lambda m: (crossings(m), m))


def stage_edges(a, b, stage, matched_a=(), matched_b=()):
    return {
        i: [
            j
            for j in range(len(b))
            if j not in matched_b and stage_compatible(stage, a[i], b[j])
        ]
        for i in range(len(a))
        if i not in matched_a
        and any(
            j not in matched_b and stage_compatible(stage, a[i], b[j])
            for j in range(len(b))
        )
    }


class TestStages:
    def test_identical_sentences_identity_exact(self):
        s = tokenize("the cat sat on the mat")
        al = align_pair(s, s)
        assert al.pairs == tuple(AlignedPair(i, i, "exact") for i in range(len(s)))
        assert count_crossings(al) == 0

    def test_lowercase_and_stem_stages(self):
        al = align_pair(("He", "goes"), ("he", "go"))
        assert al.pairs == (AlignedPair(0, 0, "lowercase"), AlignedPair(1, 1, "stem"))

    def test_stem_examples(self):
        assert align_pair(("walked",), ("walking",)).pairs[0].stage == "stem"
        assert align_pair(("cats",), ("cat",)).pairs[0].stage == "stem"
        # stems shorter than two characters never strip
        assert align_pair(("as",), ("a",)).pairs == ()

    def test_crossing_pair_still_fully_matched(self):
        al = align_pair(("x", "y"), ("y", "x"))
        assert {(p.a, p.b) for p in al.pairs} == {(0, 1), (1, 0)}
        assert count_crossings(al) == 1

    def test_exact_stage_wins_before_stem(self):
        # "cats" could stem-match "cat", but the exact copy takes priority
        al = align_pair(("cats", "cat"), ("cat",))
        assert al.pairs == (AlignedPair(1, 0, "exact"),)

    def test_stage_monotonicity_dropping_stem_never_adds_pairs(self):
        rng = np.random.default_rng(0)
        vocab = ["cat", "cats", "walk", "walked", "He", "he", "the"]
        for _ in range(50):
            a = tuple(rng.choice(vocab, size=rng.integers(0, 5)))
            b = tuple(rng.choice(vocab, size=rng.integers(0, 5)))
            full = align_pair(a, b)
            without_stem = [p for p in full.pairs if p.stage != "stem"]
            assert len(without_stem) <= len(full.pairs)


class TestMatchingExactness:
    @pytest.mark.parametrize("seed", range(30))
    def test_min_crossing_vs_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c"]
        a = tuple(rng.choice(vocab, size=rng.integers(1, 7)))
        b = tuple(rng.choice(vocab, size=rng.integers(1, 7)))
        al = align_pair(a, b)
        # exact stage only, on sentences over a tiny vocabulary, is where
        # ambiguity concentrates; compare against full enumeration
        edges = stage_edges(a, b, "exact")
        if not edges:
            return
        oracle = exhaustive_best_matching(edges)
        got = tuple(sorted((p.a, p.b) for p in al.pairs if p.stage == "exact"))

        def crossings(m):
            return sum(
                1
                for (a1, b1), (a2, b2) in itertools.combinations(sorted(m), 2)
                if b1 > b2
            )

        assert len(got) == len(oracle)  # maximum cardinality
        assert crossings(got) == crossings(oracle)  # minimum crossings
        if a <= b:
            # ties resolve to the smallest pair tuple in the orientation the
            # matcher actually solves (the canonical one)
            assert got == oracle

    def test_one_to_one(self):
        rng = np.random.default_rng(7)
        vocab = ["a", "b", "A", "walks", "walk"]
        for _ in range(50):
            a = tuple(rng.choice(vocab, size=rng.integers(0, 6)))
            b = tuple(rng.choice(vocab, size=rng.integers(0, 6)))
            al = align_pair(a, b)  # Alignment validates one-to-one on build
            assert len({p.a for p in al.pairs}) == len(al.pairs)
            assert len({p.b for p in al.pairs}) == len(al.pairs)


class TestMirrorSymmetry:
    @given(
        st.lists(st.sampled_from(["a", "b", "ab", "A", "cats", "cat"]), max_size=6).map(tuple),
        st.lists(st.sampled_from(["a", "b", "ab", "A", "cats", "cat"]), max_size=6).map(tuple),
    )
    @settings(max_examples=120, deadline=None)
    def test_mirror(self, a, b):
        fwd = align_pair(a, b)
        rev = align_pair(b, a)
        assert {(p.a, p.b, p.stage) for p in fwd.pairs} == {
            (p.b, p.a, p.stage) for p in rev.pairs
        }


class TestAlignAll:
    def test_three_identical(self):
        h = tokenize("a b c")
        table = align_all([h, h, h])
        assert set(table) == {(0, 1), (0, 2), (1, 2)}
        for al in table.values():
            assert {(p.a, p.b) for p in al.pairs} == {(0, 0), (1, 1), (2, 2)}

    def test_two_hypotheses_single_entry(self):
        table = align_all([tokenize("a b"), tokenize("b c")])
        assert set(table) == {(0, 1)}

    def test_rejects_single_hypothesis(self):
        with pytest.raises(ValueError):
            align_all([tokenize("a")])


class TestGuards:
    def test_rejects_overlong_sentences(self):
        with pytest.raises(ValueError):
            align_pair(tuple(["a"] * 200), ("a",))

    def test_alignment_validates_ranges(self):
        with pytest.raises(ValueError):
            Alignment(1, 1, (AlignedPair(0, 5, "exact"),))

    def test_alignment_rejects_duplicate_use(self):
        with pytest.raises(ValueError):
            Alignment(2, 2, (AlignedPair(0, 0, "exact"), AlignedPair(0, 1, "exact")))


class TestStemStage:
    def test_non_transitive_stem_is_maximum(self):
        # "cates" stems to "cate" and "cat", "cats" only to "cat": the longest
        # non-crossing matching has one pair, the maximum matching two
        al = align_pair(("cates", "cats"), ("cat", "cate"))
        assert {(p.a, p.b, p.stage) for p in al.pairs} == {(0, 1, "stem"), (1, 0, "stem")}


class TestLatency:
    @pytest.mark.parametrize(
        "a, b",
        [
            (("the", "cat") * 64, ("cat", "the") * 64),
            (("x",) * 64 + ("y",) * 64, ("y",) * 64 + ("x",) * 64),
            ((".",) * 128, (".",) * 128),
        ],
        ids=["alternating", "blocks", "one-token"],
    )
    def test_max_tokens_align_fast(self, a, b):
        assert len(a) == len(b) == MAX_TOKENS
        start = time.perf_counter()
        al = align_pair(a, b)
        assert time.perf_counter() - start < 0.5
        assert len(al.pairs) == MAX_TOKENS


# ---------------------------------------------------------------------------
# The exact branch-and-bound search that the polynomial matcher replaced.
# ``ref_max_cardinality``, ``ref_min_crossing_matching``,
# ``ref_align_oriented`` and ``ref_align_pair`` are verbatim copies (names
# prefixed); its time grows exponentially with repeated tokens, so it is
# only run here on short toy lines.
# ---------------------------------------------------------------------------

def ref_max_cardinality(edges: dict[int, list[int]]) -> int:
    """Kuhn's augmenting-path algorithm on a small bipartite graph."""
    match_b: dict[int, int] = {}

    def try_augment(a: int, visited: set[int]) -> bool:
        for b in edges[a]:
            if b in visited:
                continue
            visited.add(b)
            if b not in match_b or try_augment(match_b[b], visited):
                match_b[b] = a
                return True
        return False

    count = 0
    for a in sorted(edges):
        if try_augment(a, set()):
            count += 1
    return count


def ref_min_crossing_matching(edges: dict[int, list[int]]) -> list[tuple[int, int]]:
    """Exact maximum-cardinality matching with minimum crossings.

    Ties between equal-crossing matchings resolve to the smallest sorted
    pair list, which keeps results deterministic.
    """
    if not edges:
        return []
    target = ref_max_cardinality(edges)
    a_positions = sorted(edges)
    best: tuple[int, tuple[tuple[int, int], ...]] | None = None

    def search(pos: int, used_b: set[int], chosen_b_sorted: list[int],
               chosen: list[tuple[int, int]], crossings: int) -> None:
        nonlocal best
        if best is not None and crossings > best[0]:
            return
        # cardinality still reachable?
        if len(chosen) + (len(a_positions) - pos) < target:
            return
        if pos == len(a_positions):
            if len(chosen) == target:
                key = (crossings, tuple(chosen))
                if best is None or key < best:
                    best = key
            return
        a = a_positions[pos]
        for b in edges[a]:
            if b in used_b:
                continue
            extra = len(chosen_b_sorted) - bisect_right(chosen_b_sorted, b)
            if best is not None and crossings + extra > best[0]:
                continue
            used_b.add(b)
            insort(chosen_b_sorted, b)
            chosen.append((a, b))
            search(pos + 1, used_b, chosen_b_sorted, chosen, crossings + extra)
            chosen.pop()
            chosen_b_sorted.remove(b)
            used_b.discard(b)
        search(pos + 1, used_b, chosen_b_sorted, chosen, crossings)

    search(0, set(), [], [], 0)
    assert best is not None
    return list(best[1])


def ref_align_oriented(a: TokenSeq, b: TokenSeq) -> tuple[AlignedPair, ...]:
    matched_a: set[int] = set()
    matched_b: set[int] = set()
    pairs: list[AlignedPair] = []
    for stage in STAGES:
        edges: dict[int, list[int]] = {}
        for i, ta in enumerate(a):
            if i in matched_a:
                continue
            cands = [
                j
                for j, tb in enumerate(b)
                if j not in matched_b and stage_compatible(stage, ta, tb)
            ]
            if cands:
                edges[i] = cands
        for i, j in ref_min_crossing_matching(edges):
            pairs.append(AlignedPair(i, j, stage))
            matched_a.add(i)
            matched_b.add(j)
    return tuple(sorted(pairs, key=lambda p: (p.a, p.b)))


def ref_align_pair(a: TokenSeq, b: TokenSeq) -> Alignment:
    """Stage-wise alignment of two sentences.

    Internally solved on a canonical orientation of the pair so that
    align_pair(a, b) and align_pair(b, a) are exact mirror images.
    """
    if len(a) > MAX_TOKENS or len(b) > MAX_TOKENS:
        raise ValueError(f"alignment supports at most {MAX_TOKENS} tokens per sentence")
    if b < a:
        return ref_align_pair(b, a).flipped()
    return Alignment(len(a), len(b), ref_align_oriented(a, b))


def toy_lines(seed: int, n_lines: int, passes: int) -> list[list[TokenSeq]]:
    """``n_lines`` lines of 1-3 toy sentences, each as ``passes`` independent
    corruption passes over the same references."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=n_lines).tolist()
    versions = [
        generate_corpus(
            seed, sum(sizes), tuple(CorruptionRule(k, prob) for k in RULE_KINDS), 100 * seed + p
        )
        for p, prob in zip(range(passes), itertools.cycle((0.35, 0.1)))
    ]
    lines, pos = [], 0
    for k in sizes:
        lines.append([tuple(t for e in v[pos : pos + k] for t in e.source) for v in versions])
        pos += k
    return lines


class TestAgainstExactSearch:
    @pytest.mark.parametrize("seed", range(6))
    def test_cardinality_and_crossings_match_reference(self, seed):
        for line in toy_lines(seed, n_lines=12, passes=4):
            for a, b in itertools.combinations(line, 2):
                got, ref = align_pair(a, b), ref_align_pair(a, b)
                assert len(got.pairs) == len(ref.pairs), (a, b)
                assert count_crossings(got) == count_crossings(ref), (a, b)
