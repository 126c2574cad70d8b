import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrfuse.alignment import (
    AlignedPair,
    Alignment,
    align_all,
    align_pair,
    _stage_compatible,
)
from corrfuse.textcore import tokenize


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
            if j not in matched_b and _stage_compatible(stage, a[i], b[j])
        ]
        for i in range(len(a))
        if i not in matched_a
        and any(
            j not in matched_b and _stage_compatible(stage, a[i], b[j])
            for j in range(len(b))
        )
    }


class TestStages:
    def test_identical_sentences_identity_exact(self):
        s = tokenize("the cat sat on the mat")
        al = align_pair(s, s)
        assert al.pairs == tuple(AlignedPair(i, i, "exact") for i in range(len(s)))
        assert al.crossings() == 0

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
        assert al.crossings() == 1

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
