import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrfuse.textcore import (
    Edit,
    apply_edits,
    detokenize,
    edit_distance,
    edit_script,
    ngram_counts,
    split_lines,
    tokenize,
)


def brute_force_distance(a, b, limit=6):
    """Independent oracle: breadth-first enumeration of edit sequences.

    States are sequences; one edit inserts, deletes, or substitutes a single
    token (insertions only from b's token inventory, which suffices to reach b).
    """
    if a == b:
        return 0
    alphabet = set(b)
    frontier = {a}
    seen = {a}
    for depth in range(1, limit + 1):
        nxt = set()
        for cur in frontier:
            for i in range(len(cur)):
                cand = cur[:i] + cur[i + 1 :]  # delete
                nxt.add(cand)
                for t in alphabet:  # substitute
                    nxt.add(cur[:i] + (t,) + cur[i + 1 :])
            for i in range(len(cur) + 1):  # insert
                for t in alphabet:
                    nxt.add(cur[:i] + (t,) + cur[i:])
        if b in nxt:
            return depth
        frontier = nxt - seen
        seen |= nxt
    raise AssertionError("oracle limit reached")


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("He go home .") == ("He", "go", "home", ".")

    def test_empty(self):
        assert tokenize("") == ()
        assert tokenize("   \t ") == ()

    def test_run_collapsing(self):
        assert tokenize("a  b") == ("a", "b")

    @given(st.lists(st.text(alphabet="abcXYZ.!", min_size=1), max_size=8))
    def test_round_trip(self, tokens):
        seq = tuple(tokens)
        assert tokenize(detokenize(seq)) == seq


class TestEditDistance:
    def test_identical(self):
        assert edit_distance(("he", "go", "home"), ("he", "go", "home")) == 0

    def test_single_substitution_matches_oracle(self):
        a, b = ("he", "go", "home"), ("he", "goes", "home")
        assert edit_distance(a, b) == brute_force_distance(a, b) == 1

    def test_mixed_matches_oracle(self):
        a, b = ("a", "b", "c"), ("c",)
        assert edit_distance(a, b) == brute_force_distance(a, b) == 2

    @given(
        st.lists(st.sampled_from("abc"), max_size=5).map(tuple),
        st.lists(st.sampled_from("abc"), max_size=5).map(tuple),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_zero_iff_equal(self, a, b):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert (d == 0) == (a == b)

    @given(
        st.lists(st.sampled_from("abcd"), max_size=4).map(tuple),
        st.lists(st.sampled_from("abcd"), max_size=4).map(tuple),
        st.lists(st.sampled_from("abcd"), max_size=4).map(tuple),
    )
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_oracle_on_all_short_pairs(self):
        vocab = "ab"
        seqs = [
            tuple(p)
            for n in range(4)
            for p in itertools.product(vocab, repeat=n)
        ]
        for a in seqs:
            for b in seqs:
                assert edit_distance(a, b) == brute_force_distance(a, b)


class TestEditScript:
    def test_empty_for_equal(self):
        x = ("a", "b")
        assert edit_script(x, x) == ()

    def test_substitution(self):
        script = edit_script(("he", "go", "home"), ("he", "goes", "home"))
        assert script == (Edit(1, 2, ("goes",)),)
        assert script[0].kind == "substitute"

    def test_insertion(self):
        script = edit_script(("I", "happy"), ("I", "am", "happy"))
        assert script == (Edit(1, 1, ("am",)),)
        assert script[0].kind == "insert"

    def test_deletion(self):
        script = edit_script(("I", "am", "very", "happy"), ("I", "am", "happy"))
        assert script == (Edit(2, 3, ()),)
        assert script[0].kind == "delete"

    def test_adjacent_ops_merge_into_span(self):
        script = edit_script(("p", "q"), ("r", "s", "t"))
        assert script == (Edit(0, 2, ("r", "s", "t")),)
        ops = sum(max(e.end - e.start, len(e.replacement)) for e in script)
        assert ops == 3 == edit_distance(("p", "q"), ("r", "s", "t"))

    @given(
        st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
        st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
    )
    @settings(max_examples=150, deadline=None)
    def test_apply_reproduces_target_and_ops_match_distance(self, a, b):
        script = edit_script(a, b)
        assert apply_edits(a, script) == b
        ops = sum(max(e.end - e.start, len(e.replacement)) for e in script)
        assert ops == edit_distance(a, b)
        # sorted and non-overlapping
        for prev, cur in zip(script, script[1:]):
            assert prev.end <= cur.start


class TestNgramCounts:
    def test_unigrams(self):
        assert ngram_counts(("a", "b", "a"), 1) == {("a",): 2, ("b",): 1}

    def test_bigrams(self):
        assert ngram_counts(("a", "b", "a"), 2) == {("a", "b"): 1, ("b", "a"): 1}

    def test_too_short(self):
        assert ngram_counts(("a",), 2) == {}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ngram_counts(("a",), 0)


SEPARATORS = ("\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


class TestSplitLines:
    @pytest.mark.parametrize("text", ["", "a", "a\n", "a\n\n", "\n", "a\nb", "a b\n\nc\n", "a\r\nb\rc\r\n"])
    def test_like_splitlines_on_line_ends(self, text):
        assert split_lines(text) == text.splitlines()

    @pytest.mark.parametrize("separator", SEPARATORS)
    def test_other_separators_stay_inside_the_line(self, separator):
        assert split_lines(f"she walk{separator} fast\nok\n") == [f"she walk{separator} fast", "ok"]
        assert tokenize(split_lines(f"she walk{separator}fast")[0]) == ("she", "walk", "fast")
