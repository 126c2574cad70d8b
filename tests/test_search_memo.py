"""The k-best memo of each search space is invisible.

``beam_search`` keeps, per search space, the ranked list of every
(LM object, exact weight bits, beam) it has searched.  Interleaved calls that
vary the weights, the beam, the order of k and the LM object on the same
spaces must return what a search on a fresh copy of the space (an empty
memo) returns, bit for bit.  The feature vectors it returns are tuples,
which no caller can change, so the memo hands out its own.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from corrfuse import cli
from corrfuse.combiner import SearchSpace, beam_search, build_space, build_spaces, train_lm
from corrfuse.alignment import align_all
from corrfuse.textcore import tokenize

BENCH = Path(__file__).resolve().parent.parent / "bench"
VOCAB = ["the", "The", "cat", "cats", "dog", "run", "runs", "walked", ".", ","]
CORPUS = [
    tokenize("the cat runs ."),
    tokenize("The dog walked , the cat runs ."),
    tokenize("the cats run ."),
]


def fusegen():
    """The benchmark's fuse-input writer, from the repository's bench directory."""
    sys.path.insert(0, str(BENCH))
    try:
        import fusegen
    finally:
        sys.path.remove(str(BENCH))
    return fusegen


def bits(x: float) -> str:
    return float(x).hex()


def fresh_search(space, weights, lm, beam, k):
    """The same search without a memo: a new copy of the space."""
    return beam_search(SearchSpace(space.hyps, space.groups), weights, lm, beam, k)


def assert_same_kbest(got, want):
    assert [tokens for tokens, _, _ in got] == [tokens for tokens, _, _ in want]
    for (_, g_feats, g_score), (_, w_feats, w_score) in zip(got, want):
        assert type(g_feats) is tuple and type(w_feats) is tuple
        assert [bits(f) for f in g_feats] == [bits(f) for f in w_feats]
        assert bits(g_score) == bits(w_score)


def check_interleaved(spaces, lms, weight_sets, beams, ks):
    """Every (space, lm, weights, beam, k) in an interleaved order, twice over,
    each result against a memo-free search; every feature vector returned is
    an immutable tuple of floats, so sharing the memo's own is safe."""
    for _ in range(2):
        for k in ks:
            for beam in beams:
                for weights in weight_sets:
                    for lm in lms:
                        for space in spaces:
                            got = beam_search(space, weights, lm, beam, k)
                            assert_same_kbest(got, fresh_search(space, weights, lm, beam, k))
                            for _, feats, _ in got:
                                assert all(type(f) is float for f in feats)
    assert all(space.kbest for space in spaces)


def random_weights(rng, dim):
    w = rng.normal(size=dim)
    if rng.random() < 0.5:
        w = np.round(w * 2.0) / 2.0  # coarse weights: many equal scores, tie rules decide
    return w


@pytest.mark.parametrize("seed", range(4))
def test_memo_is_invisible_on_random_toy_spaces(seed):
    rng = np.random.default_rng(seed)
    spaces = []
    for n_sys in (2, 3, 4):
        hyps = [
            tuple(str(t) for t in rng.choice(VOCAB, size=int(rng.integers(1, 5))))
            for _ in range(n_sys)
        ]
        spaces.append(build_space(hyps, align_all(hyps)))
    # two LM objects with the same tables, and one of another order
    lms = [train_lm(CORPUS, 3), train_lm(CORPUS, 3), train_lm(CORPUS, 2)]
    for space in spaces:
        dim = space.schema().dim
        zeros = np.zeros(dim)
        signed = zeros.copy()
        signed[::2] = -0.0  # equal to zeros as numbers, different bits
        weight_sets = [random_weights(rng, dim) for _ in range(3)] + [zeros, signed]
        check_interleaved([space], lms, weight_sets, [None, 1, 4], [50, 1, 2, 50, 1])


def test_memo_is_invisible_on_the_benchmark_fuse_inputs(tmp_path):
    gen = fusegen()
    gen.write_fuse_inputs(tmp_path, 1000, 6, 6, 600)
    hyp_lines = [
        cli._read_token_lines(str(gen.hyp_path(tmp_path, "dev", m))) for m in range(gen.SYSTEMS)
    ]
    spaces = build_spaces([lines[:4] for lines in hyp_lines])
    corpus = cli._read_token_lines(str(gen.lm_path(tmp_path)))
    lms = [train_lm(corpus, 3), train_lm(corpus, 3)]
    rng = np.random.default_rng(5)
    dim = spaces[0].schema().dim
    weight_sets = [spaces[0].schema().default_weights()] + [random_weights(rng, dim) for _ in range(2)]
    check_interleaved(spaces, lms, weight_sets, [8, 64], [1, 50, 1])


def test_spaces_are_shared_by_equal_hypothesis_tuples():
    a, b, c = tokenize("the cat runs ."), tokenize("the cats run ."), tokenize("the dog .")
    known: dict = {}
    first = build_spaces([[a, b, a], [b, a, b]], known)
    assert first[0] is first[2] and first[0] is not first[1]
    assert set(known) == {(a, b), (b, a)}
    second = build_spaces([[a, c], [b, c]], known)
    assert second[0] is first[0]
    assert set(known) == {(a, b), (b, a), (c, c)}
    assert [s.hyps for s in build_spaces([[a, c], [b, c]])] == [s.hyps for s in second]
