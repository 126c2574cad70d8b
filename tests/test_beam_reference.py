"""The lattice beam search against the implementation it replaced.

``ref_extensions`` and ``ref_beam_search`` below are verbatim copies of the
frozen-dataclass search that walked each word's aligned group and summed a
fresh feature list per successor.  The table-driven search must return the
same k-best list bit for bit: tokens, feature arrays, scores and order.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from corrfuse.alignment import align_all
from corrfuse.combiner import (
    LM_EOS,
    NGramLM,
    SearchSpace,
    SearchState,
    beam_search,
    build_space,
    extensions,
    train_lm,
)
from corrfuse.textcore import TokenSeq, tokenize

# repeated tokens, case variants (lowercase stage) and suffix variants (stem stage)
VOCAB = ["the", "The", "cat", "cats", "dog", "dogs", "run", "runs", "running",
         "walked", "walk", "sleeps", ".", ","]
CORPUS = [
    tokenize("the cat runs ."),
    tokenize("The dogs walked , the cat sleeps ."),
    tokenize("a dog is running ."),
    tokenize("the cats walk ."),
]


@dataclass(frozen=True)
class RefSearchState:
    used: tuple[int, ...]  # per-system bitmask of consumed token indices
    out: TokenSeq
    lm_ctx: tuple[str, ...]
    feats: tuple[float, ...]
    score: float
    done: bool = False


def ref_initial_state(space: SearchSpace, lm: NGramLM) -> RefSearchState:
    schema = space.schema()
    return RefSearchState(
        used=(0,) * space.n_systems,
        out=(),
        lm_ctx=lm.start_context(),
        feats=(0.0,) * schema.dim,
        score=0.0,
    )


def _frontier(space: SearchSpace, used: tuple[int, ...], s: int) -> int | None:
    mask = used[s]
    for i in range(len(space.hyps[s])):
        if not mask >> i & 1:
            return i
    return None


def _dot(weights: Sequence[float], feats: Sequence[float]) -> float:
    return sum(w * f for w, f in zip(weights, feats))


def ref_extensions(
    space: SearchSpace,
    state: RefSearchState,
    lm: NGramLM,
    weights: Sequence[float],
) -> list[RefSearchState]:
    if state.done:
        return []
    n = space.n_systems
    succs: dict[tuple, RefSearchState] = {}
    exhausted = False
    for s in range(n):
        i = _frontier(space, state.used, s)
        if i is None:
            exhausted = True
            continue
        token = space.hyps[s][i]
        group = space.groups[s][i]
        used = list(state.used)
        matched = set()
        for sys_idx, tok_idx in group:
            used[sys_idx] |= 1 << tok_idx
            matched.add(sys_idx)
        feats = list(state.feats)
        for sys_idx in matched:
            feats[sys_idx] += 1.0
        feats[n] += 1.0  # length
        feats[n + 1] += lm.logprob(token, state.lm_ctx)
        new_ctx = (state.lm_ctx + (token,))[1:] if lm.order > 1 else ()
        succ = RefSearchState(
            used=tuple(used),
            out=state.out + (token,),
            lm_ctx=new_ctx,
            feats=tuple(feats),
            score=_dot(weights, feats),
        )
        succs.setdefault((succ.used, succ.out, succ.lm_ctx), succ)
    result = list(succs.values())
    if exhausted:
        feats = list(state.feats)
        feats[n + 1] += lm.logprob(LM_EOS, state.lm_ctx)
        result.append(
            RefSearchState(
                used=state.used,
                out=state.out,
                lm_ctx=state.lm_ctx,
                feats=tuple(feats),
                score=_dot(weights, feats),
                done=True,
            )
        )
    return result


def ref_beam_search(
    space: SearchSpace,
    weights: Sequence[float],
    lm: NGramLM,
    beam: int | None = 64,
    k: int = 50,
) -> list[tuple[TokenSeq, np.ndarray, float]]:
    if beam is not None and beam < 1:
        raise ValueError("beam must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = tuple(float(w) for w in weights)
    completed: dict[TokenSeq, RefSearchState] = {}

    def better(s1: RefSearchState, s2: RefSearchState) -> RefSearchState:
        if s1.score != s2.score:
            return s1 if s1.score > s2.score else s2
        return s1 if s1.out <= s2.out else s2

    current: dict[tuple, RefSearchState] = {}
    start = ref_initial_state(space, lm)
    current[(start.used, start.lm_ctx)] = start
    while current:
        nxt: dict[tuple, RefSearchState] = {}
        for state in current.values():
            for succ in ref_extensions(space, state, lm, weights):
                if succ.done:
                    prev = completed.get(succ.out)
                    completed[succ.out] = succ if prev is None else better(succ, prev)
                else:
                    key = (succ.used, succ.lm_ctx)
                    prev = nxt.get(key)
                    nxt[key] = succ if prev is None else better(succ, prev)
        states = sorted(nxt.values(), key=lambda s: (-s.score, s.out))
        if beam is not None:
            states = states[:beam]
        current = {(s.used, s.lm_ctx): s for s in states}
    assert completed, "the end action is always reachable"
    ranked = sorted(completed.values(), key=lambda s: (-s.score, s.out))
    return [(s.out, np.array(s.feats), s.score) for s in ranked[:k]]


def bits(x: float) -> str:
    return float(x).hex()


def assert_same_kbest(got, want):
    assert len(got) == len(want)
    for (g_tok, g_feats, g_score), (w_tok, w_feats, w_score) in zip(got, want):
        assert g_tok == w_tok
        assert g_feats.dtype == w_feats.dtype
        assert g_feats.tobytes() == w_feats.tobytes()
        assert bits(g_score) == bits(w_score)


def random_hyps(rng, n_sys, max_len):
    return [
        tuple(str(t) for t in rng.choice(VOCAB, size=int(rng.integers(1, max_len + 1))))
        for _ in range(n_sys)
    ]


def random_weights(rng, dim):
    w = rng.normal(size=dim)
    if rng.random() < 0.3:
        w = np.round(w * 2.0) / 2.0  # coarse weights: many equal scores, tie rules decide
    return w


@pytest.fixture(scope="module")
def lms():
    return {order: train_lm(CORPUS, order=order) for order in (1, 2, 3)}


@pytest.mark.parametrize("beam", [None, 1, 8, 64])
@pytest.mark.parametrize("k", [1, 50])
@pytest.mark.parametrize("seed", range(6))
def test_beam_search_matches_reference(lms, beam, k, seed):
    rng = np.random.default_rng(1000 * seed + (beam or 0) + k)
    n_sys = 2 + seed % 3
    max_len = 5 if beam is None and n_sys == 4 else 7
    hyps = random_hyps(rng, n_sys, max_len)
    space = build_space(hyps, align_all(hyps))
    weights = random_weights(rng, space.schema().dim)
    lm = lms[(1, 2, 3, 3, 3, 3)[seed]]
    got = beam_search(space, weights, lm, beam, k)
    want = ref_beam_search(space, weights, lm, beam, k)
    assert_same_kbest(got, want)


def test_zero_weights_all_ties(lms):
    # with every score 0 the tie rules pick each kept state; a three-token
    # vocabulary makes equal outputs with different match features common
    rng = np.random.default_rng(7)
    for trial in range(40):
        n_sys = 2 + trial % 3
        hyps = [
            tuple(str(t) for t in rng.choice(["a", "b", "A"], size=int(rng.integers(1, 5))))
            for _ in range(n_sys)
        ]
        space = build_space(hyps, align_all(hyps))
        weights = np.zeros(space.schema().dim)
        for beam in (None, 1, 8):
            assert_same_kbest(
                beam_search(space, weights, lms[3], beam, 50),
                ref_beam_search(space, weights, lms[3], beam, 50),
            )


def test_extensions_match_reference_on_every_reachable_state(lms):
    rng = np.random.default_rng(11)
    lm = lms[3]
    for n_sys in (2, 3, 4):
        hyps = random_hyps(rng, n_sys, 4)
        space = build_space(hyps, align_all(hyps))
        weights = tuple(random_weights(rng, space.schema().dim))
        frontier = [ref_initial_state(space, lm)]
        seen = 0
        while frontier:
            ref_state = frontier.pop()
            state = SearchState(*(getattr(ref_state, f) for f in SearchState._fields))
            got = extensions(space, state, lm, weights)
            want = ref_extensions(space, ref_state, lm, weights)
            assert [tuple(g) for g in got] == [
                tuple(getattr(w, f) for f in SearchState._fields) for w in want
            ]
            assert [bits(g.score) for g in got] == [bits(w.score) for w in want]
            frontier.extend(w for w in want if not w.done)
            seen += 1
        assert seen > 1


def test_memoized_logprob_is_bitwise_log_prob():
    lm = train_lm(CORPUS, order=3)
    queries = [(w, ctx) for w in ["the", "cat", "zebra", LM_EOS]
               for ctx in [lm.start_context(), ("the", "cat"), ("zzz", "the")]]
    first = [lm.logprob(w, ctx) for w, ctx in queries]  # memo empty: fills it
    again = [lm.logprob(w, ctx) for w, ctx in queries]  # served from the memo
    fresh = train_lm(CORPUS, order=3)
    want = [math.log(fresh.prob(w, ctx)) for w, ctx in queries]
    assert [bits(x) for x in first] == [bits(x) for x in want]
    assert [bits(x) for x in again] == [bits(x) for x in want]
    assert [bits(lm.logprob(w, ctx)) for w, ctx in queries] == [
        bits(math.log(lm.prob(w, ctx))) for w, ctx in queries
    ]
