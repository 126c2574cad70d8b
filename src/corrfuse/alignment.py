"""Monolingual word alignment between two hypotheses, built in staged
matching passes (exact, lowercase, crude suffix-stripping stem).

Within each stage the matcher picks, among maximum-cardinality matchings of
the still-unmatched tokens, one that minimizes crossing pairs; ties go to
the smallest sorted pair list.  The search is exact (branch and bound with
cardinality and crossing pruning), which is affordable at the sentence
lengths this project works with.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from .textcore import TokenSeq

STAGES = ("exact", "lowercase", "stem")
MAX_TOKENS = 128
_STEM_SUFFIXES = ("ing", "es", "ed", "s")
_MIN_STEM_LEN = 2


@dataclass(frozen=True)
class AlignedPair:
    a: int
    b: int
    stage: str


@dataclass(frozen=True)
class Alignment:
    """One-to-one partial matching between token positions of two sentences."""

    len_a: int
    len_b: int
    pairs: tuple[AlignedPair, ...]

    def __post_init__(self) -> None:
        seen_a: set[int] = set()
        seen_b: set[int] = set()
        for p in self.pairs:
            if not (0 <= p.a < self.len_a and 0 <= p.b < self.len_b):
                raise ValueError(f"pair {p} out of range")
            if p.a in seen_a or p.b in seen_b:
                raise ValueError(f"pair {p} reuses an already matched token")
            if p.stage not in STAGES:
                raise ValueError(f"unknown stage {p.stage!r}")
            seen_a.add(p.a)
            seen_b.add(p.b)

    def a_to_b(self) -> dict[int, int]:
        return {p.a: p.b for p in self.pairs}

    def crossings(self) -> int:
        pts = sorted((p.a, p.b) for p in self.pairs)
        return sum(
            1
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if pts[i][1] > pts[j][1]
        )

    def flipped(self) -> "Alignment":
        return Alignment(
            self.len_b,
            self.len_a,
            tuple(sorted((AlignedPair(p.b, p.a, p.stage) for p in self.pairs),
                         key=lambda q: (q.a, q.b))),
        )


def _stem_variants(token: str) -> frozenset[str]:
    t = token.lower()
    variants = {t}
    for suffix in _STEM_SUFFIXES:
        if t.endswith(suffix) and len(t) - len(suffix) >= _MIN_STEM_LEN:
            variants.add(t[: -len(suffix)])
    return frozenset(variants)


def _stage_compatible(stage: str, ta: str, tb: str) -> bool:
    if stage == "exact":
        return ta == tb
    if stage == "lowercase":
        return ta.lower() == tb.lower()
    return bool(_stem_variants(ta) & _stem_variants(tb))


def _max_cardinality(edges: dict[int, list[int]]) -> int:
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


def _min_crossing_matching(edges: dict[int, list[int]]) -> list[tuple[int, int]]:
    """Exact maximum-cardinality matching with minimum crossings.

    Ties between equal-crossing matchings resolve to the smallest sorted
    pair list, which keeps results deterministic.
    """
    if not edges:
        return []
    target = _max_cardinality(edges)
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


def _align_oriented(a: TokenSeq, b: TokenSeq) -> tuple[AlignedPair, ...]:
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
                if j not in matched_b and _stage_compatible(stage, ta, tb)
            ]
            if cands:
                edges[i] = cands
        for i, j in _min_crossing_matching(edges):
            pairs.append(AlignedPair(i, j, stage))
            matched_a.add(i)
            matched_b.add(j)
    return tuple(sorted(pairs, key=lambda p: (p.a, p.b)))


def align_pair(a: TokenSeq, b: TokenSeq) -> Alignment:
    """Stage-wise alignment of two sentences.

    Internally solved on a canonical orientation of the pair so that
    align_pair(a, b) and align_pair(b, a) are exact mirror images.
    """
    if len(a) > MAX_TOKENS or len(b) > MAX_TOKENS:
        raise ValueError(f"alignment supports at most {MAX_TOKENS} tokens per sentence")
    if b < a:
        return align_pair(b, a).flipped()
    return Alignment(len(a), len(b), _align_oriented(a, b))


def align_all(hyps: list[TokenSeq]) -> dict[tuple[int, int], Alignment]:
    """All pairwise alignments, keyed by (i, j) with i < j."""
    if len(hyps) < 2:
        raise ValueError("need at least 2 hypotheses to align")
    return {
        (i, j): align_pair(hyps[i], hyps[j])
        for i in range(len(hyps))
        for j in range(i + 1, len(hyps))
    }

