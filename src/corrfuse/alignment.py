"""Monolingual word alignment between two hypotheses, built in staged
matching passes (exact, lowercase, crude suffix-stripping stem).

Each stage matches the still-unmatched tokens in polynomial time: the
lexicographically smallest longest non-crossing matching from an LCS table,
then, until none is left, the compatible pair crossing the fewest chosen
pairs (ties to the smallest).  Exact and lowercase compatibility are
equivalences, so that is a maximum matching, and each token class's pairs
are re-paired in order, which only removes crossings; stem compatibility is
not transitive, so Kuhn's augmenting paths make its matching maximum.
"""

from __future__ import annotations

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


def _stage_key(stage: str, token: str) -> frozenset[str]:
    """Two tokens are compatible in a stage when their keys intersect."""
    if stage == "stem":
        return _stem_variants(token)
    return frozenset((token if stage == "exact" else token.lower(),))


def _lcs_matching(ok: list[list[bool]]) -> list[tuple[int, int]]:
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


def _fill(ok: list[list[bool]], pairs: list[tuple[int, int]]) -> None:
    """Add the compatible pair crossing the fewest chosen pairs (ties to the
    smallest pair) until no compatible pair is left."""
    rows, cols = {r for r, _ in pairs}, {c for _, c in pairs}
    crossed = {
        (r, c): sum((r2 < r) != (c2 < c) for r2, c2 in pairs)
        for r in range(len(ok)) if r not in rows
        for c in range(len(ok[r])) if ok[r][c] and c not in cols
    }
    while crossed:
        _, r, c = min((n, r2, c2) for (r2, c2), n in crossed.items())
        pairs.append((r, c))
        crossed = {(r2, c2): n + ((r2 < r) != (c2 < c))
                   for (r2, c2), n in crossed.items() if r2 != r and c2 != c}


def _augment(ok: list[list[bool]], pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Kuhn's augmenting paths from ``pairs`` to a maximum-cardinality matching."""
    row_of = {c: r for r, c in pairs}
    # columns a failed search reached stay closed until the matching changes:
    # no alternating path through them reaches a free column
    visited: set[int] = set()

    def try_augment(r: int) -> bool:
        for c in range(len(ok[r])):
            if ok[r][c] and c not in visited:
                visited.add(c)
                if c not in row_of or try_augment(row_of[c]):
                    row_of[c] = r
                    return True
        return False

    for r in sorted(set(range(len(ok))) - set(row_of.values())):
        if try_augment(r):
            visited.clear()
    return sorted((r, c) for c, r in row_of.items())


def _uncross(pairs: list[tuple[int, int]], keys: list[frozenset[str]]) -> list[tuple[int, int]]:
    """Re-pair the rows and columns of each equivalence class (``keys`` of the
    rows) in order."""
    classes: dict[frozenset[str], tuple[list[int], list[int]]] = {}
    for r, c in pairs:
        rows, cols = classes.setdefault(keys[r], ([], []))
        rows.append(r)
        cols.append(c)
    return sorted(p for rows, cols in classes.values() for p in zip(sorted(rows), sorted(cols)))


def _align_oriented(a: TokenSeq, b: TokenSeq) -> tuple[AlignedPair, ...]:
    free_a, free_b = list(range(len(a))), list(range(len(b)))
    pairs: list[AlignedPair] = []
    for stage in STAGES:
        keys_a = [_stage_key(stage, a[i]) for i in free_a]
        keys_b = [_stage_key(stage, b[j]) for j in free_b]
        ok = [[bool(ka & kb) for kb in keys_b] for ka in keys_a]
        if not any(map(any, ok)):
            continue
        found = _lcs_matching(ok)
        _fill(ok, found)
        found = _augment(ok, found) if stage == "stem" else _uncross(found, keys_a)
        pairs += (AlignedPair(free_a[r], free_b[c], stage) for r, c in found)
        rows, cols = {r for r, _ in found}, {c for _, c in found}
        free_a = [i for r, i in enumerate(free_a) if r not in rows]
        free_b = [j for c, j in enumerate(free_b) if c not in cols]
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

