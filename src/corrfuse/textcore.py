"""Token sequences, edit distance, edit scripts, and n-gram counting.

Everything downstream (scoring, rewards, alignment, combination) works on
whitespace-tokenized sentences represented as tuples of token strings.

``edit_distance`` and ``edit_script`` share one Levenshtein table.  Scoring
runs ``edit_script`` on every new k-best candidate while tuning, so the
table is filled row by row, walking the row above with ``zip``, and a cell
is a comparison and an assignment rather than indexing and ``min()``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

TokenSeq = tuple[str, ...]


def tokenize(line: str) -> TokenSeq:
    """Split a line on runs of whitespace. Empty / blank input gives ()."""
    return tuple(line.split())


def split_lines(text: str) -> list[str]:
    """Lines of ``text``, split only at the line ends of text mode: LF, CR LF, CR.

    Unlike ``str.splitlines`` this keeps a form feed, U+0085, U+2028 or an
    information separator inside its line, where ``tokenize`` reads it as a
    space.  As with ``splitlines``, a final line end adds no empty line.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def detokenize(tokens: TokenSeq) -> str:
    """Join tokens with single spaces (inverse of tokenize for clean tokens)."""
    return " ".join(tokens)


@dataclass(frozen=True, order=True)
class Edit:
    """Replace source tokens in [start, end) with ``replacement``.

    start == end is an insertion, empty replacement a deletion, anything
    else a (possibly multi-token) substitution.
    """

    start: int
    end: int
    replacement: TokenSeq

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad edit span [{self.start},{self.end})")
        if self.start == self.end and not self.replacement:
            raise ValueError("empty edit (no span, no replacement)")

    @property
    def kind(self) -> str:
        if self.start == self.end:
            return "insert"
        if not self.replacement:
            return "delete"
        return "substitute"

    @property
    def ops(self) -> int:
        """Single-token operation count: a k-token replacement of an
        l-token span counts max(k, l)."""
        return max(self.end - self.start, len(self.replacement))


EditScript = tuple[Edit, ...]


def _dp_matrix(a: TokenSeq, b: TokenSeq) -> list[list[int]]:
    """Levenshtein table: ``dist[i][j]`` is the distance of ``a[:i]`` to ``b[:j]``.

    Built row by row from the row above, walking ``b`` with the cells above
    (``up``) and above-left (``diag``).  A match copies ``diag``: neighbouring
    cells differ by at most one, so ``diag`` is never above ``up + 1`` or
    ``left + 1``.  A mismatch is one more than the smallest of the three.
    """
    prev = list(range(len(b) + 1))
    dist = [prev]
    for i, x in enumerate(a, 1):
        row = [i]
        left = i
        for y, diag, up in zip(b, prev, prev[1:]):
            if x != y:
                if up < diag:
                    diag = up
                if left < diag:
                    diag = left
                diag += 1
            left = diag
            row.append(diag)
        dist.append(row)
        prev = row
    return dist


def edit_distance(a: TokenSeq, b: TokenSeq) -> int:
    """Token-level Levenshtein distance with unit insert/delete/substitute cost."""
    if a == b:
        return 0
    return _dp_matrix(a, b)[len(a)][len(b)]


def edit_script(a: TokenSeq, b: TokenSeq) -> EditScript:
    """Minimal-cost script turning ``a`` into ``b``.

    Ties in the DP backtrace are broken canonically (match, then substitute,
    then delete, then insert, scanning cells from the end), so the script is
    deterministic.  Adjacent single-token operations are merged into one
    span edit; total single-token operation count equals edit_distance(a, b).
    """
    if a == b:
        return ()
    dist = _dp_matrix(a, b)
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


def apply_edits(source: TokenSeq, edits: EditScript) -> TokenSeq:
    """Apply a sorted, non-overlapping edit script to ``source``."""
    out: list[str] = []
    pos = 0
    for e in edits:
        if e.start < pos:
            raise ValueError(f"overlapping or unsorted edit at [{e.start},{e.end})")
        if e.end > len(source):
            raise ValueError(f"edit [{e.start},{e.end}) outside source of length {len(source)}")
        out.extend(source[pos:e.start])
        out.extend(e.replacement)
        pos = e.end
    out.extend(source[pos:])
    return tuple(out)


def ngram_counts(s: TokenSeq, n: int) -> Counter:
    """Multiset of contiguous n-grams of ``s``; empty when len(s) < n."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(tuple(s[i : i + n]) for i in range(len(s) - n + 1))
