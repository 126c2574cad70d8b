"""Token sequences, edit distance, edit scripts, and n-gram counting.

Everything downstream (scoring, rewards, alignment, combination) works on
whitespace-tokenized sentences represented as tuples of token strings.

``edit_distance`` and ``edit_script`` share one Levenshtein kernel,
``_columns``: the bit-vector column recurrence of Myers (1999, J. ACM 46(3))
in the edit-distance form of Hyyrö (2001).  Each column of the table is two
masks of its +1 and -1 vertical steps plus the mask of its diagonal ties,
computed from the column before in a fixed number of integer operations
whatever the length of ``a``.  Scoring runs ``edit_script`` on every new
k-best candidate while tuning, DDT's min-edit-distance reward runs
``edit_distance`` on every sample, and ``toydata`` derives its gold edits
with ``edit_script``.
"""

from __future__ import annotations

from collections import Counter, namedtuple

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


class Edit(namedtuple("Edit", "start end replacement")):
    """Replace source tokens in [start, end) with ``replacement``.

    start == end is an insertion, empty replacement a deletion, anything
    else a (possibly multi-token) substitution.  Edits order by (start,
    end, replacement).
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, replacement: TokenSeq) -> Edit:
        if start < 0 or end < start:
            raise ValueError(f"bad edit span [{start},{end})")
        if start == end and not replacement:
            raise ValueError("empty edit (no span, no replacement)")
        return super().__new__(cls, start, end, replacement)

    @property
    def kind(self) -> str:
        if self.start == self.end:
            return "insert"
        if not self.replacement:
            return "delete"
        return "substitute"


EditScript = tuple[Edit, ...]


def _columns(a: TokenSeq, b: TokenSeq) -> list[tuple[int, int, int]]:
    """The Levenshtein table of ``a`` (rows) against ``b`` (columns), one
    ``(vp, vn, d0)`` triple of bit masks per column ``j`` of ``0..len(b)``.

    Bit ``i - 1`` of ``vp`` (``vn``) is set when ``dist[i][j]`` is one more
    (one less) than ``dist[i - 1][j]``, so a cell is ``j`` plus the set bits
    of ``vp`` below bit ``i`` minus those of ``vn``.  Bit ``i - 1`` of ``d0``
    is set when ``dist[i][j] == dist[i - 1][j - 1]``; column 0 has none.
    Each column comes from the one before it in a fixed number of
    operations on Python ints as wide as ``a`` (Myers 1999; Hyyrö 2001's
    edit-distance form, in which row 0 adds one per column).
    """
    eq_masks: dict[str, int] = {}
    bit = 1
    for x in a:
        eq_masks[x] = eq_masks.get(x, 0) | bit
        bit <<= 1
    mask = bit - 1
    vp, vn = mask, 0
    columns = [(vp, vn, 0)]
    for y in b:
        eq = eq_masks.get(y, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
        hp = (vn | ~(d0 | vp)) << 1 | 1
        hn = (vp & d0) << 1
        vp = (hn | ~(d0 | hp)) & mask
        vn = hp & d0
        columns.append((vp, vn, d0))
    return columns


def edit_distance(a: TokenSeq, b: TokenSeq) -> int:
    """Token-level Levenshtein distance with unit insert/delete/substitute cost."""
    if a == b:
        return 0
    vp, vn, _ = _columns(a, b)[-1]
    return len(b) + vp.bit_count() - vn.bit_count()


def edit_script(a: TokenSeq, b: TokenSeq) -> EditScript:
    """Minimal-cost script turning ``a`` into ``b``.

    Ties in the DP backtrace are broken canonically (match, then substitute,
    then delete, then insert, scanning cells from the end), so the script is
    deterministic.  Adjacent single-token operations are merged into one
    span edit; total single-token operation count equals edit_distance(a, b).

    The backtrace reads ``_columns`` by bit tests: equal tokens always match
    (a match is never worse than the cells beside it), a cell whose ``d0``
    bit is clear is a substitution, and one whose ``vp`` bit is set a
    deletion.  A run of operations between two matches is one edit, built
    when the run closes.
    """
    if a == b:
        return ()
    columns = _columns(a, b)
    edits: list[Edit] = []
    i, j = len(a), len(b)
    end = -1  # end of the open run of operations, -1 when none is open
    repl: list[str] = []  # the run's replacement tokens, last first
    deleted = inserted = False  # the kind of the run's leftmost operation so far
    while i and j:
        y = b[j - 1]
        if a[i - 1] == y:
            if end >= 0:
                repl.reverse()
                edits.append(Edit(i, end, tuple(repl)))
                end = -1
            i -= 1
            j -= 1
            continue
        if end < 0:
            end, repl, deleted, inserted = i, [], False, False
        vp, _, d0 = columns[j]
        bit = 1 << (i - 1)
        # a minimal script never has a deletion next to an insertion: the
        # two could be one substitution
        if not d0 & bit:
            repl.append(y)
            i -= 1
            j -= 1
            deleted = inserted = False
        elif vp & bit:
            assert not inserted
            i -= 1
            deleted = True
        else:
            assert not deleted
            repl.append(y)
            j -= 1
            inserted = True
    if i or j:  # the operations left run to the start of both sides
        if end < 0:
            end, repl = i, []
        else:
            assert not (inserted if i else deleted)
        repl.extend(reversed(b[:j]))
    if end >= 0:
        repl.reverse()
        edits.append(Edit(0, end, tuple(repl)))
    edits.reverse()
    return tuple(edits)


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
