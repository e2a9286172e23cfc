"""Edit-distance scoring: WER/PER from Levenshtein alignments, FER from frame matches.

One weighted Levenshtein pass over two rows gives the edit count and the
insertions plus deletions in its last cell; with the length difference
they fix the S/D/I split in closed form, so no backtrace is kept.

Corpus-level rates pool the raw edit counts over utterances before dividing,
which is not the same thing as averaging per-utterance rates.  Frame
mismatches are EditStats too (all substitutions), so pool and error_rate
serve FER as well.
"""

from dataclasses import dataclass

from .data import table_tsv


@dataclass(frozen=True)
class EditStats:
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def total(self):
        return self.substitutions + self.deletions + self.insertions

    def __add__(self, other):
        return EditStats(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.ref_len + other.ref_len,
        )


def edit_distance(ref, hyp):
    """Minimal-edit alignment counts between two sequences.

    Among minimal alignments the one with the fewest insertions plus
    deletions (the most substitutions) wins.  Total, difference of lengths
    and that sum fix all three counts, so they are deterministic and
    swapping ref and hyp swaps insertions and deletions.
    """
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    # an indel costs one unit more than a substitution, and fewer than
    # n + m + 1 indels fit, so the weighted minimum W is edits * sub + indels
    sub = n + m + 1
    indel = sub + 1
    prev = [j * indel for j in range(m + 1)]
    for i, r in enumerate(ref, 1):
        left = i * indel
        row = [left]
        for diag, up, h in zip(prev, prev[1:], hyp):
            up = (left if left <= up else up) + indel
            if r != h:
                diag += sub
            left = diag if diag <= up else up
            row.append(left)
        prev = row
    edits, indels = divmod(prev[m], sub)
    ins = (indels + m - n) // 2
    return EditStats(edits - indels, indels - ins, ins, n)


def error_rate(stats):
    """100 * (S + D + I) / reference length; can exceed 100."""
    if stats.ref_len <= 0:
        raise ValueError("error rate needs a nonempty reference")
    return 100.0 * stats.total / stats.ref_len


def frame_errors(ref_frames, hyp_frames):
    """Frame mismatches as EditStats(wrong, 0, 0, frames); lengths must match."""
    ref_frames = list(ref_frames)
    hyp_frames = list(hyp_frames)
    if len(ref_frames) != len(hyp_frames):
        raise ValueError(
            "frame sequences must have equal length (%d vs %d)"
            % (len(ref_frames), len(hyp_frames))
        )
    wrong = sum(1 for a, b in zip(ref_frames, hyp_frames) if a != b)
    return EditStats(wrong, 0, 0, len(ref_frames))


def pool(stats_iter):
    """Sum edit counts over utterances for a corpus-level rate."""
    total = EditStats(0, 0, 0, 0)
    for st in stats_iter:
        total = total + st
    return total


def _report(header, counts, rows):
    rows = list(rows)
    table = [header]
    for utt_id, st in rows + [("ALL", pool(st for _, st in rows))]:
        rate = "n/a" if st.ref_len == 0 else "%.4f" % error_rate(st)
        table.append((utt_id, *counts(st), rate))
    return table_tsv(table)


def score_report(rows):
    """Per-utterance and pooled edit stats as TSV with a one-line header.

    rows: iterable of (utterance id, EditStats).  The pooled line has id ALL.
    """
    return _report(
        ("id", "sub", "del", "ins", "ref_len", "error_rate"),
        lambda st: (st.substitutions, st.deletions, st.insertions, st.ref_len),
        rows,
    )


def fer_report(rows):
    """Per-utterance and pooled frame mismatches as TSV with a one-line header.

    rows: iterable of (utterance id, EditStats from frame_errors).
    """
    return _report(("id", "wrong", "frames", "frame_error_rate"),
                   lambda st: (st.total, st.ref_len), rows)
