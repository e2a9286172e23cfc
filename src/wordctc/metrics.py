"""Edit-distance scoring: WER/PER from Levenshtein alignments, FER from frame matches.

Corpus-level rates pool the raw edit counts over utterances before dividing,
which is not the same thing as averaging per-utterance rates.  Frame
mismatches are EditStats too (all substitutions), so pool and error_rate
serve FER as well.
"""

from dataclasses import dataclass


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

    Ties between minimal alignments are broken by preferring substitution,
    then insertion, then deletion, so the individual counts are
    deterministic.
    """
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        row = d[i]
        prev = d[i - 1]
        r = ref[i - 1]
        for j in range(1, m + 1):
            cost = prev[j - 1] + (r != hyp[j - 1])
            ins = row[j - 1] + 1
            dele = prev[j] + 1
            row[j] = cost if cost <= ins and cost <= dele else (ins if ins <= dele else dele)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif j > 0 and d[i][j] == d[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return EditStats(subs, dels, ins, n)


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


def frame_error_rate(ref_frames, hyp_frames):
    """Percentage of frames whose labels disagree; lengths must match."""
    return error_rate(frame_errors(ref_frames, hyp_frames))


def pool(stats_iter):
    """Sum edit counts over utterances for a corpus-level rate."""
    total = EditStats(0, 0, 0, 0)
    for st in stats_iter:
        total = total + st
    return total


def _report(header, counts, rows):
    rows = list(rows)
    lines = [header]
    for utt_id, st in rows + [("ALL", pool(st for _, st in rows))]:
        rate = "n/a" if st.ref_len == 0 else "%.4f" % error_rate(st)
        lines.append("\t".join([utt_id, *("%d" % n for n in counts(st)), rate]))
    return "\n".join(lines) + "\n"


def score_report(rows):
    """Per-utterance and pooled edit stats as TSV with a one-line header.

    rows: iterable of (utterance id, EditStats).  The pooled line has id ALL.
    """
    return _report(
        "id\tsub\tdel\tins\tref_len\terror_rate",
        lambda st: (st.substitutions, st.deletions, st.insertions, st.ref_len),
        rows,
    )


def fer_report(rows):
    """Per-utterance and pooled frame mismatches as TSV with a one-line header.

    rows: iterable of (utterance id, EditStats from frame_errors).
    """
    return _report("id\twrong\tframes\tframe_error_rate", lambda st: (st.total, st.ref_len), rows)
