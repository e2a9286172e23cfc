import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordctc.metrics import (
    EditStats,
    edit_distance,
    error_rate,
    fer_report,
    frame_errors,
    pool,
    score_report,
)

SEQS = st.lists(st.sampled_from("abc"), max_size=6)


def oracle_min_edits(ref, hyp):
    """Cost-only Levenshtein, two-row form; independent of the backtrace DP."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j - 1] + (r != h), cur[j - 1] + 1, prev[j] + 1)
        prev = cur
    return prev[-1]


def exhaustive_min_edits(ref, hyp):
    """Plain recursion over all alignments; only usable for tiny sequences."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        exhaustive_min_edits(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
        exhaustive_min_edits(ref, hyp[1:]) + 1,
        exhaustive_min_edits(ref[1:], hyp) + 1,
    )


@functools.lru_cache(maxsize=None)
def exhaustive_split(ref, hyp):
    """Lexicographically least (edits, insertions + deletions, S, D, I) over
    all alignments, by plain recursion; only usable for tiny sequences."""
    if not ref or not hyp:
        return (len(ref) + len(hyp), len(ref) + len(hyp), 0, len(ref), len(hyp))
    wrong = ref[0] != hyp[0]
    e, n, s, d, i = exhaustive_split(ref[1:], hyp[1:])
    candidates = [(e + wrong, n, s + wrong, d, i)]
    e, n, s, d, i = exhaustive_split(ref[1:], hyp)
    candidates.append((e + 1, n + 1, s, d + 1, i))
    e, n, s, d, i = exhaustive_split(ref, hyp[1:])
    candidates.append((e + 1, n + 1, s, d, i + 1))
    return min(candidates)


class TestEditDistance:
    def test_single_deletion(self):
        st_ = edit_distance("abc", "ac")
        assert (st_.substitutions, st_.deletions, st_.insertions) == (0, 1, 0)

    def test_identity(self):
        st_ = edit_distance("abba", "abba")
        assert st_.total == 0 and st_.ref_len == 4

    def test_empty_sides(self):
        assert edit_distance("", "ab").insertions == 2
        assert edit_distance("ab", "").deletions == 2

    def test_substitution_preferred_on_ties(self):
        st_ = edit_distance("a", "b")
        assert (st_.substitutions, st_.deletions, st_.insertions) == (1, 0, 0)

    def test_counts_consistent(self):
        ref, hyp = "abcabc", "bcabca"
        st_ = edit_distance(ref, hyp)
        assert st_.total == oracle_min_edits(ref, hyp)
        assert st_.insertions - st_.deletions == len(hyp) - len(ref)
        assert st_.substitutions + st_.deletions <= st_.ref_len

    @given(SEQS, SEQS)
    @settings(max_examples=300, deadline=None)
    def test_matches_two_row_oracle(self, ref, hyp):
        assert edit_distance(ref, hyp).total == oracle_min_edits(ref, hyp)

    def test_matches_exhaustive_recursion_small(self):
        seqs = [
            "".join(p)
            for n in range(4)
            for p in itertools.product("abc", repeat=n)
        ]
        for ref in seqs:
            for hyp in seqs:
                assert edit_distance(ref, hyp).total == exhaustive_min_edits(ref, hyp)

    def test_split_matches_exhaustive_tie_rule(self):
        # among minimal alignments the fewest insertions plus deletions win
        seqs = ["".join(p) for n in range(5) for p in itertools.product("abc", repeat=n)]
        for ref in seqs:
            for hyp in seqs:
                st_ = edit_distance(ref, hyp)
                split = (st_.substitutions, st_.deletions, st_.insertions)
                assert split == exhaustive_split(ref, hyp)[2:], (ref, hyp)

    @given(SEQS, SEQS)
    @example(list("aacb"), list("cbc"))  # a greedy backtrace splits these asymmetrically
    @settings(max_examples=200, deadline=None)
    def test_symmetry_swaps_ins_del(self, ref, hyp):
        fwd = edit_distance(ref, hyp)
        rev = edit_distance(hyp, ref)
        assert fwd.total == rev.total
        assert fwd.insertions == rev.deletions
        assert fwd.deletions == rev.insertions

    @given(SEQS, SEQS, SEQS)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert (
            edit_distance(a, c).total
            <= edit_distance(a, b).total + edit_distance(b, c).total
        )


class TestErrorRate:
    def test_one_deletion_of_three(self):
        assert error_rate(EditStats(0, 1, 0, 3)) == pytest.approx(100 / 3)

    def test_zero(self):
        assert error_rate(EditStats(0, 0, 0, 5)) == 0.0

    def test_can_exceed_hundred(self):
        assert error_rate(EditStats(2, 0, 3, 2)) == 250.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            error_rate(EditStats(0, 0, 0, 0))

    def test_pooling_is_not_mean_of_rates(self):
        # 1 error over 1 word pools with 0 errors over 9 words to 10%,
        # while the mean of the two rates would be 50%
        a = edit_distance("x", "y")
        b = edit_distance("abcdefghi", "abcdefghi")
        pooled = pool([a, b])
        assert error_rate(pooled) == pytest.approx(10.0)
        assert (error_rate(a) + error_rate(b)) / 2 == pytest.approx(50.0)


class TestFrameErrorRate:
    def test_identical(self):
        assert error_rate(frame_errors("aaaa", "aaaa")) == 0.0

    def test_one_in_four(self):
        assert error_rate(frame_errors("aaaa", "aaab")) == 25.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_rate(frame_errors("aaa", "aa"))

    def test_random_rate_near_chance(self):
        rng = np.random.default_rng(0)
        k = 5
        ref = rng.integers(0, k, size=20000)
        hyp = rng.integers(0, k, size=20000)
        rate = error_rate(frame_errors(ref.tolist(), hyp.tolist()))
        assert abs(rate - 100 * (1 - 1 / k)) < 2.0


class TestReports:
    def test_score_report_shape(self):
        rows = [("u1", edit_distance("ab", "ab")), ("u2", edit_distance("ab", "b"))]
        text = score_report(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("id\t")
        assert len(lines) == 4
        assert lines[-1].startswith("ALL\t")
        assert lines[-1].endswith("25.0000")

    def test_fer_report_pooled(self):
        rows = [("u1", frame_errors("aaaa", "aaab")), ("u2", frame_errors("bbbb", "bbbb"))]
        text = fer_report(rows)
        assert text.strip().split("\n")[-1] == "ALL\t1\t8\t12.5000"
