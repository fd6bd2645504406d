from collections import Counter
from itertools import product

import pytest

from qnarayana.dyckoracle import (
    MAX_ENUM,
    MAX_QT,
    MAX_SYMMETRIC,
    PathStats,
    enumerate_dyck,
    enumerate_symmetric,
    is_dyck_path,
    is_symmetric,
    path_stats,
    qt_distribution,
    reverse_complement,
    symmetric_valley_distribution,
)
from qnarayana.exactalg import Polynomial
from qnarayana.narayana import binomial, catalan_number, narayana_number
from qnarayana.qcomb import QVAR


def Q(*coeffs):
    return Polynomial(QVAR, coeffs)


class TestEnumeration:
    def test_counts(self):
        assert list(enumerate_dyck(0)) == [""]
        assert len(list(enumerate_dyck(3))) == 5
        assert len(list(enumerate_dyck(5))) == 42

    def test_counts_up_to_ten(self):
        for n in range(11):
            assert sum(1 for _ in enumerate_dyck(n)) == catalan_number(n)

    def test_paths_are_valid_unique_sorted(self):
        for n in range(7):
            paths = list(enumerate_dyck(n))
            assert all(is_dyck_path(p) for p in paths)
            assert len(set(paths)) == len(paths)
            assert paths == sorted(paths)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            next(enumerate_dyck(MAX_ENUM + 1))
        with pytest.raises(ValueError):
            next(enumerate_dyck(-1))


class TestStats:
    def test_examples(self):
        assert path_stats("UUDD") == PathStats(0, 0)
        assert path_stats("UDUD") == PathStats(1, 2)
        assert path_stats("UDUDUD") == PathStats(2, 6)

    def test_maj_zero_iff_no_valleys(self):
        for path in enumerate_dyck(5):
            stats = path_stats(path)
            assert (stats.maj == 0) == (stats.valleys == 0)

    def test_valley_bound(self):
        for n in range(1, 7):
            for path in enumerate_dyck(n):
                assert path_stats(path).valleys <= n - 1


def _reference_stats(word):
    """Valley count and major index, one pair of adjacent steps at a time."""
    pairs = [i + 1 for i in range(len(word) - 1) if word[i] == "D" and word[i + 1] == "U"]
    return len(pairs), sum(pairs)


def _reference_reverse_complement(word):
    return "".join({"U": "D", "D": "U"}[step] for step in reversed(word))


def _words():
    """Every Dyck path with n <= 10, and every symmetric path with n <= 14 with its first half."""
    for n in range(11):
        yield from enumerate_dyck(n)
    for n in range(15):
        for path in enumerate_symmetric(n):
            yield path
            yield path[:n]


class TestAgainstPerStepReference:
    def test_path_stats(self):
        for word in _words():
            assert path_stats(word) == PathStats(*_reference_stats(word)), word

    def test_valleys_are_the_du_factors(self):
        # symmetric_valley_distribution counts valleys as path.count("DU")
        paths = [path for n in range(11) for path in enumerate_dyck(n)]
        paths += [path for n in range(15) for path in enumerate_symmetric(n)]
        for path in paths:
            assert path.count("DU") == path_stats(path).valleys, path

    def test_reverse_complement(self):
        for word in _words():
            assert reverse_complement(word) == _reference_reverse_complement(word), word

    @pytest.mark.parametrize("word", ["UXD", "X", "UDu", "UD D"])
    def test_reverse_complement_refuses_other_steps(self, word):
        with pytest.raises(ValueError, match="'U' or 'D'"):
            reverse_complement(word)


class TestQtDistribution:
    def test_examples(self):
        assert qt_distribution(1) == {0: Q(1)}
        assert qt_distribution(2) == {0: Q(1), 1: Q(0, 0, 1)}
        assert qt_distribution(3) == {0: Q(1), 1: Q(0, 0, 1, 1, 1), 2: Q(*([0] * 6 + [1]))}

    def test_empty_path(self):
        assert qt_distribution(0) == {0: Q(1)}

    def test_q1_collapse(self):
        for n in range(1, 9):
            table = qt_distribution(n)
            for k, poly in table.items():
                assert poly(1) == narayana_number(n, k)

    def test_equals_the_binned_path_stats(self):
        # the walk's tallies against path_stats on every word, at every n the guard allows
        for n in range(MAX_QT + 1):
            rows = {k: [0] * (n * n + 1) for k in range(max(n - 1, 0) + 1)}
            for (valleys, maj), count in Counter(map(path_stats, enumerate_dyck(n))).items():
                rows[valleys][maj] = count
            assert qt_distribution(n) == {k: Q(*row) for k, row in rows.items()}, n

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            qt_distribution(MAX_QT + 1)
        with pytest.raises(ValueError):
            qt_distribution(-1)


class TestSymmetric:
    def test_reverse_complement(self):
        assert reverse_complement("UUDUDD") == "UUDUDD"
        assert reverse_complement("UUDDUD") == "UDUUDD"

    def test_involution(self):
        for n in range(7):
            for path in enumerate_dyck(n):
                assert reverse_complement(reverse_complement(path)) == path

    def test_examples(self):
        assert list(enumerate_symmetric(3)) == ["UDUDUD", "UUDUDD", "UUUDDD"]
        assert list(enumerate_symmetric(0)) == [""]
        assert len(list(enumerate_symmetric(4))) == 6

    def test_matches_filtering(self):
        for n in range(9):
            direct = list(enumerate_symmetric(n))
            filtered = [p for p in enumerate_dyck(n) if is_symmetric(p)]
            assert direct == filtered

    def test_counts(self):
        for n in range(13):
            assert sum(1 for _ in enumerate_symmetric(n)) == binomial(n, n // 2)

    def test_both_enumerators_match_filtering_every_word(self):
        # itertools.product walks the words over "DU" in ascending ASCII order
        for n in range(8):
            words = ["".join(w) for w in product("DU", repeat=2 * n)]
            dyck = [w for w in words if is_dyck_path(w)]
            assert list(enumerate_dyck(n)) == dyck
            assert list(enumerate_symmetric(n)) == [w for w in dyck if is_symmetric(w)]

    def test_distribution_examples(self):
        assert symmetric_valley_distribution(3) == {0: 1, 1: 1, 2: 1}
        assert symmetric_valley_distribution(4) == {0: 1, 1: 2, 2: 2, 3: 1}
        assert symmetric_valley_distribution(1) == {0: 1}

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            next(enumerate_symmetric(MAX_SYMMETRIC + 1))
        with pytest.raises(ValueError, match="guard"):
            symmetric_valley_distribution(MAX_SYMMETRIC + 1)

