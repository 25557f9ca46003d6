from collections import Counter

from annulus_tate.decat import check_congruences, quadruples, state_sum
from annulus_tate.khovanov import Theory, homology, summed
from annulus_tate.links import close_braid, double_cover, parse_braid_word

from conftest import at_t_minus_one


def _tables(text, strands):
    """AKh tables of the quotient closure and of its 2-periodic cover."""
    word = parse_braid_word(text, strands)
    return (
        homology(close_braid(word), Theory.AKH),
        homology(double_cover(word), Theory.AKH),
    )


def _flags(report):
    return report.graded_ok, report.murasugi_ok, report.jones_ok


def test_quadruple_serialization_sorted():
    p = {(1, 0, 0): 2, (0, -1, 3): 1}
    assert quadruples(p) == [[0, -1, 3, 1], [1, 0, 0, 2]]


def test_state_sum_unknot():
    assert state_sum(close_braid(parse_braid_word("", 1))) == {(0, 1, 1): 1, (0, -1, -1): 1}


def test_state_sum_stabilized_unknot():
    # q (qx + 1/(qx))^2 + t q^2 (q + 1/q)
    expected = {(0, 3, 2): 1, (0, 1, 0): 2, (0, -1, -2): 1, (1, 3, 0): 1, (1, 1, 0): 1}
    bracket = state_sum(close_braid(parse_braid_word("1", 2)))
    assert bracket == expected
    assert at_t_minus_one(bracket) == {(3, 2): 1, (3, 0): -1, (1, 0): 1, (-1, -2): 1}


def test_homology_poly_values():
    stab = homology(close_braid(parse_braid_word("1", 2)), Theory.AKH)
    assert quadruples(stab) == [[0, -1, -2, 1], [0, 1, 0, 1], [0, 3, 2, 1], [1, 3, 0, 1]]
    hopf = homology(close_braid(parse_braid_word("1 1", 2)), Theory.AKH)
    assert quadruples(hopf) == [
        [0, 0, -2, 1], [0, 2, 0, 1], [0, 4, 2, 1], [1, 4, 0, 1], [2, 4, 0, 1], [2, 6, 0, 1]
    ]
    assert quadruples({}) == []


def test_euler_characteristic_identity():
    for text, m in [("", 1), ("1", 2), ("1 1", 2), ("-1 2", 3), ("1 -1", 2)]:
        d = close_braid(parse_braid_word(text, m))
        assert at_t_minus_one(state_sum(d)) == at_t_minus_one(homology(d, Theory.AKH)), text


def test_state_sum_multiplicative_under_split_union():
    def product(a, b):
        out = Counter()
        for (t1, q1, x1), c1 in a.items():
            for (t2, q2, x2), c2 in b.items():
                out[t1 + t2, q1 + q2, x1 + x2] += c1 * c2
        return {exp: c for exp, c in out.items() if c}

    # sigma_1 in B4 is the split union of its B2 closure and two unknots
    small = state_sum(close_braid(parse_braid_word("1", 2)))
    big = state_sum(close_braid(parse_braid_word("1", 4)))
    circle = {(0, 1, 1): 1, (0, -1, -1): 1}
    assert big == product(product(small, circle), circle)


def test_congruences_worked_example():
    quotient, cover = _tables("1", 2)
    assert check_congruences(quotient, cover).ok
    # V_L(1, q, 1/q) = 3q + q^3
    quotient_j1 = summed(quotient, lambda i, j, k: j - k)
    assert quotient_j1 == {1: 3, 3: 1}
    square = Counter()
    for a, ca in quotient_j1.items():
        for b, cb in quotient_j1.items():
            square[a + b] += ca * cb
    assert {e for e, c in square.items() if c % 2} == {2, 6}
    cover_j1 = summed(cover, lambda i, j, k: j - k)
    assert {e for e, c in cover_j1.items() if c % 2} == {2, 6}
    # V_cover(1, q, 1) = 1 + q^2 + 3 q^4 + q^6
    assert summed(cover, lambda i, j, k: j) == {0: 1, 2: 1, 4: 3, 6: 1}
    # V_L(1, q^2, 1/q) = 1 + q^2 + q^4 + q^6
    assert summed(quotient, lambda i, j, k: 2 * j - k) == {0: 1, 2: 1, 4: 1, 6: 1}


def test_congruences_fail_on_an_odd_rank_change():
    quotient, cover = _tables("1", 2)
    for bump, ok in ((1, False), (2, True)):
        for key in quotient:
            bumped = {**quotient, key: quotient[key] + bump}
            assert _flags(check_congruences(bumped, cover)) == (ok,) * 3, key
        for key in cover:
            bumped = {**cover, key: cover[key] + bump}
            assert _flags(check_congruences(quotient, bumped)) == (ok,) * 3, key


def test_congruences_empty_word():
    assert check_congruences(*_tables("", 2)).ok


def test_congruences_negative_word():
    assert check_congruences(*_tables("-1", 2)).ok


def test_congruences_across_small_words():
    for text, m in [("1 1", 2), ("-1 1", 2), ("1 2", 3), ("-1 -2", 3)]:
        assert check_congruences(*_tables(text, m)).ok, text
