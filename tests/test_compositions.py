"""Tests for composition bookkeeping, diagram statistics and markings."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qtkostka.compositions import (
    MarkedDiagram,
    _tail_orbit,
    all_markings,
    arm,
    box_enumeration,
    boxes,
    canonicalize,
    column,
    compositions_of,
    format_composition,
    format_marked,
    lambda_star,
    leg,
    marking_stats,
    omega_star,
    orbit,
    pad,
    parse_composition,
    parse_marked,
    partition_length,
    sorting_data,
    swap,
    weight,
)

comps = st.lists(st.integers(0, 4), max_size=5).map(tuple)


def test_canonicalize():
    assert canonicalize((1, 0, 0)) == (1,)
    assert canonicalize((0, 1, 0)) == (0, 1)
    assert canonicalize(()) == ()
    assert canonicalize([2, 0, 1]) == (2, 0, 1)
    with pytest.raises(ValueError):
        canonicalize((1, -1))


def test_weight_length_pad():
    assert weight((2, 0, 1)) == 3
    assert pad((1,), 3) == (1, 0, 0)
    assert pad((1, 2, 3), 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        pad((1, 2, 3), 2)


def test_swap_exchanges_adjacent_entries_and_trims():
    assert swap((2,), 1) == (0, 2)
    assert swap((0, 2), 1) == (2,)
    assert swap((1, 2, 3), 2) == (1, 3, 2)
    assert swap((1, 2), 2) == (1, 0, 2)
    assert swap((1,), 3) == (1,)


def test_partition_length():
    # shortest head after which the rest reads as a partition
    assert partition_length(()) == 0
    assert partition_length((3, 1)) == 0
    assert partition_length((1, 1, 1, 1)) == 0
    assert partition_length((0, 2)) == 1
    assert partition_length((0, 0, 0, 4)) == 3
    assert partition_length((2, 0, 1)) == 2


def test_sorting_data():
    sd = sorting_data((0, 2, 1), 3)
    assert sd.images == (3, 1, 2)
    assert sd.inversions == 2
    assert sorting_data((), 3).images == (1, 2, 3)
    assert sorting_data((), 3).inversions == 0
    assert sorting_data((1, 1), 3).inversions == 0  # ties sort stably
    assert sorting_data((0, 1), 2).inversions == 1


def test_arm_leg_column():
    lam = (2, 2, 1)
    assert arm(lam, (1, 1)) == 1
    assert arm(lam, (1, 2)) == 0
    assert leg(lam, (1, 2)) == 1
    assert leg(lam, (2, 2)) == 0
    assert column(lam, (1, 1)) == 3
    with pytest.raises(ValueError):
        arm(lam, (3, 2))
    # composition diagrams: rows above count through lam_k + 1
    assert leg((1, 2), (2, 2)) == 1
    assert leg((1, 2), (2, 1)) == 1


def test_boxes_and_enumeration():
    assert boxes((2, 1)) == [(1, 1), (1, 2), (2, 1)]
    order, cols = box_enumeration((2, 1))
    assert order == ((1, 2), (1, 1), (2, 1))  # rightmost column first
    assert cols == (1, 2, 2)
    assert box_enumeration(()) == ((), ())
    # memoized: both parts are tuples, so no caller can change the memo
    assert box_enumeration((2, 1)) is box_enumeration((2, 1))


def test_marking_stats_is_memoized():
    d = MarkedDiagram((2, 2, 1), frozenset({(1, 1), (3, 1)}))
    assert marking_stats(d) is marking_stats(MarkedDiagram((2, 2, 1), frozenset({(3, 1), (1, 1)})))


def test_c_word_star_recursion():
    for lam in [(2, 1), (0, 2), (3, 1, 1), (2, 2, 1), (1, 0, 2)]:
        star, m, _ = lambda_star(lam)
        assert m == len(lam)
        assert box_enumeration(lam)[1] == box_enumeration(star)[1] + (len(lam),)


def test_lambda_star():
    star, m, a = lambda_star((2, 1))
    assert star == (0, 2) and m == 2 and a == 1
    star, m, a = lambda_star((0, 2))
    assert star == (1,) and m == 2 and a == 2
    star, m, a = lambda_star((1,))
    assert star == () and m == 1 and a == 1


def test_omega_star_round_trip():
    assert omega_star((1,), 2) == (0, 2)
    assert omega_star((), 2) == (0, 1)
    # at full length n, lambda* undoes omega*
    for lam in [(), (1,), (2, 1), (0, 2, 1)]:
        n = max(len(lam) + 1, 3)
        assert lambda_star(omega_star(lam, n))[:2] == (lam, n)


def test_marked_diagram_validation():
    d = MarkedDiagram((2, 2, 1), frozenset({(1, 2)}))
    assert marking_stats(d) == (1, 2)
    assert marking_stats(MarkedDiagram((2, 2, 1), frozenset({(2, 2)}))) == (1, 1)
    assert marking_stats(MarkedDiagram((2, 2, 1), frozenset())) == (0, 0)
    with pytest.raises(ValueError):
        MarkedDiagram((2, 1), frozenset({(2, 2)}))


def test_all_markings():
    lam = (2, 1)
    ms = list(all_markings(lam))
    assert len(ms) == 2 ** 3
    assert len({format_marked(d) for d in ms}) == len(ms)
    assert all(d.shape == lam for d in ms)


def test_string_forms():
    assert format_composition((2, 0, 1)) == "2,0,1"
    assert parse_composition("2,0,1") == (2, 0, 1)
    assert parse_composition("") == ()
    assert parse_composition("1,0") == (1,)
    with pytest.raises(ValueError):
        parse_composition("1,x")
    d = parse_marked("2,2,1|1.2,2.2")
    assert d.shape == (2, 2, 1) and d.marked == frozenset({(1, 2), (2, 2)})
    assert parse_marked(format_marked(d)) == d
    assert parse_marked("2,1|") == MarkedDiagram((2, 1), frozenset())


def test_arrangements_match_distinct_permutations():
    # _tail_orbit places the first k entries, sorts the rest decreasing and
    # counts the strict ascending pairs of the arrangement
    tails = {
        pad(lam, n)[m:]
        for n in range(1, 7)
        for d in range(5)
        for lam in compositions_of(d, n)
        for m in range(n + 1)
    }
    for tail in tails:
        for k in range(len(tail) + 1):
            want = []
            for mid in oracles.distinct_permutations(tail, k):
                rest = list(tail)
                for x in mid:
                    rest.remove(x)
                t = mid + tuple(sorted(rest, reverse=True))
                ascents = sum(1 for i in range(len(t)) for j in range(i + 1, len(t)) if t[i] < t[j])
                want.append((canonicalize(t), ascents))
            assert list(_tail_orbit(tail, k)) == want, (tail, k)


def test_orbit_keys():
    # the whole orbit of (2,1) past m=1 at rank 4, with inversion offsets
    assert sorted(orbit((2, 1), 1, 4)) == [((2, 0, 0, 1), 2), ((2, 0, 1), 1), ((2, 1), 0)]
    # its representatives for m=2 only
    assert sorted(orbit((2, 1), 1, 4, 1)) == [((2, 0, 1), 1), ((2, 1), 0)]


@given(comps, st.integers(0, 5), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_orbit_shift_is_the_sorting_data_difference(raw, m, extra):
    # the ascending pairs of the tail against inv(kappa) - inv(tau)
    p = canonicalize(raw)
    n = max(len(p), m) + extra
    m = min(m, n)
    head = p[:m] + (0,) * (m - len(p[:m]))
    tau = canonicalize(head + tuple(sorted(pad(p, n)[m:], reverse=True)))
    base = sorting_data(tau, n).inversions
    for k in range(n - m + 1):
        for key, shift in orbit(tau, m, n, k):
            assert shift == sorting_data(key, n).inversions - base, (tau, m, n, key)
            assert key == canonicalize(key)


def test_orbit_is_one_memoized_tuple_per_key():
    walk = orbit((2, 1), 1, 4)
    assert isinstance(walk, tuple)
    assert orbit((2, 1), 1, 4) is walk and orbit((2, 1), 1, 4, 3) is walk
    assert orbit((2, 1), 1, 4, 1) is orbit((2, 1), 1, 4, 1) is not walk


def test_swap_and_omega_star_trim_like_canonicalize():
    # both are built from a valid composition, so trimming is all they need
    count = 0
    for n in range(2, 7):
        for d in range(5):
            for lam in compositions_of(d, n):
                p = pad(lam, n)
                assert omega_star(lam, n) == canonicalize(p[1:] + (p[0] + 1,)), (lam, n)
                for i in range(1, n):
                    want = canonicalize(p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :])
                    assert swap(lam, i) == want, (lam, i)
                    count += 1
    assert count > 1000


def test_compositions_of():
    assert compositions_of(0, 3) == [()]
    assert set(compositions_of(2, 2)) == {(2,), (1, 1), (0, 2)}
    assert len(compositions_of(4, 4)) == 35
    for lam in compositions_of(3, 4):
        assert weight(lam) == 3 and len(lam) <= 4
        assert canonicalize(lam) == lam


def test_compositions_of_refuses_a_negative_length():
    # a negative cap is refused up front rather than recursed on
    assert compositions_of(0, 0) == [()] and compositions_of(2, 0) == []
    for max_len in (-1, -5):
        with pytest.raises(ValueError, match="nonnegative"):
            compositions_of(2, max_len)


@given(comps)
@settings(max_examples=100, deadline=None)
def test_canonicalize_idempotent(raw):
    lam = canonicalize(raw)
    assert canonicalize(lam) == lam
    assert weight(lam) == sum(raw)
    assert parse_composition(format_composition(lam)) == lam


@given(comps, st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_omega_star_inverts(raw, extra):
    lam = canonicalize(raw)
    n = max(len(lam) + 1, extra)
    assert lambda_star(omega_star(lam, n))[:2] == (lam, n)


def test_marked_diagram_is_a_read_only_tuple_that_pickles():
    d = MarkedDiagram((2, 1), frozenset({(1, 2)}))
    with pytest.raises(AttributeError):
        d.marked = frozenset()
    # pickling is kept as API
    assert pickle.loads(pickle.dumps(d)) == d
    with pytest.raises(ValueError, match="outside"):
        MarkedDiagram((2, 1), [(1, 3)])
    with pytest.raises(ValueError, match="outside"):
        MarkedDiagram((), frozenset({(1, 1)}))


def test_marked_diagram_keeps_its_marks_as_a_frozenset():
    from qtkostka.kostka import marked_kostka

    want = MarkedDiagram((2, 1), frozenset({(1, 1)}))
    for marks in ([(1, 1)], {(1, 1)}, ((1, 1),)):
        d = MarkedDiagram((2, 1), marks)
        assert type(d.marked) is frozenset and d == want and hash(d) == hash(want)
        assert marked_kostka((2, 1), d) == marked_kostka((2, 1), want)
    assert type(want._replace(marked=[(1, 2)]).marked) is frozenset


def test_marked_diagram_replace_keeps_the_box_check():
    with pytest.raises(ValueError, match="outside"):
        MarkedDiagram((1,), frozenset())._replace(marked=frozenset({(5, 5)}))
    d = MarkedDiagram((2, 1), frozenset())._replace(marked=frozenset({(1, 2)}))
    assert type(d) is MarkedDiagram and d == MarkedDiagram((2, 1), frozenset({(1, 2)}))
    assert pickle.loads(pickle.dumps(d)) == d
