from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commonground import Strength, defeats, min_strength

ALL = list(Strength)
CHAIN = [Strength.HYPOTHESIS, Strength.DEFAULT, Strength.INFERENCE,
         Strength.LINGUISTIC, Strength.PHYSICAL]

strengths = st.sampled_from(ALL)


def test_exactly_five_values_in_chain_order():
    assert ALL == CHAIN
    for i, a in enumerate(CHAIN):
        for j, b in enumerate(CHAIN):
            assert (a < b) == (i < j)
            assert (a == b) == (i == j)


def test_order_is_transitive_and_antisymmetric():
    for a in ALL:
        for b in ALL:
            assert not (a < b and b < a)
            for c in ALL:
                if a < b and b < c:
                    assert a < c


def test_labels_render_lowercase():
    assert [s.label for s in ALL] == [
        "hypothesis", "default", "inference", "linguistic", "physical"]
    for s in ALL:  # traces render strengths with str() and f-strings
        assert str(s) == f"{s}" == s.label == s.name.lower()


def test_min_strength_examples():
    assert min_strength([Strength.LINGUISTIC, Strength.LINGUISTIC,
                         Strength.LINGUISTIC, Strength.DEFAULT]) is Strength.DEFAULT
    assert min_strength([Strength.HYPOTHESIS]) is Strength.HYPOTHESIS
    assert min_strength([Strength.PHYSICAL, Strength.HYPOTHESIS,
                         Strength.LINGUISTIC]) is Strength.HYPOTHESIS


def test_min_strength_rejects_empty():
    with pytest.raises(ValueError):
        min_strength([])


@given(st.lists(strengths, min_size=1, max_size=6))
def test_min_strength_is_a_lower_bound_and_member(values):
    m = min_strength(values)
    assert m in values
    assert all(m <= v for v in values)


@given(st.lists(strengths, min_size=1, max_size=4))
def test_min_strength_permutation_invariant(values):
    results = {min_strength(list(p)) for p in permutations(values)}
    assert len(results) == 1
    assert min_strength(values + values) is min_strength(values)


def test_defeats_examples():
    assert defeats(Strength.LINGUISTIC, Strength.INFERENCE)
    assert not defeats(Strength.DEFAULT, Strength.DEFAULT)
    assert not defeats(Strength.HYPOTHESIS, Strength.PHYSICAL)


def test_defeats_is_a_strict_total_order():
    for a in ALL:
        for b in ALL:
            outcomes = [defeats(a, b), defeats(b, a), a == b]
            assert outcomes.count(True) == 1
