from commonground import Strength, defeats

ALL = list(Strength)
CHAIN = [Strength.HYPOTHESIS, Strength.DEFAULT, Strength.INFERENCE,
         Strength.LINGUISTIC, Strength.PHYSICAL]


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


def test_defeats_examples():
    assert defeats(Strength.LINGUISTIC, Strength.INFERENCE)
    assert not defeats(Strength.DEFAULT, Strength.DEFAULT)
    assert not defeats(Strength.HYPOTHESIS, Strength.PHYSICAL)


def test_defeats_is_a_strict_total_order():
    for a in ALL:
        for b in ALL:
            outcomes = [defeats(a, b), defeats(b, a), a == b]
            assert outcomes.count(True) == 1
