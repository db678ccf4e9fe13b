import pytest

from ghtree.weights import Weight, from_scaled


def test_ordering_is_exact_scaled_comparison():
    unit = 10 ** 10
    pairs = [(Weight(3, 5), Weight(3, 6)), (Weight(2, 999), Weight(3, 0)),
             (Weight(0, 0), Weight(0, 1))]
    for a, b in pairs:
        assert a < b
        assert a.scaled(unit) < b.scaled(unit)


def test_add_and_round_back():
    a = Weight(2, 7) + Weight(3, 11)
    assert a == Weight(5, 18)
    assert a.base == 5
    assert sum([Weight(1, 1), Weight(1, 2)]) == Weight(2, 3)


def test_parse_str_round_trip():
    for w in (Weight(0, 0), Weight(3, 0), Weight(12, 345)):
        assert Weight.parse(str(w)) == w
    assert Weight.parse("7") == Weight(7, 0)


@pytest.mark.parametrize("text", ["-3", "-3.0", "1.-5", "-0.5"])
def test_parse_rejects_negative(text):
    with pytest.raises(ValueError, match="negative"):
        Weight.parse(text)


def test_from_scaled():
    unit = 11 ** 10
    w = Weight(4, 123)
    assert from_scaled(w.scaled(unit), unit) == w
    assert from_scaled(9, 1) == Weight(9, 0)
