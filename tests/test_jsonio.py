import pytest

from ptcontour.jsonio import canonical_dumps


@pytest.mark.parametrize("value,text", [
    (0.1, "0.1"), (1 / 3, "0.3333333333333333"), (2.0, "2.0"),
    (-0.0, "-0.0"), (1e-300, "1e-300"),
])
def test_floats_in_shortest_exact_repr(value, text):
    assert canonical_dumps({"x": value}) == f'{{\n  "x": {text}\n}}\n'
    assert float(text) == value


def test_keys_sorted_and_tuples_as_lists():
    assert canonical_dumps({"b": (1, None), "a": True}) \
        == '{\n  "a": true,\n  "b": [\n    1,\n    null\n  ]\n}\n'


def test_non_json_value_raises():
    with pytest.raises(TypeError):
        canonical_dumps({"x": 1j})
