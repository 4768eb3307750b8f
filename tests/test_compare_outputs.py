import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


class TestNumericDiff:
    def test_csv_reports_largest_differences(self):
        old = b"week,wealth\n27,0.0\n28,2.0\n29,-4.0\n"
        new = b"week,wealth\n27,0.0\n28,2.000001\n29,-4.0001\n"
        got = compare_outputs.numeric_diff("static/wealth.csv", old, new)
        assert got == "max abs diff 1.000e-04, max rel diff 2.500e-05 over 6 numbers"

    def test_json_pairs_numbers_by_key(self):
        old = b'{"b": [1.0, 2.0], "a": "x", "c": NaN}'
        new = b'{"a": "x", "c": NaN, "b": [1.0, 2.5]}'
        got = compare_outputs.numeric_diff("stats.json", old, new)
        assert got == "max abs diff 5.000e-01, max rel diff 2.000e-01 over 3 numbers"

    def test_non_finite_against_a_number_is_infinite(self):
        got = compare_outputs.numeric_diff("x.json", b'{"a": 1.0}', b'{"a": NaN}')
        assert got == "max abs diff inf, max rel diff inf over 1 numbers"

    @pytest.mark.parametrize("name, old, new", [
        ("x.csv", b"a,b\n1,2\n", b"a,c\n1,2\n"),            # a header differs
        ("x.csv", b"a\n1\n", b"a\n1\n2\n"),                  # a row more
        ("x.json", b'{"a": 1.0}', b'{"b": 1.0}'),            # a key differs
        ("x.json", b'{"a": true}', b'{"a": false}'),         # booleans are not numbers
        ("x.txt", b"1.0\n", b"2.0\n"),                       # neither CSV nor JSON
        ("x.json", b"{", b"{}"),                             # does not parse
    ])
    def test_files_that_do_not_line_up_give_none(self, name, old, new):
        assert compare_outputs.numeric_diff(name, old, new) is None
