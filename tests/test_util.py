import decimal
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit.util import (
    canonical_json,
    derive_seed,
    round_half_away,
    round_half_even,
    write_text_atomic,
)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, "a", 3) == derive_seed(7, "a", 3)

    def test_tag_order_matters(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "b", "a")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123456789, "x") < 2 ** 64


class TestRounding:
    def test_half_even_ties(self):
        assert round_half_even(0.125, 2) == 0.12
        assert round_half_even(0.135, 2) == 0.14
        assert round_half_even(2.5, 0) == 2.0
        assert round_half_even(3.5, 0) == 4.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1000, 1000, allow_nan=False))
    def test_half_even_matches_decimal_oracle(self, value):
        expected = float(decimal.Decimal(repr(value)).quantize(
            decimal.Decimal("0.01"), rounding=decimal.ROUND_HALF_EVEN))
        assert round_half_even(value, 2) == expected

    def test_half_away_ties_leave_the_origin(self):
        arr = np.array([0.5, 1.5, -0.5, -1.5, 2.4, -2.4])
        out = round_half_away(arr)
        assert out.tolist() == [1, 2, -1, -2, 2, -2]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_half_away_matches_scalar_reference(self, value):
        import math
        expected = math.floor(abs(value) + 0.5) * (1 if value >= 0 else -1)
        assert round_half_away(np.array([value]))[0] == expected


class TestCanonicalJson:
    def test_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_no_spaces(self):
        assert " " not in canonical_json({"a": [1, 2, {"b": 3}]})


class TestAtomicWrites:
    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "x.txt"
        write_text_atomic(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "x.txt"
        write_text_atomic(path, "a long first version\n")
        write_text_atomic(path, "short\n")
        assert path.read_text() == "short\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        write_text_atomic(tmp_path / "x.txt", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]
