import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qpendulum.errors import DomainError, check_real, numeric_array


@pytest.mark.parametrize("value,low,strict", [
    (True, 0.0, False),
    (Decimal("1.5"), 0.0, False),
    ("1.5", 0.0, False),
    (None, 0.0, False),
    (1.5j, 0.0, False),
    (10**400, 0.0, False),
    (10**5000, 0.0, False),
    (-10**400, -math.inf, False),
    (math.nan, -math.inf, False),
    (math.inf, 0.0, False),
    (-math.inf, -math.inf, False),
    (-1e-300, 0.0, False),
    (0.0, 0.0, True),
], ids=["bool", "Decimal", "str", "None", "complex", "10**400", "10**5000", "-10**400",
        "nan", "inf", "-inf", "below-low", "at-low-strict"])
def test_check_real_rejects(value, low, strict):
    with pytest.raises(DomainError):
        check_real(value, "x", low, strict)


@pytest.mark.parametrize("value,low,strict,expected", [
    (0.0, 0.0, False, 0.0),
    (1e-300, 0.0, True, 1e-300),
    (-2.5, -math.inf, False, -2.5),
    (Fraction(1, 2), 0.0, True, 0.5),
    (3, 0.0, True, 3.0),
    (np.float32(0.25), 0.0, False, 0.25),
    (np.int64(7), 1.0, False, 7.0),
])
def test_check_real_returns_a_float(value, low, strict, expected):
    result = check_real(value, "x", low, strict)
    assert type(result) is float and result == expected


def test_numeric_array_copies_only_to_convert():
    floats, complexes = np.array([1.0, 2.0]), np.array([1.0j])
    assert numeric_array(floats, False) is floats
    assert numeric_array(complexes, True) is complexes
    assert numeric_array(floats, True).dtype == complex
    assert numeric_array([1, 2], False).dtype == float
