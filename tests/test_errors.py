"""The package's checks on the numbers that enter it: ``real`` for scalars
and ``finite_array`` for arrays share one type rule."""

import math

import numpy as np
import pytest

from planbench.errors import ValidationError, finite_array, real
from planbench.params import parse_params


@pytest.mark.parametrize("value", [0.5, 3, np.float64(0.5), np.int64(3), np.float32(0.5)])
def test_real_takes_finite_real_numbers(value):
    assert real(value, "x") == value
    assert type(real(value, "x")) is float


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, [1.0], np.array(1.0),
                                   math.nan, math.inf, -math.inf])
def test_real_rejects_everything_else(value):
    with pytest.raises(ValidationError, match=r"^x must be a finite real number, got"):
        real(value, "x")


def test_integer_beyond_the_float_range_rejected():
    with pytest.raises(OverflowError):
        real(10 ** 400, "x")
    with pytest.raises(ValidationError, match="OverflowError"):
        parse_params(f"common: {{edge_step: {10 ** 400}}}\n")


@pytest.mark.parametrize("value", [[1, 2.5], (np.int64(1), np.float64(2.5)),
                                   np.array([1.0, 2.5], dtype=np.float32)])
def test_finite_array_takes_real_entries(value):
    assert finite_array(value, "x", (2,)).tolist() == [1.0, 2.5]
    assert finite_array(np.array([1, 2]), "x", (2,)).tolist() == [1.0, 2.0]


@pytest.mark.parametrize("value", [[True, 0], ["1", 0], [None, 0], [[1.0], [False]],
                                   [np.bool_(True), 0], np.array([True, False])])
def test_finite_array_rejects_bools_and_strings(value):
    with pytest.raises(ValidationError, match=r"^x must hold real numbers, got"):
        finite_array(value, "x", (None, None))


def test_finite_array_rejects_an_integer_too_large_for_a_float():
    with pytest.raises(ValidationError, match=r"^x must be numeric"):
        finite_array([10 ** 400], "x", (1,))
