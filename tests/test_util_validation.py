import pytest

from repro.util.validation import (
    check_index,
    check_positive,
    check_power_of_two,
    check_square,
    is_power_of_two,
    require,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive(1e-300, "x")

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(0, "x")

    def test_accepts_zero_when_not_strict(self):
        check_positive(0, "x", strict=False)

    def test_rejects_negative_when_not_strict(self):
        with pytest.raises(ValueError):
            check_positive(-1, "x", strict=False)


class TestCheckIndex:
    def test_accepts_bounds(self):
        check_index(0, 3)
        check_index(2, 3)

    @pytest.mark.parametrize("bad", [-1, 3, 100])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(IndexError):
            check_index(bad, 3)


class TestPowerOfTwo:
    @pytest.mark.parametrize("good", [1, 2, 4, 8, 256, 2**20])
    def test_powers(self, good):
        assert is_power_of_two(good)
        check_power_of_two(good, "p")

    @pytest.mark.parametrize("bad", [0, -2, 3, 6, 12, 255])
    def test_non_powers(self, bad):
        assert not is_power_of_two(bad)
        with pytest.raises(ValueError):
            check_power_of_two(bad, "p")


class TestCheckSquare:
    def test_accepts_square(self):
        check_square((4, 4))

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError):
            check_square(shape)
