"""Hand-worked cases for the benchmark's independent checker.

Run with: python3 -m pytest bench/test_checker.py
"""

from fractions import Fraction as F

import checker


def test_zariski_form_along_7_8_20():
    # 7 x y' - 8 y x' along (t^7, t^8 + t^20)
    #   = 7 t^7 (8 t^7 + 20 t^19) - 8 (t^8 + t^20) 7 t^6 = 84 t^26,
    # so v(7 X dY - 8 Y dX) = 27 = v0 + lambda with lambda = 20.
    y = {8: F(1), 20: F(1)}
    H = {(0, 1): F(-8)}
    G = {(1, 0): F(7)}
    assert checker.form_pullback(H, G, 7, y, 40) == {26: F(84)}
    assert checker.form_value(H, G, 7, y, 40) == 27
    # below the bound the form vanishes, so no value is claimed
    assert checker.form_value(H, G, 7, y, 26) is None


def test_dx_and_dy_forms():
    # X dX along (t^3, t^4): t^3 * 3 t^2 = 3 t^5, value 6
    assert checker.form_value({(1, 0): F(1)}, {}, 3, {4: F(1)}, 20) == 6
    # Y dY along (t^2, t^3): t^3 * 3 t^2 = 3 t^5, value 6
    assert checker.form_pullback({}, {(0, 1): F(1)}, 2, {3: F(1)}, 20) == {5: F(3)}


def test_function_pullback_and_order():
    # Y^2 - X^3 vanishes on the cusp (t^2, t^3) ...
    cusp = {(0, 2): F(1), (3, 0): F(-1)}
    assert checker.pullback(cusp, 2, {3: F(1)}, 30) == {}
    assert checker.function_value(cusp, 2, {3: F(1)}, 30) is None
    # ... and has order 7 on (t^2, t^3 + t^4): (t^3 + t^4)^2 - t^6 = 2 t^7 + t^8
    assert checker.pullback(cusp, 2, {3: F(1), 4: F(1)}, 30) == {7: F(2), 8: F(1)}
    assert checker.function_value(cusp, 2, {3: F(1), 4: F(1)}, 30) == 7
    # the bound cuts the series: only 2 t^7 is below t^8
    assert checker.pullback(cusp, 2, {3: F(1), 4: F(1)}, 8) == {7: F(2)}


def test_image_under_homothety_and_q():
    # (X, Y) -> (4 X, 8 Y + X^2) on (t^2, t^3): x = 4 t^2 = (2t)^2 and
    # y = 8 t^3 + t^4 = s^3 + s^4 / 16 with s = 2t.
    assert checker.image(2, {3: F(1)}, 2, {(2, 0): F(1)}, 20) == {3: F(1), 4: F(1, 16)}
    # r = 1, q = X Y on (t^3, t^4 + t^5): y + t^3 (t^4 + t^5)
    assert checker.image(3, {4: F(1), 5: F(1)}, 1, {(1, 1): F(1)}, 20) == {
        4: F(1), 5: F(1), 7: F(1), 8: F(1)
    }
    # the bound drops the terms at and above it
    assert checker.image(3, {4: F(1), 5: F(1)}, 1, {(1, 1): F(1)}, 8) == {
        4: F(1), 5: F(1), 7: F(1)
    }


def test_ideal_membership():
    assert checker.in_max_ideal_sq({(1, 1): F(1), (0, 2): F(3)})
    assert not checker.in_max_ideal_sq({(0, 1): F(1)})
    assert checker.in_ideal_x2_y({(2, 0): F(1), (0, 1): F(1)})
    assert not checker.in_ideal_x2_y({(1, 0): F(1)})


def test_char_exponents_and_conductor():
    assert checker.char_exponents(7, {8: F(1), 20: F(1)}) == [7, 8]
    assert checker.conductor([7, 8]) == 42  # (7 - 1)(8 - 1)
    # (t^6, t^9 + t^10): semigroup <6, 9, 19>, conductor 42
    assert checker.char_exponents(6, {9: F(1), 10: F(1), 11: F(1)}) == [6, 9, 10]
    assert checker.conductor([6, 9, 10]) == 42
    # <4, 6, 13> has gaps 1, 2, 3, 5, 7, 9, 11, 15, so conductor 16
    assert checker.conductor([4, 6, 7]) == 16
