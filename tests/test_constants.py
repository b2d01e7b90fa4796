import hashlib
import json
from fractions import Fraction

import pytest

from ffvojta.constants import (
    EmptyFactorization,
    InvalidInput,
    cbrt_decimal,
    irred_ledger,
    pair_ledger,
    theta_ledger,
)
from ffvojta.verify import RunConfig, build_context


class TestIrredLedger:
    def test_golden_values(self):
        led = irred_ledger(1, 1, 1, Fraction(1, 2))
        assert led.c3 == 14
        assert led.c4 == 2
        assert led.c5 == 118
        assert led.c6 == 228
        assert led.c_v == 2916

    def test_height_zero(self):
        assert irred_ledger(1, 1, 0, 1).c3 == 12

    def test_degree_two(self):
        assert irred_ledger(2, 1, 0, 1).c4 == 4

    def test_derived_chain(self):
        # independent recomputation of the chained entries at (1, 1, 0)
        led = irred_ledger(1, 1, 0, Fraction(1))
        assert led.c5 == led.c4 * (2 * led.c3 * led.c4 + 3) == 102
        assert led.c6 == 2 * led.c4 * (4 * led.c3 + 1) == 196
        assert led.c_v == led.c6 + 8 * led.c3 * led.c4 ** 3 * 3 == 2500
        assert led.c7_cubed == 27 * 32 * led.c4 ** 8 * (led.c5 + led.c_v)
        assert led.c8 == 36 * (1 + led.c_v) == 36 * 2501
        assert led.c9 == max(led.c3, 8 * led.c7_cubed, 4 * led.c4 * led.c8)
        assert led.c10 == max(led.c3, 4 * led.c4 * led.c8)
        assert led.c1 == led.c9 >= led.c10
        assert led.c2 == max(2, 8 * led.c4 ** 3)
        assert led.step5_threshold == 2 * led.c3 * led.c4

    def test_c2_includes_degree(self):
        # huge eps drives the second term to zero; c2 falls back to deg A
        led = irred_ledger(2, 3, 1, Fraction(10 ** 9))
        assert led.c2 == 5

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            irred_ledger(0, 0, 1, 1)
        with pytest.raises(InvalidInput):
            irred_ledger(1, 1, 1, 0)
        with pytest.raises(InvalidInput):
            irred_ledger(1, 1, -1, 1)

    def test_json_keys(self):
        # every field in order, the cube root's rendering under c7
        assert list(irred_ledger(1, 1, 1, Fraction(1, 2)).to_json()) == [
            "deg_x", "deg_y", "h", "eps", "c3", "c4", "c5", "c6", "c_v",
            "c7_cubed", "c7", "c8", "c9", "c10", "c1", "c2", "step5_threshold"]

    def test_cube_rendering_roundtrip(self):
        for led in (irred_ledger(1, 1, 1, 1), irred_ledger(2, 2, 3, Fraction(1, 7))):
            rendered = Fraction(led.c7_decimal.replace(".", "")) / \
                Fraction(10 ** 18)
            # |rendered - cbrt| <= 1e-9 checked in cubed form:
            # (rendered +- 1e-9)^3 must bracket the exact cube
            lo = (rendered - Fraction(1, 10 ** 9)) ** 3
            hi = (rendered + Fraction(1, 10 ** 9)) ** 3
            assert lo <= led.c7_cubed <= hi


class TestPairLedger:
    def test_golden_values(self):
        led = pair_ledger(1, 1, 0, 0, Fraction(1, 2))
        assert led.d3 == 0
        assert led.d4 == 4
        assert led.d5 == 12
        assert led.d6 == 8
        assert led.d_v == 8

    def test_more_examples(self):
        assert pair_ledger(1, 1, 1, 1, 1).d3 == 8
        assert pair_ledger(2, 2, 0, 0, 1).d4 == 16

    def test_derived_chain(self):
        led = pair_ledger(2, 1, 1, 0, Fraction(1, 3))
        assert led.d3 == 2 * 3 * 1 == 6
        assert led.d4 == 9
        assert led.d5 == led.d4 * (2 * led.d3 * led.d4 + 3)
        assert led.d6 == 2 * led.d4 * (4 * led.d3 + 1)
        assert led.d_v == led.d6 + 4 * led.d3 * led.d4 ** 3 * (2 + 3)
        assert led.d7_cubed == 27 * 32 * led.d4 ** 8 * (led.d5 + led.d_v)
        assert led.d8 == 36 * (1 + led.d_v)
        assert led.d2 == 8 * led.d4 ** 3 * 3

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            pair_ledger(0, 1, 0, 0, 1)

    def test_report_bytes(self):
        # no verify golden has two factors: pin the ledger JSON of one
        # that does, byte for byte
        cfg = RunConfig(poly="(X+Y+1)*(X*Y-t)", places=("0", "inf"),
                        epsilon="1/2",
                        factors=(("X+Y+1", True), ("X*Y-t", True)))
        ledger = build_context(cfg).ledger.to_json()
        assert list(ledger["pairs"][0]) == [
            "indices", "deg1", "deg2", "h1", "h2", "eps", "d3", "d4", "d5",
            "d6", "d_v", "d7_cubed", "d7", "d8", "d1", "d2"]
        digest = hashlib.sha256(
            json.dumps(ledger, indent=2).encode()).hexdigest()
        assert digest == ("bc451f740ad4da071595048fce7033433be1b065f26673d7"
                          "038dcd4e5e86618a")


class TestThetaLedger:
    def test_single_factor(self):
        tl = theta_ledger([(1, 1, 0)], Fraction(1))
        eps_prime = Fraction(1, 2 * 9)
        led = irred_ledger(1, 1, 0, eps_prime)
        assert tl.eps_prime == eps_prime
        assert tl.theta1 == led.c1
        assert tl.theta2 == led.c2 == max(2, 8 * 8 / eps_prime)
        assert tl.theta1_source == "factor 0"
        assert not tl.pair_ledgers

    def test_two_identical_factors(self):
        single = theta_ledger([(1, 1, 1)], 1)
        double = theta_ledger([(1, 1, 1), (1, 1, 1)], 1)
        assert len(double.pair_ledgers) == 1
        assert double.theta2 >= single.theta2

    def test_two_factor_values(self):
        tl = theta_ledger([(1, 1, 0), (1, 1, 1)], Fraction(1))
        assert tl.deg_total == 4
        assert tl.eps_prime == Fraction(1, 50)
        c_values = [irred_ledger(1, 1, 0, tl.eps_prime).c1,
                    irred_ledger(1, 1, 1, tl.eps_prime).c1]
        d_value = pair_ledger(2, 2, 0, 1, tl.eps_prime).d1
        assert tl.theta1 == max(c_values + [d_value])
        d2 = pair_ledger(2, 2, 0, 1, tl.eps_prime).d2
        c2s = [irred_ledger(1, 1, 0, tl.eps_prime).c2,
               irred_ledger(1, 1, 1, tl.eps_prime).c2]
        assert tl.theta2 == max(c2s + [d2])

    def test_empty_rejected(self):
        with pytest.raises(EmptyFactorization):
            theta_ledger([], 1)

    def test_theta2_at_least_factor_degree(self):
        for factors in ([(1, 1, 0)], [(2, 1, 3)], [(1, 1, 0), (2, 2, 1)]):
            tl = theta_ledger(factors, Fraction(10 ** 12))
            assert tl.theta2 >= max(dx + dy for dx, dy, _ in factors)


class TestMonotonicity:
    def test_grid(self):
        count = 0
        for dx in (1, 2, 3):
            for dy in (1, 2):
                for h in (0, 1, 3, 5):
                    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(2),
                                Fraction(5)):
                        led = irred_ledger(dx, dy, h, eps)
                        bigger_h = irred_ledger(dx, dy, h + 1, eps)
                        bigger_d = irred_ledger(dx + 1, dy, h, eps)
                        smaller_eps = irred_ledger(dx, dy, h, eps / 2)
                        for name in ("c3", "c4", "c5", "c6", "c_v", "c8",
                                     "c9", "c10", "c1", "c2"):
                            assert getattr(bigger_h, name) >= getattr(led, name)
                            assert getattr(bigger_d, name) >= getattr(led, name)
                            assert getattr(smaller_eps, name) >= getattr(led, name)
                        count += 1
        assert count >= 96

    def test_pair_grid(self):
        count = 0
        for d1 in (1, 2, 3):
            for h1 in (0, 2):
                for h2 in (0, 1):
                    for eps in (Fraction(1, 3), Fraction(3)):
                        led = pair_ledger(d1, 1, h1, h2, eps)
                        assert pair_ledger(d1 + 1, 1, h1, h2, eps).d1 >= led.d1
                        assert pair_ledger(d1, 1, h1 + 1, h2, eps).d1 >= led.d1
                        assert pair_ledger(d1, 1, h1, h2, eps / 5).d1 >= led.d1
                        assert pair_ledger(d1, 1, h1, h2, eps / 5).d2 >= led.d2
                        count += 1
        assert count >= 24


def test_cbrt_decimal_small_values():
    assert cbrt_decimal(Fraction(27)).startswith("3.000000")
    assert cbrt_decimal(Fraction(0)) == "0." + "0" * 18
    assert cbrt_decimal(Fraction(1, 8)).startswith("0.500000")
