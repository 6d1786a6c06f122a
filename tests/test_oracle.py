import math
import pathlib
from fractions import Fraction

import mpmath
import pytest

import unityroot
from unityroot import HPComplex, HPReal, InvalidN, trig_root, zeta_matches_trig
from conftest import exact

TOL_120 = Fraction(1, 2 ** 120)


class TestTrigValues:
    def test_quarter_turn_is_exactly_i(self):
        assert trig_root(4, 1).value == HPComplex.i()

    def test_whole_turn_is_one(self):
        assert trig_root(1, 0).value == HPComplex.one()
        assert trig_root(5, 5).value == HPComplex.one()

    def test_sixth_root(self):
        v = trig_root(6, 1).value
        assert abs(exact(v.re) - Fraction(1, 2)) <= TOL_120
        s3h = exact(HPReal.from_int(3).sqrt()) / 2
        assert abs(exact(v.im) - s3h) <= TOL_120

    def test_eighth_root_components(self):
        v = trig_root(8, 1).value
        want = exact(HPReal.from_ratio(1, 2).sqrt())
        assert abs(exact(v.re) - want) <= TOL_120
        assert abs(exact(v.im) - want) <= TOL_120

    def test_twelfth_root_components(self):
        v = trig_root(12, 1).value
        assert abs(exact(v.im) - Fraction(1, 2)) <= TOL_120
        s3h = exact(HPReal.from_int(3).sqrt()) / 2
        assert abs(exact(v.re) - s3h) <= TOL_120

    def test_negative_k_wraps(self):
        a = trig_root(12, -1).value
        b = trig_root(12, 11).value
        assert a == b

    def test_matches_machine_trig_loosely(self):
        for n in (3, 7, 16, 27, 32):
            for k in range(n):
                v = trig_root(n, k).value.to_complex()
                want = complex(math.cos(2 * math.pi * k / n),
                               math.sin(2 * math.pi * k / n))
                assert abs(v - want) < 1e-12

    def test_unit_modulus(self):
        for n in (5, 9, 13):
            for k in (1, n // 2):
                v = trig_root(n, k).value
                assert abs(exact(v.re) ** 2 + exact(v.im) ** 2 - 1) <= TOL_120

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            trig_root(0, 1)


class TestAccuracy:
    def test_within_one_unit_of_mpmath(self):
        # every component within 2**-precision of the exact value, and the
        # quadrant points k/n in {0, 1/4, 1/2, 3/4} exact
        def mp(x):
            return mpmath.mpf((x.sign * x.mantissa, x.exponent))

        off = []
        for precision in (32, 53, 128, 256):
            with mpmath.workprec(precision + 100):
                for n in [*range(1, 65), 298, 4096, 32767]:
                    ks = range(-1, n + 1) if n <= 64 else (
                        1, 2, 3, n // 4, n // 3, n // 2, 3 * n // 4, n - 1)
                    for k in ks:
                        v = trig_root(n, k, precision).value
                        angle = 2 * mpmath.pi * k / n
                        err = max(abs(mp(v.re) - mpmath.cos(angle)),
                                  abs(mp(v.im) - mpmath.sin(angle)))
                        if err > mpmath.ldexp(1, -precision):
                            off.append((precision, n, k, float(err)))
            for n in (4, 8, 12, 4096):
                quarters = [(0, 1, 0), (n // 4, 0, 1), (n // 2, -1, 0),
                            (3 * n // 4, 0, -1)]
                for k, re, im in quarters:
                    v = trig_root(n, k, precision).value
                    if (v.re, v.im) != (re, im):
                        off.append((precision, n, k, "not exact"))
        assert not off


class TestSelfConsistency:
    def test_products_wrap_additively(self):
        n = 12
        tol2 = HPReal.pow2(-220)
        values = [trig_root(n, k).value for k in range(n)]
        for j in range(n):
            for k in range(n):
                prod = values[j] * values[k]
                want = values[(j + k) % n]
                assert (prod - want).abs2() <= tol2


class TestAgreementWithConstruction:
    def test_small_indices(self):
        for n in range(1, 25):
            assert zeta_matches_trig(n)

    def test_higher_precision(self):
        assert zeta_matches_trig(6, precision=256)


def test_construction_path_never_imports_the_oracle():
    # the trig reference must stay quarantined from everything it checks
    package_dir = pathlib.Path(unityroot.__file__).parent
    construction = ["hpreal", "hpcomplex", "solver", "zeta", "descent",
                    "primitivity", "dft"]
    for name in construction:
        source = (package_dir / f"{name}.py").read_text(encoding="utf-8")
        assert "oracle" not in source, f"{name}.py references the oracle"
