import math
import re

import numpy as np
import pytest

from indmom import JacobiCoefficients
from indmom.errors import CoefficientFileError, CoefficientRangeError


class TestPowerLaw:
    def test_first_pair(self, src):
        assert src.coeffs(0) == (1.0, 0.0)

    def test_fourth_pair(self, src):
        assert src.coeffs(3) == (16.0, 0.0)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            JacobiCoefficients.power_law(1.0)

    @pytest.mark.parametrize("exponent", [0.5, -3.0, math.inf, -math.inf, math.nan])
    def test_exponent_must_be_a_finite_real_above_one(self, exponent):
        with pytest.raises(ValueError, match="finite real > 1"):
            JacobiCoefficients.power_law(exponent)

    @pytest.mark.parametrize("exponent,first", [(114.0, 505), (1e308, 1), (2.0, None)])
    def test_coefficients_past_the_float_range_are_refused(self, exponent, first):
        # 506**114 is about 1.9e308; 2**1e308 is past any float
        src = JacobiCoefficients.power_law(exponent)
        if first is None:
            assert src.arrays(600)[0][-1] == 601.0 ** 2
            return
        assert np.isfinite(src.arrays(first - 1)[0]).all()
        with pytest.raises(CoefficientRangeError,
                           match=re.escape(f"a_{first} = {first + 1}^{exponent:g} exceeds")):
            src.arrays(first)
        with pytest.raises(CoefficientRangeError, match=rf"a_{first} "):
            src.coeffs(first)
        with pytest.raises(CoefficientRangeError, match=rf"a_{first - 1} "):
            src.truncate_once().coeffs(first - 1)

    def test_range_error_names_the_exponent_as_the_description_does(self):
        # :g would write 113.9999999 as 114
        src = JacobiCoefficients.power_law(113.9999999)
        assert src.description == "power_law(c=113.9999999)"
        message = "a_505 = 506^113.9999999 exceeds the float range"
        with pytest.raises(CoefficientRangeError, match=re.escape(message)):
            src.arrays(600)
        with pytest.raises(CoefficientRangeError,
                           match=re.escape(message.replace("a_505", "a_504"))):
            src.truncate_once().arrays(600)
        c = math.nextafter(3.0, 4.0)
        src = JacobiCoefficients.power_law(c)
        assert src.description == f"power_law(c={c!r})"
        with pytest.raises(CoefficientRangeError, match=re.escape(f"^{c!r} exceeds")):
            src.truncate_once().coeffs(10 ** 103)

    def test_deterministic(self, src):
        assert src.coeffs(17) == src.coeffs(17)

    def test_unbounded(self, src):
        assert src.max_index() is None


class TestExplicit:
    def test_lookup(self):
        j = JacobiCoefficients.explicit([(1.0, 0.0), (2.0, 1.0)])
        assert j.coeffs(1) == (2.0, 1.0)

    def test_range_exhausted(self):
        j = JacobiCoefficients.explicit([(1.0, 0.0), (2.0, 1.0)])
        with pytest.raises(CoefficientRangeError, match="range exhausted"):
            j.coeffs(5)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError, match="a_n"):
            JacobiCoefficients.explicit([(0.0, 0.0)])

    def test_rejects_nonfinite_b_with_index(self):
        with pytest.raises(ValueError, match="pair 1"):
            JacobiCoefficients.explicit([(1.0, 0.0), (2.0, float("nan"))])

    @pytest.mark.parametrize("pairs", [[], [(1.0, 0.0, 2.0)], [1.0, 2.0]],
                             ids=["empty", "triple", "flat"])
    def test_rejects_malformed_pairs(self, pairs):
        with pytest.raises(ValueError):
            JacobiCoefficients.explicit(pairs)

    def test_arrays_are_read_only_float64(self):
        j = JacobiCoefficients.explicit([(1, 0), (2, 1)])
        a, b = j.arrays(1)
        assert a.dtype == b.dtype == np.float64
        assert not a.flags.writeable and not b.flags.writeable
        assert j.coeffs(1) == (2.0, 1.0)

    def test_equal_sources_share_identity(self):
        pairs = [(1.0, 0.0), (2.0, 1.0)]
        assert JacobiCoefficients.explicit(pairs) == JacobiCoefficients.explicit(pairs)
        assert hash(JacobiCoefficients.explicit(pairs)) == hash(
            JacobiCoefficients.explicit(pairs))
        assert JacobiCoefficients.explicit(pairs) != JacobiCoefficients.explicit(
            [(1.0, 0.0), (2.0, 2.0)])


class TestTruncateOnce:
    def test_power_law_shift(self, src):
        t = src.truncate_once()
        assert t.coeffs(0) == (4.0, 0.0)

    def test_explicit_shift(self):
        j = JacobiCoefficients.explicit([(1.0, 0.0), (2.0, 1.0), (3.0, 2.0)])
        t = j.truncate_once()
        assert t.coeffs(0) == (2.0, 1.0)
        assert t.coeffs(1) == (3.0, 2.0)
        assert t.max_index() == 1

    def test_double_truncation(self, src):
        assert src.truncate_once().truncate_once().coeffs(0) == (9.0, 0.0)

    def test_built_once(self, src):
        j = JacobiCoefficients.explicit([(1.0, 0.0), (2.0, 1.0), (3.0, 2.0)])
        assert src.truncate_once() is src.truncate_once()
        assert j.truncate_once() is j.truncate_once()

    def test_explicit_views_parent_arrays(self, tmp_path):
        f = tmp_path / "coeffs.txt"
        f.write_text("".join(f"{(n + 1) ** 2} {0.3 * (-1) ** n}\n" for n in range(20)))
        src = JacobiCoefficients.from_file(f)
        a, b = src.arrays(9)
        ta, tb = src.truncate_once().arrays(8)
        assert np.shares_memory(a, ta) and np.shares_memory(b, tb)
        assert ta.tobytes() == a[1:].tobytes() and tb.tobytes() == b[1:].tobytes()
        assert not ta.flags.writeable

    def test_power_law_truncation_ignores_parent_growth(self):
        grown = JacobiCoefficients.power_law(1.5)
        grown.arrays(50)
        fresh = JacobiCoefficients.power_law(1.5)
        assert grown.truncate_once() == fresh.truncate_once()
        assert grown.truncate_once().arrays(10)[0].tobytes() == \
            fresh.truncate_once().arrays(10)[0].tobytes()

    def test_single_pair_cannot_truncate(self):
        with pytest.raises(CoefficientRangeError, match="cannot truncate"):
            JacobiCoefficients.explicit([(1.0, 0.0)]).truncate_once()


class TestArrays:
    SOURCES = {
        "c=1.5": lambda: JacobiCoefficients.power_law(1.5),
        "c=2": lambda: JacobiCoefficients.power_law(2.0),
        "c=3": lambda: JacobiCoefficients.power_law(3.0),
        "c=1.5 truncated": lambda: JacobiCoefficients.power_law(1.5).truncate_once(),
        "explicit": lambda: JacobiCoefficients.explicit(
            [((n + 1.0) ** 1.5, 0.1 * (-1) ** n) for n in range(5001)]),
    }

    @pytest.mark.parametrize("name", SOURCES)
    def test_bitwise_equal_to_coeffs(self, name):
        src = self.SOURCES[name]()
        src.arrays(7)  # built short first, so the long call extends it
        a, b = src.arrays(5000)
        pairs = [src.coeffs(n) for n in range(5001)]
        assert a.tobytes() == np.array([p[0] for p in pairs], dtype=float).tobytes()
        assert b.tobytes() == np.array([p[1] for p in pairs], dtype=float).tobytes()

    def test_read_only(self, src):
        for x in src.arrays(40) + src.arrays(10):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 1.0

    def test_range_checked(self):
        j = JacobiCoefficients.explicit([(1.0, 0.0), (2.0, 1.0)])
        assert len(j.arrays(1)[0]) == 2
        with pytest.raises(CoefficientRangeError):
            j.arrays(2)


class TestFileFormat:
    def test_parse(self, tmp_path):
        f = tmp_path / "coeffs.txt"
        f.write_text("# comment line\n1.0 0.0\n2.5 -0.25  # trailing comment\n\n3 1\n")
        j = JacobiCoefficients.from_file(f)
        assert j.coeffs(0) == (1.0, 0.0)
        assert j.coeffs(1) == (2.5, -0.25)
        assert j.coeffs(2) == (3.0, 1.0)
        assert j.max_index() == 2

    def test_rejects_nonpositive_a_with_line_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0 0.0\n-2.0 0.0\n")
        with pytest.raises(CoefficientFileError, match=r":2:"):
            JacobiCoefficients.from_file(f)

    def test_rejects_wrong_field_count(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0 0.0 3.0\n")
        with pytest.raises(CoefficientFileError, match=r":1:"):
            JacobiCoefficients.from_file(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing here\n")
        with pytest.raises(CoefficientFileError):
            JacobiCoefficients.from_file(f)
