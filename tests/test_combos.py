import pytest

from indmom.combos import parse_combination
from indmom.errors import SpecStringError


class TestParsing:
    def test_plain_pair(self):
        parsed = parse_combination("p(0.5)+(2+1i)*p(1.5)")
        assert len(parsed.terms) == 2
        assert parsed.terms[0].coefficient == 1
        assert parsed.terms[0].kind == "p"
        assert parsed.terms[0].argument == 0.5
        assert parsed.terms[1].coefficient == 2 + 1j
        assert parsed.terms[1].argument == 1.5
        assert parsed.t is None

    def test_minus_and_extension(self):
        parsed = parse_combination("q(2)+(-3)*q(0.1)@inf")
        assert parsed.terms[1].coefficient == -3
        assert parsed.t is not None and parsed.t.is_infinite

    def test_w_coefficient(self):
        parsed = parse_combination("w*p(1+1i)+q(1+1i)@0.5")
        assert parsed.uses_w
        assert parsed.terms[0].coefficient == "w"
        assert parsed.terms[0].argument == 1 + 1j
        assert parsed.t.t == 0.5

    def test_leading_minus(self):
        parsed = parse_combination("-p(1)")
        assert parsed.terms[0].coefficient == -1

    @pytest.mark.parametrize("spec,value", [
        ("2.5*q(0.3)", 2.5),
        ("1e-3*p(0.5)", 1e-3),
        ("2.5e+2*q(1)", 250.0),
        ("1e3*p(0)", 1000.0),
    ])
    def test_bare_scalar_coefficient(self, spec, value):
        parsed = parse_combination(spec)
        assert parsed.terms[0].coefficient == value

    def test_imaginary_scalar(self):
        parsed = parse_combination("1.5i*p(0)")
        assert parsed.terms[0].coefficient == 1.5j

    def test_subtracting_terms(self):
        parsed = parse_combination("p(1)-q(1)")
        assert parsed.terms[1].coefficient == -1
        assert parsed.terms[1].kind == "q"


class TestErrors:
    @pytest.mark.parametrize("bad,pos_hint", [
        ("p(0.5", "unbalanced"),
        ("x(1)", "atom"),
        ("p(1)+", "coefficient or atom"),
        ("p(abc)", "complex"),
        ("p(1)@", "extension"),
        ("w*p(1)$", "unexpected"),
        ("w p(1)", "followed by"),
        ("p(1 2)", "malformed complex literal"),
        ("p(1)-w*q(1)@0", "signed w coefficients are not supported"),
        ("2*x(1)", "expected atom"),
    ])
    def test_malformed(self, bad, pos_hint):
        with pytest.raises(SpecStringError, match=pos_hint):
            parse_combination(bad)

    def test_position_reported(self):
        try:
            parse_combination("p(1)+x(2)")
        except SpecStringError as exc:
            assert exc.position == 5
        else:
            pytest.fail("expected SpecStringError")

    def test_inner_space_keeps_position(self):
        with pytest.raises(SpecStringError) as info:
            parse_combination("p(0.5)+p(1 2)")
        assert info.value.position == 9

    def test_spaces_around_signs_parse(self):
        parsed = parse_combination("p( 1 + 2i )+( - 2)*q(0.5)")
        assert parsed.terms[0].argument == 1 + 2j
        assert parsed.terms[1].coefficient == -2
