"""Mini-language for membership experiment vectors.

Grammar (concrete values in place of the placeholder names):

    spec   := combo ('@' tvalue)?
    combo  := term (('+' | '-') term)*
    term   := [factor '*'] atom
    factor := 'w' | scalar            # parenthesize complex scalars: (1+2i)
    atom   := ('p' | 'q') '(' complex ')'

Examples: ``p(0.5)+(2+1i)*p(1.5)``, ``q(2)+(-3)*q(0.1)@inf``,
``w*p(1+1i)+q(1+1i)@0.5``.  The coefficient ``w`` denotes the Stieltjes
transform of the measure selected by the ``@`` extension, evaluated at the
atom's argument.  Malformed input raises SpecStringError with the failing
position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .config import parse_complex
from .errors import SpecStringError
from .measures import ExtensionParam

__all__ = ["Term", "ParsedCombination", "parse_combination"]

_SCALAR_RE = re.compile(
    r"(?:[0-9][0-9_.]*|\.[0-9][0-9_.]*)(?:[eE][+-]?[0-9]+)?[ij]?|[ij]")


@dataclass(frozen=True)
class Term:
    coefficient: Union[complex, str]   # complex scalar or the marker "w"
    kind: str                          # "p" or "q"
    argument: complex


@dataclass(frozen=True)
class ParsedCombination:
    text: str
    terms: Tuple[Term, ...]
    t: Optional[ExtensionParam]

    @property
    def uses_w(self) -> bool:
        return any(t.coefficient == "w" for t in self.terms)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise SpecStringError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def balanced_paren(self) -> str:
        """Consume '('...')' and return the inside."""
        self.expect("(")
        depth, start = 1, self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    inner = self.text[start:self.pos]
                    self.pos += 1
                    return inner
            self.pos += 1
        raise SpecStringError("unbalanced parenthesis", start - 1)


def _parse_atom(sc: _Scanner) -> Tuple[str, complex]:
    sc.skip_ws()
    kind = sc.peek()
    if kind not in ("p", "q"):
        raise SpecStringError("expected atom p(...) or q(...)", sc.pos)
    sc.pos += 1
    start = sc.pos
    inner = sc.balanced_paren()
    try:
        arg = parse_complex(inner)
    except ValueError as exc:
        raise SpecStringError(str(exc), start + 1) from None
    return kind, arg


def _parse_term(sc: _Scanner, sign: complex) -> Term:
    sc.skip_ws()
    ch = sc.peek()
    coefficient: Union[complex, str]
    if ch == "w":
        save = sc.pos
        sc.pos += 1
        if sc.peek() != "*":
            raise SpecStringError("coefficient w must be followed by '*'", sc.pos)
        sc.expect("*")
        if sign != 1:
            raise SpecStringError("signed w coefficients are not supported", save)
        coefficient = "w"
    elif ch in ("p", "q"):
        coefficient = sign
    elif ch == "(":
        start = sc.pos
        inner = sc.balanced_paren()
        try:
            coefficient = sign * parse_complex(inner)
        except ValueError as exc:
            raise SpecStringError(str(exc), start + 1) from None
        sc.expect("*")
    else:
        m = _SCALAR_RE.match(sc.text, sc.pos)
        if not m:
            raise SpecStringError("expected coefficient or atom", sc.pos)
        try:
            coefficient = sign * parse_complex(m.group(0))
        except ValueError as exc:
            raise SpecStringError(str(exc), sc.pos) from None
        sc.pos = m.end()
        sc.expect("*")
    kind, arg = _parse_atom(sc)
    return Term(coefficient=coefficient, kind=kind, argument=arg)


def parse_combination(text: str) -> ParsedCombination:
    """Parse a combination spec string; see the module docstring grammar."""
    sc = _Scanner(text)
    terms: List[Term] = []
    sign: complex = 1
    sc.skip_ws()
    if sc.peek() == "-":
        sc.pos += 1
        sign = -1
    terms.append(_parse_term(sc, sign))
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch in ("+", "-"):
            sc.pos += 1
            terms.append(_parse_term(sc, 1 if ch == "+" else -1))
        elif ch == "@":
            sc.pos += 1
            sc.skip_ws()
            rest = sc.text[sc.pos:].strip()
            if not rest:
                raise SpecStringError("missing extension parameter after '@'", sc.pos)
            try:
                t = ExtensionParam.parse(rest)
            except ValueError as exc:
                raise SpecStringError(str(exc), sc.pos) from None
            return ParsedCombination(text=text, terms=tuple(terms), t=t)
        elif ch == "":
            return ParsedCombination(text=text, terms=tuple(terms), t=None)
        else:
            raise SpecStringError(f"unexpected character {ch!r}", sc.pos)
