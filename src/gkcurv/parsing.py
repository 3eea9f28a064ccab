"""Text to exact scalars: the scene input grammar (sums, products,
quotients, integer powers, i, the coordinate names, and sin/cos of integer
linear combinations of the coordinates)."""

from .scalars import QQI_ONE, ScalarExpr


class _Tok:
    __slots__ = ("kind", "val")

    def __init__(self, kind, val=None):
        self.kind = kind
        self.val = val


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("num", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append(_Tok(ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in expression")
    toks.append(_Tok("end"))
    return toks


class _Parser:
    """Recursive-descent parser for the infix scalar grammar."""

    def __init__(self, text, names):
        self.toks = _tokenize(text)
        self.pos = 0
        self.names = list(names)
        self.nvars = len(self.names)

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind and t.kind != kind:
            raise ValueError(f"expected {kind}, found {t.kind}")
        self.pos += 1
        return t

    def parse(self) -> ScalarExpr:
        e = self.expr()
        if self.peek().kind != "end":
            raise ValueError("trailing input in expression")
        return e

    def expr(self):
        t = self.peek()
        if t.kind in "+-":
            self.take()
            e = self.term()
            if t.kind == "-":
                e = -e
        else:
            e = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.power()
        while self.peek().kind in "*/":
            op = self.take().kind
            rhs = self.power()
            e = e * rhs if op == "*" else e / rhs
        return e

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            neg = False
            if self.peek().kind == "-":
                self.take()
                neg = True
            t = self.take("num")
            return base ** (-t.val if neg else t.val)
        return base

    def atom(self):
        t = self.take()
        if t.kind == "num":
            return ScalarExpr.from_qqi(self.nvars, t.val)
        if t.kind == "(":
            e = self.expr()
            self.take(")")
            return e
        if t.kind == "-":
            return -self.atom()
        if t.kind == "name":
            if t.val == "i":
                return ScalarExpr.i(self.nvars)
            if t.val in ("sin", "cos"):
                self.take("(")
                arg = self.expr()
                self.take(")")
                freq = _integer_linear(arg, self.nvars)
                if t.val == "sin":
                    return ScalarExpr.sin(self.nvars, freq)
                return ScalarExpr.cos(self.nvars, freq)
            if t.val in self.names:
                return ScalarExpr.coord(self.nvars, self.names.index(t.val))
            raise ValueError(f"unknown symbol {t.val!r}")
        raise ValueError(f"unexpected token {t.kind!r}")


def _integer_linear(e: ScalarExpr, nvars):
    """Extract integer frequency vector from a linear polynomial argument."""
    if not (e.den.is_const() and e.den.const_value() == QQI_ONE):
        raise ValueError("trig argument must be an integer-linear combination of coordinates")
    freq = [0] * nvars
    for k, c in e.num.terms.items():
        if any(k[nvars:]) or sum(k) != 1:
            raise ValueError("trig argument must be an integer-linear combination of coordinates")
        j = k.index(1)
        if c.b or c.d != 1:
            raise ValueError("trig argument coefficients must be integers")
        freq[j] = c.a
    return tuple(freq)


def parse_scalar(text: str, names) -> ScalarExpr:
    """Parse the scene expression grammar into a canonical scalar."""
    return _Parser(text, names).parse()
