"""Univariate expression trees with forward-mode jet evaluation.

Warp-function pieces are stored as small expression trees over one variable
``x``.  The node set is deliberately tiny: arithmetic, real powers, and four
elementary functions; ``sinc`` is sin(x)/x.

Expressions serialize to a plain-text infix grammar::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' number)?
    atom   := number | 'x' | name '(' expr ')' | '(' expr ')'
    name   := sin | cos | sinc | exp

The parser accepts exactly what ``to_str`` emits (plus whitespace), so
serialized atlases round-trip bit-for-bit.
"""

from __future__ import annotations

import re

import numpy as np

from .jets import Jet, jcos, jet_const, jet_var, jexp, jsin, jsinc

__all__ = ["Expr", "Const", "Var", "Fun", "parse_expr", "X"]


class Expr:
    """Base class; subclasses implement ``jet`` and ``to_str``."""

    def jet(self, x: Jet) -> Jet:
        raise NotImplementedError

    def __call__(self, x):
        return self.jet(jet_var(np.asarray(x, dtype=float))).f

    # arithmetic sugar ----------------------------------------------------

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, a):
        return Pow(self, float(a))

    def to_str(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"Expr({self.to_str()})"


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(float(v))


class Const(Expr):
    def __init__(self, c: float):
        self.c = float(c)

    def jet(self, x: Jet) -> Jet:
        return jet_const(self.c, like=x.f)

    def to_str(self):
        return repr(self.c)


class Var(Expr):
    def jet(self, x: Jet) -> Jet:
        return x

    def to_str(self):
        return "x"


X = Var()


class Add(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def jet(self, x):
        return self.a.jet(x) + self.b.jet(x)

    def to_str(self):
        return f"({self.a.to_str()} + {self.b.to_str()})"


class Sub(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def jet(self, x):
        return self.a.jet(x) - self.b.jet(x)

    def to_str(self):
        return f"({self.a.to_str()} - {self.b.to_str()})"


class Mul(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def jet(self, x):
        return self.a.jet(x) * self.b.jet(x)

    def to_str(self):
        return f"({self.a.to_str()} * {self.b.to_str()})"


class Div(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def jet(self, x):
        # constant denominators multiply by the inverse: the generic
        # reciprocal jet forms 1/c^2 and 1/c^3, which overflow for the
        # window-width constants of joins at extreme scales
        if isinstance(self.b, Const):
            return self.a.jet(x) * (1.0 / self.b.c)
        return self.a.jet(x) / self.b.jet(x)

    def to_str(self):
        return f"({self.a.to_str()} / {self.b.to_str()})"


class Neg(Expr):
    def __init__(self, a):
        self.a = a

    def jet(self, x):
        return -self.a.jet(x)

    def to_str(self):
        return f"(-{self.a.to_str()})"


class Pow(Expr):
    """Real constant power of a (positive) expression."""

    def __init__(self, a, p: float):
        self.a, self.p = a, float(p)

    def jet(self, x):
        return self.a.jet(x).power(self.p)

    def to_str(self):
        return f"({self.a.to_str()} ^ {repr(self.p)})"


_FUNS = {"sin": jsin, "cos": jcos, "sinc": jsinc, "exp": jexp}


class Fun(Expr):
    def __init__(self, name: str, a: Expr):
        if name not in _FUNS:
            raise ValueError(f"unknown function {name!r}")
        self.name, self.a = name, a

    def jet(self, x):
        return _FUNS[self.name](self.a.jet(x))

    def to_str(self):
        return f"{self.name}({self.a.to_str()})"


def sin(e):
    return Fun("sin", _as_expr(e))


def cos(e):
    return Fun("cos", _as_expr(e))


def sinc(e):
    return Fun("sinc", _as_expr(e))


def exp(e):
    return Fun("exp", _as_expr(e))


# -- parser ------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(s: str):
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ValueError(f"bad token at {s[pos:pos+12]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            op = m.group("op")
            out.append(("op", "^" if op == "**" else op))
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, got {val!r}")

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            # "-c" is how Const writes a negative constant: it reads back as
            # that constant, unless a power binds to c first
            kind, val = self.peek()
            if kind == "num" and self.toks[self.i + 1] != ("op", "^"):
                self.next()
                return Const(-val)
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            sign = 1.0
            while self.peek() == ("op", "-"):
                self.next()
                sign = -sign
            kind, val = self.next()
            if kind != "num":
                raise ValueError("exponent must be a numeric literal")
            return Pow(node, sign * val)
        return node

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return Const(val)
        if kind == "name":
            if val == "x":
                return Var()
            if val == "pi":
                return Const(np.pi)
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Fun(val, inner)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ValueError(f"unexpected token {val!r}")


def parse_expr(s: str) -> Expr:
    """Parse the documented infix grammar into an expression tree."""
    p = _Parser(_tokenize(s))
    node = p.expr()
    if p.peek()[0] != "end":
        raise ValueError("trailing input after expression")
    return node
