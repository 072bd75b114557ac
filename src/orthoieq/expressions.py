"""Weight-expression trees: recursive-descent parser, printer, float evaluator.

Grammar (offsets in errors are 1-based):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?          # '^' is right-associative
    unary  := '-'? atom
    atom   := number | 'pi' | 'x' | ident '(' expr ')' | '(' expr ')'

Known functions: exp, log, sqrt, sin, cos, gamma. Numbers are plain
decimals and are held as exact rationals; the parser folds rational
constant subtrees (so "(1/3)" is a single literal and "x^(-1/2)" has a
literal exponent).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownIdentifierError, WeightSyntaxError
from .numeric import PrecisionContext
from .polynomials import _convolve

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "gamma")


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | symbol | end
    text: str
    pos: int  # 1-based offset in the source


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(_Token("number", text[i:j], start))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], start))
            i = j
        elif ch in "+-*/^()":
            tokens.append(_Token("symbol", ch, start))
            i += 1
        else:
            raise WeightSyntaxError(f"unexpected character {ch!r}", start)
    tokens.append(_Token("end", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_symbol(self, sym):
        tok = self.peek()
        if tok.kind != "symbol" or tok.text != sym:
            raise WeightSyntaxError(f"expected {sym!r}", tok.pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise WeightSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "symbol" and self.peek().text in "+-":
            op = self.advance().text
            node = _fold(BinOp(op, node, self.term()))
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "symbol" and self.peek().text in "*/":
            op = self.advance().text
            node = _fold(BinOp(op, node, self.factor()))
        return node

    def factor(self):
        node = self.unary()
        if self.peek().kind == "symbol" and self.peek().text == "^":
            self.advance()
            node = _fold(BinOp("^", node, self.factor()))
        return node

    def unary(self):
        if self.peek().kind == "symbol" and self.peek().text == "-":
            self.advance()
            return _fold(Neg(self.atom()))
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                value = Fraction(tok.text)
            except ValueError:
                raise WeightSyntaxError(f"bad number {tok.text!r}", tok.pos) from None
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "pi":
                return Pi()
            if tok.text == "x":
                return Var()
            if tok.text in FUNCTIONS:
                self.expect_symbol("(")
                arg = self.expr()
                self.expect_symbol(")")
                return Call(tok.text, arg)
            raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_symbol(")")
            return node
        raise WeightSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def _fold(node):
    # Collapse rational-valued subtrees into a single literal.
    if isinstance(node, Neg) and isinstance(node.operand, Num):
        return Num(-node.operand.value)
    if isinstance(node, BinOp) and isinstance(node.left, Num) and isinstance(node.right, Num):
        a, b = node.left.value, node.right.value
        if node.op == "+":
            return Num(a + b)
        if node.op == "-":
            return Num(a - b)
        if node.op == "*":
            return Num(a * b)
        if node.op == "/":
            if b == 0:
                return node  # let evaluation report division by zero
            return Num(a / b)
        if node.op == "^" and b.denominator == 1:
            e = int(b)
            if a != 0 or e >= 0:
                return Num(a**e) if e >= 0 else Num(Fraction(1) / a ** (-e))
    return node


def parse_expression(text: str):
    """Parse weight-expression text into a tree. Raises WeightSyntaxError with a 1-based offset."""
    if not text or not text.strip():
        raise WeightSyntaxError("empty expression", 1)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing (prints re-parse to structurally identical trees)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def to_text(node) -> str:
    return _print(node, 0)


def _print(node, parent_prec):
    if isinstance(node, Num):
        v = node.value
        if v < 0:
            body = _print(Num(-v), _PREC["^"])
            return f"(-{body})" if parent_prec > 0 else f"-{body}"
        if v.denominator == 1:
            return str(v.numerator)
        return f"({v.numerator}/{v.denominator})"
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        body = f"-{_print(node.operand, _PREC['^'])}"
        return f"({body})" if parent_prec > 0 else body
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg, 0)})"
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        if node.op == "^":
            # right-associative; the left operand must bind tighter than '^'
            body = f"{_print(node.left, prec + 1)}^{_print(node.right, prec)}"
        else:
            body = f"{_print(node.left, prec)}{node.op}{_print(node.right, prec + 1)}"
        return f"({body})" if prec < parent_prec else body
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation


def eval_float(node, x, context: PrecisionContext):
    """Evaluate at an mpf/mpc point, returning an mpf/mpc of the context."""
    return compile_float(node, context.mp)(x)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}


def compile_float(node, mp):
    """The tree as a closure x -> mpf/mpc on the mpmath context mp.

    Every call does the arithmetic a walk of the tree would, at the
    precision current when it is called, so the tree is compiled once and
    evaluated at many points.
    """
    if isinstance(node, Num):
        num, den = node.value.numerator, node.value.denominator
        mpf = mp.mpf
        return lambda x: mpf(num) / den
    if isinstance(node, Pi):
        return lambda x: mp.pi
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        operand = compile_float(node.operand, mp)
        return lambda x: -operand(x)
    if isinstance(node, BinOp):
        left = compile_float(node.left, mp)
        if node.op == "^" and isinstance(node.right, Num) and node.right.value.denominator == 1:
            # integer exponents stay in the real line for negative bases
            k = int(node.right.value)
            return lambda x: left(x) ** k
        right = compile_float(node.right, mp)
        op = _BINARY[node.op]
        return lambda x: op(left(x), right(x))
    if isinstance(node, Call):
        func = getattr(mp, node.func)
        arg = compile_float(node.arg, mp)
        return lambda x: func(arg(x))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# structure analysis


def as_polynomial(node):
    """Coefficients (ascending, Fraction) if the tree is a polynomial in x over Q, else None.

    Products and nonnegative integer powers convolve through polynomials._convolve.
    """
    if isinstance(node, Num):
        return [node.value]
    if isinstance(node, Var):
        return [Fraction(0), Fraction(1)]
    if isinstance(node, Neg):
        inner = as_polynomial(node.operand)
        return None if inner is None else [-c for c in inner]
    if not isinstance(node, BinOp):
        return None
    if node.op == "^":
        if not (isinstance(node.right, Num) and node.right.value.denominator == 1):
            return None
        base = as_polynomial(node.left)
        e = int(node.right.value)
        if base is None:
            return None
        if e < 0:
            return [Fraction(1) / base[0] ** (-e)] if len(base) == 1 and base[0] != 0 else None
        out = [Fraction(1)]
        for _ in range(e):
            out = _convolve(out, base)
        return _trim(out)
    a = as_polynomial(node.left)
    b = as_polynomial(node.right)
    if a is None or b is None:
        return None
    if node.op == "*":
        return _trim(_convolve(a, b))
    if node.op == "/":
        return [c / b[0] for c in a] if len(b) == 1 and b[0] != 0 else None
    size = max(len(a), len(b))
    a = a + [Fraction(0)] * (size - len(a))
    b = b + [Fraction(0)] * (size - len(b))
    sign = 1 if node.op == "+" else -1
    return _trim([pa + sign * pb for pa, pb in zip(a, b)])


def _trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def is_identity(node) -> bool:
    poly = as_polynomial(node)
    return poly == [Fraction(0), Fraction(1)]


def endpoint_exponents(node, alpha, beta):
    """Power-law exponents of the tree at the interval endpoints, found syntactically.

    Recognizes multiplicative factors x^s (when alpha == 0), (x - alpha)^s,
    (alpha + x)^s for negative alpha, (beta - x)^s, and sqrt forms of each.
    Anything unrecognized counts as regular (exponent 0).
    """
    exp_a = Fraction(0)
    exp_b = Fraction(0)
    for base, power in _product_factors(node, Fraction(1)):
        kind = _endpoint_base(base, alpha, beta)
        if kind == "alpha":
            exp_a += power
        elif kind == "beta":
            exp_b += power
    return exp_a, exp_b


def _product_factors(node, power):
    if isinstance(node, Neg):
        yield from _product_factors(node.operand, power)
        return
    if isinstance(node, BinOp):
        if node.op == "*":
            yield from _product_factors(node.left, power)
            yield from _product_factors(node.right, power)
            return
        if node.op == "/":
            yield from _product_factors(node.left, power)
            yield from _product_factors(node.right, -power)
            return
        if node.op == "^" and isinstance(node.right, Num):
            yield from _product_factors(node.left, power * node.right.value)
            return
    if isinstance(node, Call) and node.func == "sqrt":
        yield from _product_factors(node.arg, power / 2)
        return
    yield node, power


def _endpoint_base(node, alpha, beta):
    # which endpoint does this base vanish at, linearly?
    if isinstance(node, Var):
        if alpha == 0:
            return "alpha"
        if beta == 0:
            return "beta"
        return None
    if isinstance(node, BinOp) and node.op in "+-":
        left, right = node.left, node.right
        if node.op == "-":
            # c - x
            if isinstance(left, Num) and isinstance(right, Var):
                if beta == left.value:
                    return "beta"
                if alpha == left.value:
                    return "alpha"
            # x - c
            if isinstance(left, Var) and isinstance(right, Num):
                if alpha == right.value:
                    return "alpha"
                if beta == right.value:
                    return "beta"
        else:
            # c + x or x + c
            num, var = (left, right) if isinstance(left, Num) else (right, left)
            if isinstance(num, Num) and isinstance(var, Var):
                if alpha == -num.value:
                    return "alpha"
                if beta == -num.value:
                    return "beta"
    return None
