from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoieq import UnknownIdentifierError, WeightSyntaxError, with_precision
from orthoieq.expressions import (
    BinOp,
    Call,
    Neg,
    Num,
    Pi,
    Var,
    as_polynomial,
    endpoint_exponents,
    eval_float,
    is_identity,
    parse_expression,
    to_text,
)


def ev(text, x, p=50):
    ctx = with_precision(p)
    return eval_float(parse_expression(text), ctx.mp.mpf(x), ctx)


class TestParsing:
    def test_exp_weight(self):
        tree = parse_expression("exp(-x)")
        assert tree == Call("exp", Neg(Var()))

    def test_chebyshev_weight_structure(self):
        tree = parse_expression("(1-x)^(1/2)*x^(-1/2)")
        assert tree == BinOp(
            "*",
            BinOp("^", BinOp("-", Num(Fraction(1)), Var()), Num(Fraction(1, 2))),
            BinOp("^", Var(), Num(Fraction(-1, 2))),
        )

    def test_double_caret_reports_offset_3(self):
        with pytest.raises(WeightSyntaxError) as err:
            parse_expression("x^^2")
        assert err.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("foo(x)")
        assert err.value.position == 1

    def test_empty_input(self):
        with pytest.raises(WeightSyntaxError):
            parse_expression("   ")

    def test_unbalanced_paren(self):
        with pytest.raises(WeightSyntaxError):
            parse_expression("exp(x")

    def test_rational_literals_fold(self):
        assert parse_expression("1/3") == Num(Fraction(1, 3))
        assert parse_expression("x^(-1/2)") == BinOp("^", Var(), Num(Fraction(-1, 2)))
        assert parse_expression("0.25") == Num(Fraction(1, 4))

    def test_caret_right_associative(self):
        assert ev("2^3^2", 0) == 512

    def test_unary_minus_binds_before_caret(self):
        # factor := unary ('^' factor)?, so -x^2 is (-x)^2
        assert ev("-x^2", 3) == 9

    def test_pi_constant(self):
        ctx = with_precision(50)
        assert ev("pi", 0) == ctx.mp.pi


class TestEvaluation:
    def test_functions(self):
        ctx = with_precision(50)
        mp = ctx.mp
        assert abs(ev("exp(1)", 0) - mp.e) < mp.mpf(10) ** -49
        assert abs(ev("gamma(x)", 5) - 24) < mp.mpf(10) ** -45
        assert abs(ev("sqrt(x)", 2) - mp.sqrt(2)) < mp.mpf(10) ** -49
        assert abs(ev("sin(x)^2+cos(x)^2", "0.7") - 1) < mp.mpf(10) ** -49

    def test_division(self):
        assert ev("x/(1+x)", 1) == Fraction(1, 2)


tree_strategy = st.deferred(
    lambda: st.one_of(
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12).map(Num),
        st.just(Pi()),
        st.just(Var()),
        st.builds(Neg, atom_strategy),
        st.builds(
            BinOp,
            st.sampled_from(["+", "-", "*", "/"]),
            tree_strategy,
            tree_strategy,
        ),
        st.builds(
            BinOp,
            st.just("^"),
            atom_strategy,
            st.integers(min_value=0, max_value=4).map(lambda e: Num(Fraction(e))),
        ),
        st.builds(Call, st.sampled_from(["exp", "log", "sqrt", "sin", "cos", "gamma"]), tree_strategy),
    )
)
atom_strategy = st.one_of(
    st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=12).map(Num),
    st.just(Pi()),
    st.just(Var()),
)


@settings(max_examples=150, deadline=None)
@given(tree=tree_strategy)
def test_print_parse_round_trip(tree):
    # parser-normalized trees survive print -> parse structurally unchanged
    normalized = parse_expression(to_text(tree))
    assert parse_expression(to_text(normalized)) == normalized


class TestPolynomialExtraction:
    def test_simple(self):
        assert as_polynomial(parse_expression("x^2")) == [0, 0, 1]
        assert as_polynomial(parse_expression("(1+x)^3")) == [1, 3, 3, 1]
        assert as_polynomial(parse_expression("3")) == [3]
        assert as_polynomial(parse_expression("(6*x-2)/2")) == [-1, 3]
        assert as_polynomial(parse_expression("(x+1)^2-x^2-2*x")) == [1]
        assert as_polynomial(parse_expression("x-x")) == [0]
        assert as_polynomial(parse_expression("(2*x)^0")) == [1]
        assert as_polynomial(parse_expression("(x^2+1)^3")) == [1, 0, 3, 0, 3, 0, 1]
        tree = parse_expression("(x-x+2)^(-3)")
        assert isinstance(tree, BinOp)  # the constant base is not folded at parse time
        assert as_polynomial(tree) == [Fraction(1, 8)]
        assert as_polynomial(parse_expression("x/(x-x+2)")) == [0, Fraction(1, 2)]

    def test_non_polynomials(self):
        assert as_polynomial(parse_expression("exp(x)")) is None
        assert as_polynomial(parse_expression("1/(2*x)")) is None
        assert as_polynomial(parse_expression("x^(1/2)")) is None
        assert as_polynomial(parse_expression("pi*x")) is None
        assert as_polynomial(parse_expression("(x-x)^(-1)")) is None
        assert as_polynomial(parse_expression("x/(x+1)")) is None

    def test_identity(self):
        assert is_identity(parse_expression("x"))
        assert is_identity(parse_expression("(x)"))
        assert not is_identity(parse_expression("x^2"))


class TestEndpointExponents:
    def test_chebyshev_add(self):
        tree = parse_expression("(1-x)^(1/2)*x^(-1/2)")
        assert endpoint_exponents(tree, Fraction(0), Fraction(1)) == (
            Fraction(-1, 2),
            Fraction(1, 2),
        )

    def test_regular_weight(self):
        tree = parse_expression("exp(-x)")
        assert endpoint_exponents(tree, Fraction(0), None) == (0, 0)

    def test_plain_factors(self):
        tree = parse_expression("x*(1-x)")
        assert endpoint_exponents(tree, Fraction(0), Fraction(1)) == (1, 1)

    def test_sqrt_and_division(self):
        tree = parse_expression("sqrt(x)/sqrt(1-x)")
        assert endpoint_exponents(tree, Fraction(0), Fraction(1)) == (
            Fraction(1, 2),
            Fraction(-1, 2),
        )

    def test_shifted_interval(self):
        tree = parse_expression("(1+x)^2")
        assert endpoint_exponents(tree, Fraction(-1), Fraction(1)) == (2, 0)
