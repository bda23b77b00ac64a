import pytest
from hypothesis import given, settings, strategies as st

from liqinfer.parser import (
    ParseError,
    parse_program,
    parse_qualifier,
    parse_scheme,
    parse_term,
    pretty_print,
)
from liqinfer.syntax import (
    App,
    Const,
    FALSE,
    FAtom,
    FBoolVar,
    IntConst,
    Lam,
    Let,
    LInt,
    LVar,
    PrimConst,
    TRUE,
    Var,
    VALUE_VAR,
    BaseArm,
    FAnd,
    FIff,
    INT,
    LAdd,
    LiquidType,
    LMul,
    LNeg,
    LSub,
    Scheme,
    render_scheme,
    render_term,
)

SIGN_FILE = """
Qualifiers
{
   v >= 0,
   v <= 0
}

val mul = \\x . * x x
val neg = \\x. - x
"""


class TestParseProgram:
    def test_sign_example_file(self):
        prog = parse_program(SIGN_FILE)
        assert prog.qualifiers == (
            FAtom(">=", LVar(VALUE_VAR), LInt(0)),
            FAtom("<=", LVar(VALUE_VAR), LInt(0)),
        )
        assert [n for n, _ in prog.bindings] == ["mul", "neg"]
        mul = prog.bindings[0][1]
        assert mul == Lam(
            "x", App(App(Const(PrimConst("mul")), Var("x")), Var("x"))
        )

    def test_empty_qualifiers(self):
        prog = parse_program("Qualifiers { } val id = \\x. x")
        assert prog.qualifiers == ()
        assert len(prog.bindings) == 1

    def test_dangling_body_is_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_program("Qualifiers { v >= 0 } val bad = \\x.")
        assert err.value.line >= 1 and err.value.col >= 1

    def test_duplicate_binding_name(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_program("Qualifiers { } val a = 1 val a = 2")

    def test_malformed_qualifier(self):
        with pytest.raises(ParseError):
            parse_program("Qualifiers { v >= } val a = 1")

    def test_value_variable_reserved_as_binder(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_program("Qualifiers { } val a = \\v. v")

    def test_comments(self):
        prog = parse_program("Qualifiers { } -- nothing here\nval a = 1 -- one\n")
        assert prog.bindings[0][1] == Const(IntConst(1))

    def test_later_bindings_reference_earlier(self):
        prog = parse_program("Qualifiers { } val a = 1 val b = + a 1")
        b = prog.bindings[1][1]
        assert Var("a") in (b.fun.arg,)

    def test_duplicate_binders_freshened(self):
        term = parse_term("\\x. \\x. x")
        assert isinstance(term, Lam) and isinstance(term.body, Lam)
        assert term.binder != term.body.binder
        assert term.body.body == Var(term.body.binder)

    def test_let_form(self):
        term = parse_term("let y = 2 in + y y")
        assert isinstance(term, Let)


class TestParseQualifier:
    def test_sign(self):
        assert parse_qualifier("v >= 0") == FAtom(">=", LVar(VALUE_VAR), LInt(0))

    def test_program_variable(self):
        assert parse_qualifier("y = 5") == FAtom("=", LVar("y"), LInt(5))

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_qualifier("v + ")

    def test_true_is_top(self):
        assert parse_qualifier("true") == TRUE

    def test_boolean_atom(self):
        assert parse_qualifier("flag") == FBoolVar("flag")

    def test_false(self):
        assert parse_qualifier("false") == FALSE

    @pytest.mark.parametrize("paren, plain", [("(v) >= 0", "v >= 0"), ("(x) + 1 >= v", "x + 1 >= v")])
    def test_parenthesized_variable_opens_a_comparison(self, paren, plain):
        assert parse_qualifier(paren) is parse_qualifier(plain)
        prog = parse_program(f"Qualifiers {{ {paren}, {plain} }} val a = 1")
        assert prog.qualifiers[0] is prog.qualifiers[1] is parse_qualifier(plain)

    @pytest.mark.parametrize("text", ["v >= 2 * x", "v >= 0 && v <= 1", "a <=> b", "x < y < z"])
    def test_outside_the_qualifier_language(self, text):
        with pytest.raises(ParseError):
            parse_qualifier(text)
        with pytest.raises(ParseError):
            parse_program(f"Qualifiers {{ {text} }} val a = 1")


class TestRoundTrip:
    PROGRAMS = [
        SIGN_FILE,
        "Qualifiers { } val id = \\x. x",
        "Qualifiers { v >= 0, y = 5 } val f = \\x. let z = - x in + z 1",
        "Qualifiers { v < 3 } val g = (\\x. x) (if (<= 1 2) 1 2)",
    ]

    @pytest.mark.parametrize("src", PROGRAMS)
    def test_parse_print_parse(self, src):
        prog = parse_program(src)
        printed = pretty_print(prog)
        again = parse_program(printed)
        assert again == prog
        assert pretty_print(again) == printed

    def test_term_printer_inverse(self):
        term = parse_term("let f = \\x. * x x in f (- 3)")
        assert parse_term(render_term(term)) == term


class TestTypeParser:
    SCHEMES = [
        "{v : int | (v>=0)}",
        "{v : int | true}",
        "{v : bool | (v <=> (a<=b))}",
        "(x: {v : int | (v>=0)} -> {v : int | (v<=0)}) /\\ (x: {v : int | (v<=0)} -> {v : int | (v>=0)})",
        "forall a. (x: a -> a)",
        "{v : int | (v=(1 + -3))}",
        "{v : int | (v=-3)}",
        "(f: (x: a -> a) -> a)",
    ]

    @pytest.mark.parametrize("src", SCHEMES)
    def test_round_trip(self, src):
        sch = parse_scheme(src)
        assert render_scheme(sch) == src or parse_scheme(render_scheme(sch)) == sch

    def test_parse_type_rejects_trailing(self):
        with pytest.raises(ParseError):
            parse_scheme("{v : int | true} junk")


# printed refinements: negations of compound terms, nested negations and
# products among them
_names = st.sampled_from((VALUE_VAR, "x", "y"))
_terms = st.recursive(
    st.one_of(st.builds(LInt, st.integers(-3, 3)), st.builds(LVar, _names)),
    lambda sub: st.one_of(
        st.builds(LNeg, sub),
        st.builds(lambda op, lhs, rhs: op(lhs, rhs), st.sampled_from((LAdd, LSub, LMul)), sub, sub),
    ),
    max_leaves=5,
)
_refinements = st.recursive(
    st.one_of(
        st.just(TRUE),
        st.just(FALSE),
        st.builds(FBoolVar, _names),
        st.builds(FAtom, st.sampled_from(("=", "<=", ">=", "<", ">")), _terms, _terms),
    ),
    lambda sub: st.one_of(
        st.builds(FIff, sub, sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: FAnd(tuple(ps))),
    ),
    max_leaves=4,
)


class TestRefinementPrecedence:
    def test_loosest_to_tightest(self):
        # <=>, &&, comparison, + -, *, unary -
        sch = parse_scheme("{v : bool | v <=> a <= -b * 2 + c && d && e}")
        le = FAtom("<=", LVar("a"), LAdd(LMul(LNeg(LVar("b")), LInt(2)), LVar("c")))
        assert sch.body.arms[0].ref is FIff(FBoolVar("v"), FAnd((le, FBoolVar("d"), FBoolVar("e"))))

    def test_parentheses_are_optional_at_the_top(self):
        assert parse_scheme("{v : int | v >= 0}") is parse_scheme("{v : int | (v>=0)}")

    def test_a_bare_name_is_a_formula_only_where_one_is_wanted(self):
        with pytest.raises(ParseError, match="expected an integer term"):
            parse_scheme("{v : int | (v >= 0) + 1 >= 0}")
        with pytest.raises(ParseError, match="expected a formula"):
            parse_scheme("{v : int | v + 1}")


class TestPrintedRefinementsRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_refinements)
    def test_render_parse_render(self, ref):
        printed = render_scheme(Scheme((), LiquidType((BaseArm(INT, ref),))))
        assert render_scheme(parse_scheme(printed)) == printed

    @pytest.mark.parametrize("text", ["{v : int | (v>=-((x + 1)))}", "{v : int | (v=-(-x))}",
                                      "{v : int | ((x * y)<=-((x * -2)))}", "{v : int | (v=-(-3))}",
                                      "{v : int | (v>-1)}"])
    def test_negated_compound_terms(self, text):
        assert render_scheme(parse_scheme(text)) == text


# the qualifier language: comparisons of sums, boolean variables, true, false
_sums = st.recursive(
    st.one_of(st.builds(LInt, st.integers(0, 20)), st.builds(LVar, _names)),
    lambda sub: st.one_of(
        st.builds(LNeg, sub),
        st.builds(lambda op, lhs, rhs: op(lhs, rhs), st.sampled_from((LAdd, LSub)), sub, sub),
    ),
    max_leaves=6,
)
_qualifiers = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    st.builds(FBoolVar, _names),
    st.builds(FAtom, st.sampled_from(("=", "<=", ">=", "<", ">")), _sums, _sums),
)


def _infix(e, right=False):
    """`e` printed with only the parentheses that precedence and left
    grouping need; `right` is whether `e` is the right side of a sum."""
    if isinstance(e, LInt):
        return str(e.value)
    if isinstance(e, (LVar, FBoolVar)):
        return e.name
    if isinstance(e, LNeg):
        arg = _infix(e.arg)
        return f"-{arg}" if isinstance(e.arg, (LInt, LVar)) else f"-({arg})"
    if isinstance(e, FAtom):
        return f"{_infix(e.lhs)} {e.op} {_infix(e.rhs)}"
    if e is TRUE or e is FALSE:
        return "true" if e is TRUE else "false"
    text = f"{_infix(e.lhs)} {'+' if isinstance(e, LAdd) else '-'} {_infix(e.rhs, right=True)}"
    return f"({text})" if right else text


class TestQualifierLanguageRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_qualifiers)
    def test_infix_parses_back(self, q):
        assert parse_qualifier(_infix(q)) is q
        assert parse_program(f"Qualifiers {{ {_infix(q)} }}").qualifiers == (q,)
