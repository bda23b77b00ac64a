import pytest

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
    BoolRef,
    BoolVarRef,
    CmpRef,
    Const,
    IntConst,
    IntExp,
    Lam,
    Let,
    PrimConst,
    TOP,
    Var,
    VarExp,
    VALUE_VAR,
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
            CmpRef(">=", VarExp(VALUE_VAR), IntExp(0)),
            CmpRef("<=", VarExp(VALUE_VAR), IntExp(0)),
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
        assert parse_qualifier("v >= 0") == CmpRef(">=", VarExp(VALUE_VAR), IntExp(0))

    def test_program_variable(self):
        assert parse_qualifier("y = 5") == CmpRef("=", VarExp("y"), IntExp(5))

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_qualifier("v + ")

    def test_true_is_top(self):
        assert parse_qualifier("true") == TOP

    def test_boolean_atom(self):
        assert parse_qualifier("flag") == BoolVarRef("flag")

    def test_false(self):
        assert parse_qualifier("false") == BoolRef(False)


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
