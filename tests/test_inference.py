import pytest

from liqinfer.anf import normalize
from liqinfer.inference import ArmCapExceeded, Inferencer, InferenceFailure, fresh
from liqinfer.metatheory import GenConfig, random_term
from liqinfer.parser import parse_term
from liqinfer.shapes import w_infer
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import (
    App,
    Arrow,
    BOOL,
    BaseArm,
    FAtom,
    Const,
    Env,
    FunArm,
    INT,
    IntConst,
    Lam,
    LInt,
    LiquidType,
    LNeg,
    TRUE,
    VarArm,
    LVar,
    VALUE_VAR,
    bare,
    make_type,
    mono,
    render_scheme,
    shape_of,
    top_skeleton,
)
from liqinfer.validity import ValidityEngine

GE = FAtom(">=", LVar(VALUE_VAR), LInt(0))
LE = FAtom("<=", LVar(VALUE_VAR), LInt(0))
Y5 = FAtom("=", LVar("y"), LInt(5))


def base(*refs):
    return make_type([BaseArm(INT, r) for r in refs])


def arm(dq, cq):
    return FunArm("x", base(dq), base(cq))


NEG_RESULT = make_type([arm(GE, LE), arm(LE, GE)])
MUL_RESULT = make_type([arm(GE, GE), arm(LE, GE)])


@pytest.fixture()
def inferencer(engine, sign_qualifiers):
    return Inferencer(sign_qualifiers, engine)


class TestFresh:
    def test_square_cardinality(self):
        shape = Arrow("x", INT, INT)
        for n in (1, 2, 3):
            quals = [FAtom(">=", LVar(VALUE_VAR), LInt(k)) for k in range(n)]
            assert len(fresh(shape, quals).arms) == n * n

    def test_four_arm_listing(self, sign_qualifiers):
        got = fresh(Arrow("x", INT, INT), sign_qualifiers)
        expected = make_type([arm(GE, GE), arm(GE, LE), arm(LE, GE), arm(LE, LE)])
        assert got == expected

    def test_nine_arms_with_program_variable_qualifier(self, sign_qualifiers):
        quals = list(sign_qualifiers) + [Y5]
        got = fresh(Arrow("x", INT, INT), quals)
        assert len(got.arms) == 9

    def test_empty_qualifier_set_collapses_to_top(self):
        assert fresh(INT, []) == base(TRUE)

    def test_type_variable_positions_unrefined(self, sign_qualifiers):
        from liqinfer.syntax import TyVar

        got = fresh(Arrow("x", TyVar("a"), TyVar("a")), sign_qualifiers)
        assert got == LiquidType(
            (FunArm("x", LiquidType((VarArm("a"),)), LiquidType((VarArm("a"),))),)
        )

    def test_cap_exceeded_names_the_cap(self, sign_qualifiers):
        shape = Arrow("x", INT, Arrow("y", INT, INT))
        with pytest.raises(ArmCapExceeded, match="cap of 4"):
            fresh(shape, sign_qualifiers, max_arms=4)


class TestTemplateMemo:
    def test_binders_tell_equal_shapes_apart(self, inferencer, sign_qualifiers):
        shapes = [
            Arrow("x", INT, Arrow("z", INT, INT)),
            Arrow("y", INT, Arrow("z", INT, INT)),
            Arrow("x", INT, Arrow("w", INT, INT)),
        ]
        assert bare(shapes[0]) is bare(shapes[1]) is bare(shapes[2])
        templates = [inferencer._template(shape) for shape in shapes]
        assert len({id(t) for t in templates}) == 3
        for shape, tpl in zip(shapes, templates):
            assert tpl.template == fresh(shape, sign_qualifiers)
            assert tpl.top == top_skeleton(shape)
        assert len({tpl.template for tpl in templates}) == 3
        # a new shape object with the same binders finds the same template
        assert inferencer._template(Arrow("x", INT, Arrow("z", INT, INT))) is templates[0]

    def test_each_shape_is_enumerated_once(self, engine, sign_qualifiers, monkeypatch):
        from liqinfer import inference

        shapes = []
        enumerate_ = inference.fresh
        monkeypatch.setattr(
            inference, "fresh", lambda shape, *a: shapes.append(shape) or enumerate_(shape, *a)
        )
        inf = Inferencer(sign_qualifiers, engine)
        term = normalize(parse_term("\\x. let a = + x 1 in let b = + a 1 in b"))
        first = inf.infer(Env(), term)
        enumerated = len(shapes)
        assert inf.infer(Env(), term) is first
        assert len(shapes) == enumerated
        assert render_scheme(first) == render_scheme(Inferencer(sign_qualifiers).infer(Env(), term))


def counting(counts, key, fn):
    """`fn`, counting its calls in `counts[key]`."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestInferenceMemo:
    def test_the_memo_is_exact(self, monkeypatch):
        """Criterion-5 traffic with the memo and without: the same schemes
        and failure texts, the same decisions, and fewer judgements asked."""
        from liqinfer import validity
        from liqinfer.metatheory import run_subject_reduction

        counts = {"decided": 0, "judged": 0}
        decide, judge = validity.builtin_decide, SubtypeChecker.is_subtype

        monkeypatch.setattr(validity, "builtin_decide", counting(counts, "decided", decide))
        monkeypatch.setattr(SubtypeChecker, "is_subtype", counting(counts, "judged", judge))
        runs = {}
        for memo in (True, False):
            if not memo:
                monkeypatch.setattr(Inferencer, "_age", lambda self: None)
            counts.update(decided=0, judged=0)
            report = run_subject_reduction(40, fuel=100, seed=7, engine=ValidityEngine())
            assert report.ok
            reports = [(r.term, r.ok, r.steps, r.inferred, r.failure) for r in report.reports]
            runs[memo] = reports, dict(counts)
        (with_memo, counted), (without, uncounted) = runs[True], runs[False]
        assert with_memo == without
        assert counted["decided"] == uncounted["decided"]
        assert counted["judged"] < uncounted["judged"], (counted, uncounted)

    def test_kept_derived_types_only_remove_constructions(self, monkeypatch):
        """Criterion-5 traffic with literal schemes, self-types and
        one-binding substitutions kept on their inputs, and with each built
        afresh on every use: the same reports, the same decisions and
        judgements, and fewer hash-consed values built: fewer calls of the
        classes' constructors."""
        from liqinfer import inference, subtyping, syntax, validity
        from liqinfer.metatheory import run_subject_reduction
        from liqinfer.syntax import BoolConst, ConstantTable, FBoolVar, FIff, Var
        from test_hashcons import value_classes

        counts = {"decided": 0, "judged": 0, "built": 0}
        decide, judge = validity.builtin_decide, SubtypeChecker.is_subtype

        def self_type(var):
            if var.shape == INT:
                return mono(LiquidType((BaseArm(INT, FAtom("=", LVar(VALUE_VAR), LVar(var.name))),)))
            return mono(LiquidType((BaseArm(var.shape, FIff(FBoolVar(VALUE_VAR), FBoolVar(var.name))),)))

        def subst_liquid(t, rho):
            return make_type(syntax._subst_arm(a, dict(rho)) for a in t.arms) if rho else t

        type_of = ConstantTable.type_of

        def literal_type(table, c):
            if isinstance(c, (IntConst, BoolConst)):
                return mono(syntax._literal_type(c))
            return type_of(table, c)

        monkeypatch.setattr(validity, "builtin_decide", counting(counts, "decided", decide))
        monkeypatch.setattr(SubtypeChecker, "is_subtype", counting(counts, "judged", judge))
        for cls in value_classes():
            monkeypatch.setattr(cls, "__new__", counting(counts, "built", cls.__dict__["__new__"]))
        runs = {}
        for kept in (True, False):
            if not kept:
                monkeypatch.setattr(ConstantTable, "type_of", literal_type)
                monkeypatch.setattr(Var, "self_type", property(self_type))
                for module in (syntax, inference, subtyping):
                    monkeypatch.setattr(module, "subst_liquid", subst_liquid)
            counts.update(decided=0, judged=0, built=0)
            report = run_subject_reduction(40, fuel=100, seed=7, engine=ValidityEngine())
            assert report.ok
            reports = [(r.term, r.ok, r.steps, r.inferred, r.failure) for r in report.reports]
            runs[kept] = reports, dict(counts)
        (with_kept, counted), (afresh, uncounted) = runs[True], runs[False]
        assert with_kept == afresh
        assert counted["decided"] == uncounted["decided"], (counted, uncounted)
        assert counted["judged"] == uncounted["judged"], (counted, uncounted)
        assert counted["built"] < uncounted["built"], (counted, uncounted)

    def test_a_failure_is_remembered_with_its_message(self, inferencer, sign_qualifiers, monkeypatch):
        term = normalize(parse_term("fix (\\f. \\n. + n 0)"))
        messages = []
        for inf in (Inferencer(sign_qualifiers), inferencer, inferencer):
            with pytest.raises(InferenceFailure) as failure:
                inf.infer(Env(), term)
            messages.append(str(failure.value))
            if inf is inferencer:
                # the next inference is answered by the memo
                monkeypatch.setattr(Inferencer, "_infer_app", lambda *args: pytest.fail("inferred again"))
        assert messages[0] == messages[1] == messages[2]

    def test_with_a_constraint_log_every_inference_logs_in_full(self, engine, sign_qualifiers):
        log = []
        inf = Inferencer(sign_qualifiers, engine, constraint_log=log)
        term = normalize(parse_term("\\x. let y = - x in + y 1"))
        first = inf.infer(Env(), term)
        once = list(log)
        assert inf.infer(Env(), term) is first
        assert once and [(e.kind, e.description, e.verdict) for e in log] == 2 * [
            (e.kind, e.description, e.verdict) for e in once
        ]


class TestFilterMemo:
    """The outcome of filtering a template, kept per (Γ's formula, body
    type, candidates)."""

    def test_a_let_under_the_same_formula_asks_no_judgement(self, engine, sign_qualifiers, monkeypatch):
        """Two environments that differ by a function-typed binding share
        one formula: the second `let` is answered without a judgement."""
        from liqinfer.logic import embed_env

        inf = Inferencer(sign_qualifiers, engine)
        term = normalize(parse_term("let y = 3 in y"))
        outer = Env().extend("g", mono(top_skeleton(Arrow("a", INT, INT))))
        three = mono(LiquidType((BaseArm(INT, FAtom("=", LVar(VALUE_VAR), LInt(3))),)))
        assert embed_env(outer.extend("y", three)) is embed_env(Env().extend("y", three))
        counts = {"judged": 0}
        monkeypatch.setattr(SubtypeChecker, "is_subtype", counting(counts, "judged", SubtypeChecker.is_subtype))
        first = inf.infer(Env(), term)
        assert counts["judged"] > 0
        counts["judged"] = 0
        assert inf.infer(outer, term) is first
        assert counts["judged"] == 0
        assert render_scheme(first) == render_scheme(Inferencer(sign_qualifiers).infer(outer, term))

    def test_a_kept_failure_names_each_lets_own_term(self, engine, sign_qualifiers, monkeypatch):
        """No arm fits either `let`, which share a key: the second is told
        from the memo, in its own words."""
        inf = Inferencer(sign_qualifiers, engine)
        counts = {"judged": 0}
        monkeypatch.setattr(SubtypeChecker, "is_subtype", counting(counts, "judged", SubtypeChecker.is_subtype))
        messages, judged = [], []
        for name in ("f", "g"):
            counts["judged"] = 0
            with pytest.raises(InferenceFailure) as failure:
                inf.infer(Env(), normalize(parse_term(f"let {name} = if false in {name} 0")))
            messages.append(str(failure.value))
            judged.append(counts["judged"])
        assert messages == [
            f"no template arm fits let {name} = [/\\a0](([a0]if) false) in ([int]{name}) 0" for name in ("f", "g")
        ]
        # the second `let` judges its body's application alone
        assert judged[1] == 1 < judged[0], judged

    def test_the_memo_is_exact(self, monkeypatch, filter_memo_off):
        """Criterion-5 traffic with the memo and without: the same trials,
        steps, failures and recheck verdicts, the same decisions, and fewer
        judgements asked."""
        from liqinfer import metatheory, validity
        from liqinfer.metatheory import run_subject_reduction

        counts = {"decided": 0, "judged": 0}
        rechecked: list[bool] = []
        recheck = metatheory.recheck
        monkeypatch.setattr(validity, "builtin_decide", counting(counts, "decided", validity.builtin_decide))
        monkeypatch.setattr(SubtypeChecker, "is_subtype", counting(counts, "judged", SubtypeChecker.is_subtype))
        monkeypatch.setattr(metatheory, "recheck", lambda *a, **k: rechecked.append(recheck(*a, **k)) or rechecked[-1])
        runs = {}
        for memo in (True, False):
            if not memo:
                filter_memo_off()
            counts.update(decided=0, judged=0)
            rechecked.clear()
            report = run_subject_reduction(40, fuel=100, seed=7, engine=ValidityEngine())
            assert report.ok
            runs[memo] = report, list(rechecked), dict(counts)
        (with_memo, verdicts, counted), (without, plain_verdicts, uncounted) = runs[True], runs[False]
        assert with_memo == without
        assert verdicts == plain_verdicts and len(verdicts) > with_memo.trials
        assert counted["decided"] == uncounted["decided"], (counted, uncounted)
        assert counted["judged"] < uncounted["judged"], (counted, uncounted)


CHAIN = "\\x. " + "".join(
    f"let x_{i} = sub 1 {'x' if i == 0 else f'x_{i - 1}'} in " for i in range(30)
) + "x_29"


class TestSettledJudgements:
    """The Top rule settled before the subtyping memo, and the temporary
    types a template keeps per sorts of its free variables."""

    @staticmethod
    def unsettled(monkeypatch):
        """Send every judgement past the memo's entry again: no Top type of
        a base shape, and every template's wf asked under each environment."""
        from liqinfer import inference, subtyping

        monkeypatch.setattr(subtyping, "_TOPS", {})
        monkeypatch.setattr(
            inference._Template, "temporary",
            lambda self, checker, env: inference.temporary_type(self.singles, checker, env, self.shape),
        )

    def test_settling_is_exact(self, monkeypatch, tmp_path, capsys):
        """Criterion-5 traffic, a `deep`-style let chain and a `wide`-style
        add3 file, settled and unsettled: the same schemes, failure texts
        and CLI output, the same decisions and queries, and fewer judgements
        decided past the memo (`_decide`) and fewer `wf_check` calls."""
        from liqinfer import cli, validity
        from liqinfer.metatheory import run_subject_reduction

        files = {
            "chain": f"Qualifiers {{ v >= 0, v <= 0 }}\nval f = {CHAIN}\n",
            "add3": "Qualifiers { v >= 0, v <= 0, v >= 1 }\nval add3 = \\x.\\y.\\z. + x (+ y z)\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.ml").write_text(text)
        counts = {"decided": 0, "judged": 0, "wf": 0}
        engines = []
        make_engine = cli._make_engine
        monkeypatch.setattr(validity, "builtin_decide", counting(counts, "decided", validity.builtin_decide))
        monkeypatch.setattr(SubtypeChecker, "_decide", counting(counts, "judged", SubtypeChecker._decide))
        monkeypatch.setattr(SubtypeChecker, "wf_check", counting(counts, "wf", SubtypeChecker.wf_check))
        monkeypatch.setattr(cli, "_make_engine", lambda args: engines.append(make_engine(args)) or engines[-1])
        runs = {}
        for settled in (True, False):
            if not settled:
                self.unsettled(monkeypatch)
            run = {}
            counts.update(decided=0, judged=0, wf=0)
            engine = ValidityEngine()
            report = run_subject_reduction(40, fuel=100, seed=7, engine=engine)
            assert report.ok
            reports = [(r.term, r.ok, r.steps, r.inferred, r.failure) for r in report.reports]
            run["corpus"] = reports, dict(counts), engine.stats["queries"]
            for name in files:
                counts.update(decided=0, judged=0, wf=0)
                code = cli.main([str(tmp_path / f"{name}.ml"), "--json"])
                out = capsys.readouterr()
                assert code == 0, out.err
                run[name] = (out.out, out.err), dict(counts), engines[-1].stats["queries"]
            runs[settled] = run
        for workload in ("corpus", *files):
            (answers, counted, queries), (plain, uncounted, plain_queries) = (
                runs[True][workload], runs[False][workload]
            )
            assert answers == plain, workload
            assert queries == plain_queries, workload
            assert counted["decided"] == uncounted["decided"], (workload, counted, uncounted)
            assert counted["judged"] < uncounted["judged"], (workload, counted, uncounted)
            assert counted["wf"] < uncounted["wf"], (workload, counted, uncounted)

    def test_a_closed_template_asks_its_wf_once(self, engine, sign_qualifiers, monkeypatch):
        from liqinfer.parser import parse_program

        asked = {"wf": 0}
        monkeypatch.setattr(SubtypeChecker, "wf_check", counting(asked, "wf", SubtypeChecker.wf_check))
        inf = Inferencer(sign_qualifiers, engine)
        prog = parse_program(f"Qualifiers {{ v >= 0, v <= 0 }}\nval f = {CHAIN}\n")
        inf.infer(Env(), normalize(prog.bindings[0][1]))
        templates = list(inf._templates.values())
        assert all(not tpl.template.free and list(tpl.temps) == [()] for tpl in templates)
        assert asked["wf"] == sum(len(tpl.singles) for tpl in templates)

    def test_an_open_template_is_filtered_under_each_environment(self, engine, monkeypatch):
        """Under `v >= y` the template of `int` mentions `y`: its temporary
        type keeps the arm while `y` is an int in scope, and drops it where
        a function or a bool binding hides that `y`. It is kept per sort of
        `y`, so a later environment with `y` an int asks nothing; each answer
        is the one a fresh inferencer gives."""
        ge_y = FAtom(">=", LVar(VALUE_VAR), LVar("y"))
        y_int = Env().extend("y", mono(base(LE)))
        hidden = y_int.extend("y", mono(LiquidType((FunArm("a", base(TRUE), base(TRUE)),))))
        as_bool = y_int.extend("y", mono(LiquidType((BaseArm(BOOL, TRUE),))))
        inf = Inferencer([ge_y], engine)
        tpl = inf._template(INT)
        assert tpl.template.free == ("y",)
        asked = {"wf": 0}
        monkeypatch.setattr(SubtypeChecker, "wf_check", counting(asked, "wf", SubtypeChecker.wf_check))
        temps = [tpl.temporary(inf.checker, env) for env in (y_int, hidden, as_bool, y_int)]
        assert temps == [base(ge_y), base(TRUE), base(TRUE), base(ge_y)]
        assert tpl.temps == {("int",): base(ge_y), (None,): base(TRUE), ("bool",): base(TRUE)}
        assert asked["wf"] == 3
        term = normalize(parse_term("let w = 1 in w"))
        got = [render_scheme(inf.infer(env, term)) for env in (y_int, hidden, as_bool, y_int)]
        assert got == ["{v : int | (v>=y)}", "{v : int | true}", "{v : int | true}", "{v : int | (v>=y)}"]
        for env, text in zip((y_int, hidden, as_bool), got):
            assert render_scheme(Inferencer([ge_y], ValidityEngine()).infer(env, term)) == text


class TestInferGolden:
    def test_neg(self, inferencer):
        term = normalize(parse_term("\\x. - x"))
        got = inferencer.infer(Env(), term)
        assert got == mono(NEG_RESULT)

    def test_mul(self, inferencer):
        term = normalize(parse_term("\\x. * x x"))
        got = inferencer.infer(Env(), term)
        assert got == mono(MUL_RESULT)

    def test_integer_literal(self, inferencer):
        got = inferencer.infer(Env(), Const(IntConst(5)))
        assert got == mono(base(FAtom("=", LVar(VALUE_VAR), LInt(5))))

    def test_filtering_stages(self, engine, sign_qualifiers):
        # 9 template arms -> 4 well-formed -> 2 after subtyping
        quals = list(sign_qualifiers) + [Y5]
        term = normalize(parse_term("\\x. - x"))
        shape = w_infer({}, term).ty
        template = fresh(shape, quals)
        assert len(template.arms) == 9
        checker = SubtypeChecker(engine)
        wf = [a for a in template.arms if checker.wf_check(Env(), LiquidType((a,)))]
        assert len(wf) == 4
        final = Inferencer(quals, engine).infer(Env(), term)
        assert final == mono(NEG_RESULT)
        assert len(final.body.arms) == 2


class TestApplyResult:
    def test_survivor_selection(self, inferencer):
        # one validity query per arm; {v=3} < {v>=0} holds (oracle-checked in
        # the metatheory suite), so only the nonnegative-domain arm survives
        arg = base(FAtom("=", LVar(VALUE_VAR), LInt(3)))
        got = inferencer.apply_result(Env(), NEG_RESULT, arg, Const(IntConst(3)))
        assert got == base(LE)

    def test_single_arm_plain_substitution(self, inferencer):
        ident = LiquidType(
            (FunArm("x", base(TRUE), base(FAtom("=", LVar(VALUE_VAR), LVar("x")))),)
        )
        got = inferencer.apply_result(Env(), ident, base(FAtom("=", LVar(VALUE_VAR), LInt(7))), Const(IntConst(7)))
        assert got == base(FAtom("=", LVar(VALUE_VAR), LInt(7)))

    def test_empty_survivors_fail(self, inferencer):
        neg_only = make_type([arm(GE, LE)])
        arg = base(FAtom("=", LVar(VALUE_VAR), LNeg(LInt(1))))
        with pytest.raises(InferenceFailure, match="no function arm"):
            inferencer.apply_result(Env(), neg_only, arg, Const(IntConst(-1)))


class TestInferForms:
    def test_application_of_neg(self, inferencer):
        term = normalize(parse_term("- 3"))
        got = inferencer.infer(Env(), term)
        assert got == mono(base(FAtom("=", LVar(VALUE_VAR), LNeg(LInt(3)))))

    def test_let_result_filtered_by_templates(self, inferencer):
        term = normalize(parse_term("let x = 2 in + x x"))
        got = inferencer.infer(Env(), term)
        assert got == mono(base(GE))

    def test_polymorphic_identity(self, inferencer):
        term = normalize(parse_term("\\z. z"))
        got = inferencer.infer(Env(), term)
        assert len(got.qvars) == 1
        a = got.qvars[0]
        assert got.body == LiquidType(
            (FunArm("z", LiquidType((VarArm(a),)), LiquidType((VarArm(a),))),)
        )

    def test_instantiation_substitutes_wf_template(self, engine):
        # with Q = {v>=0} the instantiated identity keeps the qualifier
        quals = [GE]
        term = normalize(parse_term("let id = \\z. z in id 5"))
        got = Inferencer(quals, engine).infer(Env(), term)
        assert got == mono(base(GE))

    def test_conjunction_instantiation_rejects_unfit_argument(self, inferencer):
        # both sign qualifiers land on the instantiated domain; 5 fails v<=0
        term = normalize(parse_term("let id = \\z. z in id 5"))
        with pytest.raises(InferenceFailure):
            inferencer.infer(Env(), term)

    def test_variable_at_base_shape(self, inferencer):
        env = Env().extend("n", mono(base(GE)))
        got = inferencer.infer(env, parse_term("n"))
        assert got == mono(base(FAtom("=", LVar(VALUE_VAR), LVar("n"))))

    def test_variable_at_function_shape(self, inferencer):
        env = Env().extend("f", mono(NEG_RESULT))
        got = inferencer.infer(env, parse_term("f"))
        assert got == mono(NEG_RESULT)

    def test_unbound_variable(self, inferencer):
        from liqinfer.shapes import ShapeError

        with pytest.raises(ShapeError):
            inferencer.infer(Env(), parse_term("ghost"))


class TestRedex:
    """A β-redex `(\\x. e2) e1`, which only evaluation makes, is typed by
    the let rule, and a failure names the redex itself."""

    @staticmethod
    def redex(source):
        let = normalize(parse_term(source))
        return let, App(Lam(let.binder, let.body), let.bound)  # as `semantics.step` builds it

    def test_a_redex_gets_the_scheme_of_its_let(self, inferencer, sign_qualifiers):
        let, redex = self.redex("let y = 3 in + y 1")
        assert inferencer.infer(Env(), redex) == Inferencer(sign_qualifiers).infer(Env(), let)

    def test_a_failing_redex_names_itself(self, inferencer):
        _, redex = self.redex("let f = if false in f 0")
        with pytest.raises(InferenceFailure) as failure:
            inferencer.infer(Env(), redex)
        assert str(failure.value) == "no template arm fits (\\f. f 0) (([int]if) false)"


class TestInvariants:
    def test_shape_preservation(self, inferencer, sign_qualifiers):
        import random

        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            term = normalize(random_term(rng, GenConfig()))
            try:
                sch = inferencer.infer(Env(), term)
            except Exception:
                continue
            checked += 1
            w = w_infer({}, term)
            assert shape_of(sch.body) == w.ty
            assert len(sch.qvars) == len(w.qvars)
        assert checked > 20

    def test_determinism(self, engine, sign_qualifiers):
        term = normalize(parse_term("\\x. * x x"))
        one = Inferencer(sign_qualifiers, engine).infer(Env(), term)
        two = Inferencer(sign_qualifiers, ValidityEngine()).infer(Env(), term)
        assert render_scheme(one) == render_scheme(two)

    def test_monotone_under_larger_qualifier_set(self, engine, sign_qualifiers):
        import random

        rng = random.Random(29)
        q_small = [GE]
        q_large = list(sign_qualifiers)  # superset of q_small
        small = Inferencer(q_small, engine)
        large = Inferencer(q_large, engine)
        def qualifier_arms(scheme):
            # the invariant concerns arms drawn from the qualifier set; the
            # collapsed top skeleton does not count
            return {
                a for a in scheme.body.arms
                if not (isinstance(a, BaseArm) and isinstance(a.ref, TRUE.__class__))
            }

        kept = 0
        for _ in range(40):
            term = normalize(random_term(rng, GenConfig(max_depth=3)))
            try:
                arms_small = qualifier_arms(small.infer(Env(), term))
                arms_large = qualifier_arms(large.infer(Env(), term))
            except Exception:
                continue
            kept += 1
            assert arms_small <= arms_large
        assert kept > 15

    def test_constraint_log_populated(self, engine, sign_qualifiers):
        log = []
        inf = Inferencer(sign_qualifiers, engine, constraint_log=log)
        inf.infer(Env(), normalize(parse_term("\\x. - x")))
        kinds = {e.kind for e in log}
        assert kinds == {"wf", "sub"}


class TestFixThroughPolymorphicScheme:
    def test_types_at_top_skeleton_with_empty_qualifiers(self, engine):
        term = normalize(parse_term("fix (\\f. \\n. + n 0)"))
        got = Inferencer((), engine).infer(Env(), term)
        assert render_scheme(got) == "(n: {v : int | true} -> {v : int | true})"

    def test_conjunction_domains_reject_sign_qualifiers(self, inferencer):
        # the instantiated intersection demands every qualifier at once;
        # recursion offers no escape hatch, so this fails cleanly
        term = normalize(parse_term("fix (\\f. \\n. + n 0)"))
        with pytest.raises(InferenceFailure):
            inferencer.infer(Env(), term)


class TestTemporaryType:
    def test_collapse_to_top_skeleton(self, engine, sign_qualifiers):
        from liqinfer.inference import temporary_type
        from liqinfer.subtyping import SubtypeChecker
        from liqinfer.syntax import top_skeleton

        checker = SubtypeChecker(engine)
        shape = Arrow("x", INT, INT)
        # every arm mentions the unbound y, so everything is filtered
        template = fresh(shape, [Y5])
        got = temporary_type([LiquidType((a,)) for a in template.arms], checker, Env(), shape)
        assert got == top_skeleton(shape)

    def test_survivors_kept(self, engine, sign_qualifiers):
        from liqinfer.inference import temporary_type
        from liqinfer.subtyping import SubtypeChecker

        checker = SubtypeChecker(engine)
        shape = Arrow("x", INT, INT)
        template = fresh(shape, list(sign_qualifiers) + [Y5])
        got = temporary_type([LiquidType((a,)) for a in template.arms], checker, Env(), shape)
        assert len(got.arms) == 4
