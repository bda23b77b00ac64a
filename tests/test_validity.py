import os
import random
import stat
import tempfile
import textwrap

import pytest

from liqinfer.anf import normalize
from liqinfer.inference import Inferencer
from liqinfer.logic import (
    FAnd,
    FAtom,
    FBoolVar,
    FFalse,
    FIff,
    FNot,
    FTrue,
    LAdd,
    LApp,
    LInt,
    LMul,
    LNeg,
    LSub,
    LVar,
    formula_vars,
)
from liqinfer.metatheory import default_qualifiers, random_base_query, semantic_implication_oracle
from liqinfer.parser import parse_term
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import BaseArm, CmpRef, Env, INT, IntExp, LiquidType, VarExp, VALUE_VAR, mono
from liqinfer.validity import (
    NOT_PROVED,
    Invalid,
    SolverError,
    Unknown,
    Valid,
    ValidityEngine,
    ValidityQuery,
    builtin_decide,
    canonical_key,
    emit_smtlib,
    parse_model,
    run_solver,
)

V = LVar(VALUE_VAR)
X = LVar("x")


def atom(op, l, r):
    return FAtom(op, l, r)


# the hypothesis-implies-top query of the worked negation derivation
D1_PRIME = ValidityQuery(FAnd((atom(">=", X, LInt(0)), atom("=", V, X))), FTrue())


def neg_query():
    from liqinfer.logic import LNeg

    hyp = FAnd((atom(">=", X, LInt(0)), atom("=", V, LNeg(X))))
    return ValidityQuery(hyp, atom("<=", V, LInt(0)))


def criterion_7_queries():
    """The 200 queries of acceptance criterion 7 (seed 404)."""
    rng = random.Random(404)
    checker = SubtypeChecker(ValidityEngine())
    return [checker.base_subtype_query(*random_base_query(rng, 4)) for _ in range(200)]


def evaluate(f, asg):
    """Direct evaluation of a formula without uninterpreted symbols."""

    def ev(t):
        if isinstance(t, LInt):
            return t.value
        if isinstance(t, LVar):
            return asg[t.name]
        if isinstance(t, LNeg):
            return -ev(t.arg)
        l, r = ev(t.lhs), ev(t.rhs)
        return {LAdd: l + r, LSub: l - r, LMul: l * r}[type(t)]

    if isinstance(f, (FTrue, FFalse)):
        return isinstance(f, FTrue)
    if isinstance(f, FAtom):
        l, r = ev(f.lhs), ev(f.rhs)
        return {"=": l == r, "<=": l <= r, ">=": l >= r, "<": l < r, ">": l > r}[f.op]
    if isinstance(f, FBoolVar):
        return asg[f.name]
    if isinstance(f, FNot):
        return not evaluate(f.arg, asg)
    if isinstance(f, FAnd):
        return all(evaluate(p, asg) for p in f.parts)
    assert isinstance(f, FIff)
    return evaluate(f.lhs, asg) == evaluate(f.rhs, asg)


class TestBuiltinDecide:
    def test_hypothesis_implies_top(self):
        assert builtin_decide(D1_PRIME) == Valid()

    def test_negation_derivation_query(self):
        assert builtin_decide(neg_query()) == Valid()

    def test_invalid_with_countermodel(self):
        # expected value computed first with the enumeration oracle:
        # v -> -1 refutes true => v >= 0 inside [-4, 4]
        assert not semantic_implication_oracle(
            Env(), CmpRef("=", VarExp(VALUE_VAR), VarExp(VALUE_VAR)),
            CmpRef(">=", VarExp(VALUE_VAR), IntExp(0)), 4,
        )
        got = builtin_decide(ValidityQuery(FTrue(), atom(">=", V, LInt(0))))
        assert isinstance(got, Invalid)
        model = dict(got.model)
        assert model[VALUE_VAR] < 0

    def test_linear_consequence(self):
        # enumeration over [-4,4] confirms x>=0 /\ v=x => v>=0 first
        env = Env().extend("x", mono(LiquidType((BaseArm(INT, CmpRef(">=", VarExp(VALUE_VAR), IntExp(0))),))))
        assert semantic_implication_oracle(
            env, CmpRef("=", VarExp(VALUE_VAR), VarExp("x")),
            CmpRef(">=", VarExp(VALUE_VAR), IntExp(0)), 4,
        )
        q = ValidityQuery(FAnd((atom(">=", X, LInt(0)), atom("=", V, X))), atom(">=", V, LInt(0)))
        assert builtin_decide(q) == Valid()

    def test_uninterpreted_square_is_not_proved(self):
        hyp = atom("=", V, LApp("times", (X, X)))
        got = builtin_decide(ValidityQuery(hyp, atom(">=", V, LInt(0))))
        # times is uninterpreted, so this must not be Valid; the engine may
        # exhibit a countermodel or give up
        assert not isinstance(got, Valid)
        if isinstance(got, Invalid) and got.model:
            model = dict(got.model)
            assert model[VALUE_VAR] < 0

    def test_inconsistent_hypothesis(self):
        q = ValidityQuery(FAnd((atom(">=", X, LInt(1)), atom("<=", X, LInt(0)))), atom("<=", LInt(1), LInt(0)))
        assert builtin_decide(q) == Valid()

    def test_integer_tightening(self):
        # 2v <= 1 implies v <= 0 over the integers (not the reals)
        q = ValidityQuery(atom("<=", LMul(LInt(2), V), LInt(1)), atom("<=", V, LInt(0)))
        assert builtin_decide(q) == Valid()

    def test_boolean_iff_case_split(self):
        b = FBoolVar("b")
        hyp = FAnd((FIff(b, atom("<=", X, LInt(0))), b))
        q = ValidityQuery(hyp, atom("<=", X, LInt(0)))
        assert builtin_decide(q) == Valid()

    def test_congruence_closure(self):
        # x = y forces times(x,x) = times(y,y)... stated directly on terms
        t1 = LApp("times", (X, X))
        t2 = LApp("times", (LVar("y"), LVar("y")))
        hyp = FAnd((atom("=", X, LVar("y")), atom("=", LVar("a"), t1), atom("=", LVar("b"), t2)))
        # without congruence the conclusion a = b would be unprovable
        got = builtin_decide(ValidityQuery(hyp, atom("=", LVar("a"), LVar("b"))))
        assert not isinstance(got, Invalid)

    def test_products_are_evaluated_in_models(self):
        # x*x is opaque to Fourier-Motzkin; a model must still give x a value
        # and give the product the value of x times x
        x_is_3 = ValidityQuery(atom("=", X, LInt(3)), atom("=", LMul(X, X), LInt(9)))
        square = ValidityQuery(FTrue(), atom(">=", LMul(X, X), LInt(0)))
        assert not isinstance(builtin_decide(x_is_3), Invalid)
        assert not isinstance(builtin_decide(square), Invalid)
        got = builtin_decide(ValidityQuery(FTrue(), atom("<=", LMul(X, X), LInt(3))))
        assert isinstance(got, Invalid)
        assert dict(got.model)["x"] ** 2 > 3

    def test_invalid_models_falsify_criterion_7_queries(self):
        invalid = 0
        for q in criterion_7_queries():
            got = builtin_decide(q)
            if isinstance(got, Invalid):
                invalid += 1
                model = dict(got.model)
                assert evaluate(q.hypothesis, model), (q, model)
                # variables of other conclusion conjuncts may go unassigned;
                # one false conjunct already makes the conclusion false
                parts = q.conclusion.parts if isinstance(q.conclusion, FAnd) else (q.conclusion,)
                assert any(
                    not evaluate(p, model) for p in parts if formula_vars(p).keys() <= model.keys()
                ), (q, model)
        assert invalid > 0

    def test_growth_bound_exceeded_is_unknown(self, monkeypatch):
        import liqinfer.validity as validity

        monkeypatch.setattr(validity, "_MAX_ROWS", 1)
        monkeypatch.setattr(validity, "_MAX_MODEL_EVALS", 1)
        parts = [atom("<=", LAdd(LVar(f"x{i}"), LVar(f"x{i+1}")), LInt(0)) for i in range(6)]
        parts += [atom(">=", LAdd(LVar(f"x{i}"), LVar(f"x{i+1}")), LInt(1)) for i in range(6)]
        got = builtin_decide(ValidityQuery(FAnd(tuple(parts)), atom("<=", LVar("x0"), LInt(50))))
        assert isinstance(got, Unknown)


class TestEmitSmtlib:
    def test_negation_derivation_script(self):
        script = emit_smtlib(neg_query())
        assert "(set-logic QF_UFLIA)" in script
        assert "(declare-const v Int)" in script
        assert "(declare-const x Int)" in script
        assert "(assert (not (<= v 0)))" in script
        assert script.rstrip().endswith("(check-sat)")

    def test_trivial_query(self):
        script = emit_smtlib(ValidityQuery(FTrue(), FTrue()))
        assert "(assert true)" in script and "(assert (not true))" in script

    def test_uninterpreted_declared(self):
        q = ValidityQuery(atom("=", V, LApp("times", (X, X))), FTrue())
        script = emit_smtlib(q)
        assert "(declare-fun times (Int Int) Int)" in script

    def test_nonlinear_logic_flag(self):
        q = ValidityQuery(atom("=", V, LMul(X, X)), FTrue())
        assert "(set-logic QF_UFNIA)" in emit_smtlib(q, nonlinear=True)

    def test_model_parsing(self):
        out = "sat\n(model (define-fun x () Int (- 3)) (define-fun b () Bool true))"
        assert parse_model(out) == {"x": -3, "b": True}


class TestCache:
    def test_repeat_query_hits(self):
        eng = ValidityEngine()
        q = neg_query()
        assert eng.check(q) == Valid()
        before = eng.stats["cache_hits"]
        assert eng.check(q) == Valid()
        assert eng.stats["cache_hits"] == before + 1

    def test_alpha_variants_share_an_entry(self):
        eng = ValidityEngine()
        q1 = ValidityQuery(atom(">=", LVar("a"), LInt(0)), atom(">=", LVar("a"), LInt(-1)))
        q2 = ValidityQuery(atom(">=", LVar("zz"), LInt(0)), atom(">=", LVar("zz"), LInt(-1)))
        assert canonical_key(q1) == canonical_key(q2)
        eng.check(q1)
        before = eng.stats["cache_hits"]
        eng.check(q2)
        assert eng.stats["cache_hits"] == before + 1

    def test_cached_model_takes_the_askers_names(self):
        eng = ValidityEngine()
        first = eng.check(ValidityQuery(atom(">=", LVar("a"), LInt(0)), atom("<=", LVar("a"), LInt(0))))
        assert first == Invalid((("a", 1),))
        again = eng.check(ValidityQuery(atom(">=", LVar("zz"), LInt(0)), atom("<=", LVar("zz"), LInt(0))))
        assert eng.stats["cache_hits"] == 1
        assert again == Invalid((("zz", 1),))

    def test_not_proved_entry_does_not_answer_a_full_check(self):
        eng = ValidityEngine()
        q = ValidityQuery(atom(">=", X, LInt(0)), atom("<=", X, LInt(0)))
        assert eng.check(q, need_model=False) == NOT_PROVED
        assert eng.check(q, need_model=False) == NOT_PROVED
        assert eng.stats["cache_hits"] == 1
        assert eng.check(q) == Invalid((("x", 1),))
        # the full verdict replaced the entry and now answers both kinds
        assert eng.check(q, need_model=False) == Invalid((("x", 1),))
        assert eng.stats["cache_hits"] == 2

    def test_distinct_queries_independent(self):
        q1 = ValidityQuery(FTrue(), atom(">=", V, LInt(0)))
        q2 = ValidityQuery(FTrue(), atom("<=", V, LInt(0)))
        assert canonical_key(q1) != canonical_key(q2)


def _mock_solver(tmp_path, body: str) -> str:
    path = tmp_path / "mock-solver.sh"
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestExternalBackend:
    def test_unsat_means_valid(self, tmp_path):
        cmd = _mock_solver(tmp_path, "echo unsat\n")
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        assert eng.check(neg_query()) == Valid()

    def test_sat_means_invalid(self, tmp_path):
        cmd = _mock_solver(tmp_path, "echo sat\n")
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        got = eng.check(ValidityQuery(FTrue(), atom(">=", V, LInt(0))))
        assert isinstance(got, Invalid)

    def test_unknown_answer(self, tmp_path):
        cmd = _mock_solver(tmp_path, "echo unknown\n")
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        assert isinstance(eng.check(neg_query()), Unknown)

    def test_garbage_answer(self, tmp_path):
        cmd = _mock_solver(tmp_path, "echo flurble\n")
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        assert isinstance(eng.check(neg_query()), Unknown)

    def test_timeout_is_unknown(self, tmp_path):
        cmd = _mock_solver(tmp_path, "sleep 5\necho unsat\n")
        eng = ValidityEngine(backend="external", smt_cmd=cmd, timeout=0.3)
        assert isinstance(eng.check(neg_query()), Unknown)

    def test_launch_failure_raises_solver_error(self):
        with pytest.raises(SolverError):
            run_solver("/nonexistent/solver-binary", "(check-sat)", 1.0)

    def test_missing_binary_is_unknown_per_query(self):
        eng = ValidityEngine(backend="external", smt_cmd="/nonexistent/solver-binary")
        assert isinstance(eng.check(neg_query()), Unknown)

    def test_file_template(self, tmp_path):
        cmd = _mock_solver(tmp_path, 'cat "$1" > /dev/null\necho unsat\n') + " {file}"
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        assert eng.check(neg_query()) == Valid()

    def test_file_template_leaves_no_temp_files(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        cmd = _mock_solver(tmp_path, 'cat "$1" > /dev/null\necho sat\n') + " {file}"
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        assert isinstance(eng.check(neg_query()), Invalid)
        assert list(scratch.iterdir()) == []

    def test_both_backend_falls_back(self, tmp_path):
        cmd = _mock_solver(tmp_path, "echo unsat\n")
        eng = ValidityEngine(backend="both", smt_cmd=cmd)
        # builtin decides this one; external never consulted
        assert eng.check(neg_query()) == Valid()
        assert eng.stats["external_calls"] == 0


def add3_family_queries():
    """Every distinct query inference asks on `add3` under the two sign
    qualifiers and on two-argument addition under three qualifiers."""
    seen = {}

    class Recording(ValidityEngine):
        def check(self, q, need_model=True):
            seen.setdefault(canonical_key(q), q)
            return super().check(q, need_model)

    three = default_qualifiers() + (CmpRef("=", VarExp(VALUE_VAR), IntExp(0)),)
    for quals, src in ((default_qualifiers(), "\\x.\\y.\\z. + x (+ y z)"), (three, "\\x.\\y. + x y")):
        Inferencer(quals, Recording()).infer(Env(), normalize(parse_term(src)))
    return list(seen.values())


class TestProveOnly:
    @pytest.mark.parametrize("family", [criterion_7_queries, add3_family_queries])
    def test_valid_exactly_when_the_full_verdict_is_valid(self, family):
        queries = family()
        eng = ValidityEngine()
        proved = 0
        for q in queries:
            fast = eng.check(q, need_model=False)
            assert isinstance(fast, Valid) == isinstance(builtin_decide(q), Valid), q
            assert isinstance(fast, Valid) or fast == NOT_PROVED
            proved += isinstance(fast, Valid)
        assert 0 < proved < len(queries)

    def test_external_backends_ignore_the_flag(self, tmp_path):
        cmd = _mock_solver(tmp_path, "echo sat\n")
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        got = eng.check(ValidityQuery(FTrue(), atom(">=", V, LInt(0))), need_model=False)
        assert isinstance(got, Invalid)
        assert eng.stats["external_calls"] == 1


class TestRealSolverIfPresent:
    def test_agreement_on_worked_queries(self):
        cmd = os.environ.get("LIQINFER_SMT_CMD")
        if not cmd:
            import shutil

            for candidate in ("z3 -in", "cvc5 --lang smt2", "cvc4 --lang smt2"):
                if shutil.which(candidate.split()[0]):
                    cmd = candidate
                    break
        if not cmd:
            pytest.skip("no SMT solver binary available in this environment")
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        assert eng.check(D1_PRIME) == Valid()
        assert eng.check(neg_query()) == Valid()
        got = eng.check(ValidityQuery(FTrue(), atom(">=", V, LInt(0))))
        assert isinstance(got, Invalid)


class TestConcurrentCache:
    def test_parallel_queries_share_the_cache(self):
        import threading

        eng = ValidityEngine()
        queries = [
            ValidityQuery(atom(">=", LVar(f"x{i}"), LInt(0)), atom(">=", LVar(f"x{i}"), LInt(-1)))
            for i in range(8)
        ]
        results = []

        def worker():
            for q in queries:
                results.append(eng.check(q))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == Valid() for r in results)
        # alpha-equivalent queries collapse to one entry
        assert eng.cache_size() == 1
