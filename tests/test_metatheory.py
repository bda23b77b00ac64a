import random
from itertools import permutations

import pytest

from liqinfer import metatheory
from liqinfer.anf import is_anf, normalize
from liqinfer.inference import Inferencer
from liqinfer.metatheory import (
    OracleInapplicable,
    generate_corpus,
    random_base_query,
    recheck,
    run_oracle_agreement,
    run_subject_reduction,
    semantic_implication_oracle,
    subject_reduction_trial,
)
from liqinfer.parser import parse_scheme, parse_term
from liqinfer.syntax import (
    BaseArm,
    FAtom,
    FAnd,
    Env,
    FunArm,
    INT,
    LInt,
    LNeg,
    TRUE,
    LVar,
    VALUE_VAR,
    make_type,
    mono,
)
from liqinfer.validity import Invalid, Valid, ValidityEngine

GE = FAtom(">=", LVar(VALUE_VAR), LInt(0))
LE = FAtom("<=", LVar(VALUE_VAR), LInt(0))


def base(*refs):
    return make_type([BaseArm(INT, r) for r in refs])


def arm(dq, cq):
    return FunArm("x", base(dq), base(cq))


NEG_TYPE = make_type([arm(GE, LE), arm(LE, GE)])


class TestRecheck:
    def test_neg_at_its_intersection_type(self, sign_qualifiers, engine):
        term = normalize(parse_term("\\x. - x"))
        assert recheck(Env(), term, mono(NEG_TYPE), sign_qualifiers, engine)

    def test_neg_at_one_arm_via_elimination(self, sign_qualifiers, engine):
        term = normalize(parse_term("\\x. - x"))
        one_arm = mono(make_type([arm(GE, LE)]))
        assert recheck(Env(), term, one_arm, sign_qualifiers, engine)

    def test_literal_at_wrong_singleton(self, sign_qualifiers, engine):
        # the enumeration oracle refutes v=5 => v=6 first
        five = FAtom("=", LVar(VALUE_VAR), LInt(5))
        six = FAtom("=", LVar(VALUE_VAR), LInt(6))
        assert not semantic_implication_oracle(Env(), five, six, bound=8)
        assert not recheck(Env(), parse_term("5"), mono(base(six)), sign_qualifiers, engine)

    def test_scheme_quantifiers_opened_at_one_name(self, sign_qualifiers, engine):
        term = normalize(parse_term("\\x. x"))
        assert recheck(Env(), term, parse_scheme("forall b. (x: b -> b)"), sign_qualifiers, engine)
        assert not recheck(Env(), term, parse_scheme("(x: a0 -> a0)"), sign_qualifiers, engine)

    @pytest.mark.parametrize("first, second", list(permutations(("a0", "a1", "p", "q"), 2)))
    def test_every_renaming_of_the_quantifiers_holds(self, sign_qualifiers, engine, first, second):
        """`\\x.\\y. x` is inferred `forall a0 a1. (x: a0 -> (y: a1 -> a0))`;
        each scheme here is an alpha-variant, `forall a1 a0. ...` too, whose
        names are the inferred ones permuted."""
        term = normalize(parse_term("\\x.\\y. x"))
        scheme = parse_scheme(f"forall {first} {second}. (x: {first} -> (y: {second} -> {first}))")
        assert recheck(Env(), term, scheme, sign_qualifiers, engine)

    @pytest.mark.parametrize("text", [
        "forall a0. (x: a0 -> (y: a0 -> a0))",
        "forall a0 a1 a2. (x: a0 -> (y: a1 -> a0))",
    ])
    def test_another_number_of_quantifiers_fails(self, sign_qualifiers, engine, text):
        term = normalize(parse_term("\\x.\\y. x"))
        assert not recheck(Env(), term, parse_scheme(text), sign_qualifiers, engine)

    def test_reflexive_recheck(self, sign_qualifiers, engine):
        inf = Inferencer(sign_qualifiers, engine)
        for src in ["\\x. - x", "\\x. * x x", "let a = 1 in + a a", "5"]:
            term = normalize(parse_term(src))
            sch = inf.infer(Env(), term)
            assert recheck(Env(), term, sch, sign_qualifiers, inferencer=inf), src


class TestSubjectReductionTrial:
    def test_neg_redex_trace(self, sign_qualifiers, engine):
        term = normalize(parse_term("(\\x. - x) 3"))
        report = subject_reduction_trial(term, sign_qualifiers, fuel=20, engine=engine)
        assert report.well_typed and report.ok and not report.stuck
        assert report.steps >= 3

    def test_values_are_vacuous(self, sign_qualifiers, engine):
        report = subject_reduction_trial(parse_term("\\x. x"), sign_qualifiers, 10, engine)
        assert report.ok and report.steps == 0

    def test_let_arithmetic(self, sign_qualifiers, engine):
        term = normalize(parse_term("let x = 2 in + x x"))
        report = subject_reduction_trial(term, sign_qualifiers, 20, engine)
        assert report.ok and not report.timed_out

    def test_ill_typed_term_reported(self, sign_qualifiers, engine):
        term = normalize(parse_term("let id = \\z. z in id 5"))
        report = subject_reduction_trial(term, sign_qualifiers, 20, engine)
        assert not report.well_typed

    def test_one_step_of_fuel_rechecks_the_first_reduct(self, sign_qualifiers, engine, monkeypatch):
        """Fuel 1 takes one step and re-checks its reduct: a failing
        re-check is a preservation violation at step 1, not a timeout."""
        inf = Inferencer(sign_qualifiers, engine)
        term = normalize(parse_term("(\\x. - x) 3"))
        monkeypatch.setattr(metatheory, "recheck", lambda *args, **kwargs: False)
        report = subject_reduction_trial(term, sign_qualifiers, 1, inferencer=inf)
        assert report.well_typed and not report.ok and not report.timed_out
        assert report.steps == 1 and report.failure.startswith("preservation violated at ")


class TestOracle:
    def test_matches_negation_derivation(self):
        env = Env().extend("x", mono(base(GE)))
        lhs = FAtom("=", LVar(VALUE_VAR), LNeg(LVar("x")))
        assert semantic_implication_oracle(env, lhs, LE, 4)

    def test_explicit_countermodel(self):
        assert not semantic_implication_oracle(Env(), TRUE, GE, 4)

    def test_reflexivity(self):
        for ref in (GE, LE, TRUE, FAnd((GE, LE))):
            assert semantic_implication_oracle(Env(), ref, ref, 3)

    def test_non_base_variable_rejected(self):
        env = Env().extend("f", mono(NEG_TYPE))
        with pytest.raises(OracleInapplicable):
            semantic_implication_oracle(env, FAtom("=", LVar(VALUE_VAR), LVar("f")), TRUE, 2)

    def test_boolean_variables_enumerate(self):
        from liqinfer.syntax import FBoolVar, FIff

        lhs = FIff(FBoolVar(VALUE_VAR), TRUE)
        assert semantic_implication_oracle(Env(), lhs, FBoolVar(VALUE_VAR), 2)
        assert not semantic_implication_oracle(Env(), TRUE, FBoolVar(VALUE_VAR), 2)


class TestOracleEngineAgreement:
    def test_valid_never_contradicts_enumeration(self, engine):
        rng = random.Random(31)
        from liqinfer.subtyping import SubtypeChecker

        checker = SubtypeChecker(engine)
        for _ in range(80):
            env, lhs_arms, rhs_arms = random_base_query(rng)
            verdict = engine.check(checker.base_subtype_query(env, lhs_arms, rhs_arms))
            if isinstance(verdict, Valid):
                lhs = lhs_arms[0].ref if len(lhs_arms) == 1 else FAnd(tuple(a.ref for a in lhs_arms))
                rhs = rhs_arms[0].ref if len(rhs_arms) == 1 else FAnd(tuple(a.ref for a in rhs_arms))
                assert semantic_implication_oracle(env, lhs, rhs, 4)

    def test_invalid_models_are_genuine(self, engine):
        # spot check: a known-invalid query yields a model refuting it
        from liqinfer.subtyping import SubtypeChecker

        checker = SubtypeChecker(engine)
        q = checker.base_subtype_query(Env(), [BaseArm(INT, TRUE)], [BaseArm(INT, GE)])
        verdict = engine.check(q)
        assert isinstance(verdict, Invalid)
        assert dict(verdict.model)[VALUE_VAR] < 0


class TestGenerator:
    def test_corpus_terms_are_closed_anf_and_typed(self, sign_qualifiers, free_vars):
        eng = ValidityEngine()
        corpus = generate_corpus(25, sign_qualifiers, seed=4, engine=eng)
        inf = Inferencer(sign_qualifiers, eng)
        assert len(corpus) == 25
        for term in corpus:
            assert not free_vars(term)
            assert is_anf(term)
            inf.infer(Env(), term)  # must not raise

    def test_generation_is_deterministic(self, sign_qualifiers):
        a = generate_corpus(10, sign_qualifiers, seed=5)
        b = generate_corpus(10, sign_qualifiers, seed=5)
        assert a == b


class TestSuites:
    def test_small_subject_reduction_suite(self):
        report = run_subject_reduction(40, fuel=80, seed=6)
        assert report.trials == 40
        assert report.violations == 0
        assert report.stuck == 0
        assert report.recheck_failures == 0

    def test_small_agreement_suite(self):
        report = run_oracle_agreement(60, bound=4, seed=7)
        assert report.queries == 60
        assert report.unsound == 0
        assert report.valid + report.invalid + report.unknown == 60


class TestMonotoneConservativity:
    def test_weaker_engine_only_shrinks_arm_sets(self, sign_qualifiers):
        # downgrading a third of the Valid answers to Unknown must never add
        # arms: every keep is gated on a positive verdict
        import zlib

        from liqinfer.validity import canonical_key

        class Hobbled(ValidityEngine):
            def check(self, q, need_model=True):
                verdict = super().check(q, need_model)
                if isinstance(verdict, Valid) and zlib.crc32(canonical_key(q).encode()) % 3 == 0:
                    from liqinfer.validity import Unknown

                    return Unknown("hobbled")
                return verdict

        from liqinfer.syntax import shape_of, top_skeleton

        full = Inferencer(sign_qualifiers, ValidityEngine())
        weak = Inferencer(sign_qualifiers, Hobbled())
        corpus = generate_corpus(30, sign_qualifiers, seed=12)
        compared = shrunk = 0
        for term in corpus:
            full_sch = full.infer(Env(), term)
            full_arms = set(full_sch.body.arms)
            try:
                weak_arms = set(weak.infer(Env(), term).body.arms)
            except Exception:
                continue  # total failure is maximally conservative
            compared += 1
            trivial = set(top_skeleton(shape_of(full_sch.body)).arms)
            assert weak_arms <= full_arms | trivial
            shrunk += bool(full_arms - weak_arms)
        assert compared > 10
        # the hobbled engine must actually have removed arms, or the test
        # above holds vacuously
        assert shrunk > 0
