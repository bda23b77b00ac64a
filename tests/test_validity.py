import gc
import os
import random
import stat
import tempfile
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from liqinfer.anf import normalize
from liqinfer.inference import Inferencer
from liqinfer import validity
from liqinfer.metatheory import (
    default_qualifiers,
    random_base_query,
    run_oracle_agreement,
    semantic_implication_oracle,
)
from liqinfer.parser import parse_term
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import (
    INT,
    BaseArm,
    Env,
    FAnd,
    FAtom,
    FBoolVar,
    FFalse,
    FIff,
    FTrue,
    LAdd,
    LInt,
    LiquidType,
    LMul,
    LNeg,
    LSub,
    LVar,
    Var,
    VALUE_VAR,
    mono,
    subst_refinement,
    symbols,
)
from liqinfer.validity import (
    NOT_PROVED,
    VALID,
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
Y = LVar("y")


def atom(op, l, r):
    return FAtom(op, l, r)


# the hypothesis-implies-top query of the worked negation derivation
D1_PRIME = ValidityQuery(FAnd((atom(">=", X, LInt(0)), atom("=", V, X))), FTrue())


def neg_query():
    hyp = FAnd((atom(">=", X, LInt(0)), atom("=", V, LNeg(X))))
    return ValidityQuery(hyp, atom("<=", V, LInt(0)))


def criterion_7_queries():
    """The 200 queries of acceptance criterion 7 (seed 404)."""
    rng = random.Random(404)
    checker = SubtypeChecker(ValidityEngine())
    return [checker.base_subtype_query(*random_base_query(rng)) for _ in range(200)]


def evaluate(f, asg):
    """Direct evaluation of a formula; a product is a product."""

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
            Env(), FAtom("=", LVar(VALUE_VAR), LVar(VALUE_VAR)),
            FAtom(">=", LVar(VALUE_VAR), LInt(0)), 4,
        )
        got = builtin_decide(ValidityQuery(FTrue(), atom(">=", V, LInt(0))))
        assert isinstance(got, Invalid)
        model = dict(got.model)
        assert model[VALUE_VAR] < 0

    def test_linear_consequence(self):
        # enumeration over [-4,4] confirms x>=0 /\ v=x => v>=0 first
        env = Env().extend("x", mono(LiquidType((BaseArm(INT, FAtom(">=", LVar(VALUE_VAR), LInt(0))),))))
        assert semantic_implication_oracle(
            env, FAtom("=", LVar(VALUE_VAR), LVar("x")),
            FAtom(">=", LVar(VALUE_VAR), LInt(0)), 4,
        )
        q = ValidityQuery(FAnd((atom(">=", X, LInt(0)), atom("=", V, X))), atom(">=", V, LInt(0)))
        assert builtin_decide(q) == Valid()

    def test_uninterpreted_square_is_not_proved(self):
        hyp = atom("=", V, LMul(X, X))
        got = builtin_decide(ValidityQuery(hyp, atom(">=", V, LInt(0))))
        # x * x is the uninterpreted `times` to the procedure, so this is not
        # proved; a countermodel must square x, so none is found
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

    def test_tightening_is_exact_on_long_constants(self):
        # 2x <= 10^400 + 1 gives x <= 5*10^399, not a float quotient
        big = 10**400
        hyp = atom("<=", LMul(LInt(2), X), LInt(big + 1))
        assert builtin_decide(ValidityQuery(hyp, atom("<=", X, LInt(big // 2)))) is VALID
        got = builtin_decide(ValidityQuery(hyp, atom("<=", X, LInt(big // 2 - 1))), need_model=False)
        assert got == NOT_PROVED

    def test_tightening_by_a_divisor_of_the_constant_is_exact(self):
        # v + v <= 4 is v <= 2: tightened one past that, it would prove v <= 1
        q = ValidityQuery(atom("<=", LAdd(V, V), LInt(4)), atom("<=", V, LInt(1)))
        assert builtin_decide(q) == Invalid((("v", 2),))
        assert builtin_decide(q, need_model=False) == NOT_PROVED

    # -3x + 7y + 5z = 6 ∧ 7x + 3y = 5: two equalities without a unit
    # coefficient, which Pugh's step (`_mod_hat`) solves
    PUGH = FAnd((
        atom("=", LAdd(LAdd(LMul(LInt(-3), X), LMul(LInt(7), Y)), LMul(LInt(5), LVar("z"))), LInt(6)),
        atom("=", LAdd(LMul(LInt(7), X), LMul(LInt(3), Y)), LInt(5)),
    ))

    def test_equalities_without_a_unit_coefficient_are_solved(self):
        assert builtin_decide(ValidityQuery(self.PUGH, atom("<=", LInt(0), LInt(1)))) is VALID

    def test_equalities_without_a_unit_coefficient_give_a_countermodel(self):
        concl = atom("<=", X, LInt(1000))
        got = builtin_decide(ValidityQuery(self.PUGH, concl))
        assert isinstance(got, Invalid) and got.model is not None
        model = dict(got.model)
        assert evaluate(self.PUGH, model) and not evaluate(concl, model)

    def test_three_booleans_are_split(self):
        # three boolean variables, within the bound of the case split
        p, q, r = FBoolVar("p"), FBoolVar("q"), FBoolVar("r")
        hyp = FAnd((FIff(p, q), FIff(q, r), p))
        assert builtin_decide(ValidityQuery(hyp, r)) is VALID

    def test_boolean_iff_case_split(self):
        b = FBoolVar("b")
        hyp = FAnd((FIff(b, atom("<=", X, LInt(0))), b))
        q = ValidityQuery(hyp, atom("<=", X, LInt(0)))
        assert builtin_decide(q) == Valid()

    def test_congruence_closure(self):
        # x = y forces x * x = y * y
        t1 = LMul(X, X)
        t2 = LMul(LVar("y"), LVar("y"))
        hyp = FAnd((atom("=", X, LVar("y")), atom("=", LVar("a"), t1), atom("=", LVar("b"), t2)))
        # without congruence the conclusion a = b would be unprovable
        got = builtin_decide(ValidityQuery(hyp, atom("=", LVar("a"), LVar("b"))))
        assert not isinstance(got, Invalid)

    def test_products_are_evaluated_in_models(self):
        # a product of two non-constants is opaque to the procedure, but an
        # Invalid model must give it the product of its sides
        x_is_3 = ValidityQuery(atom("=", X, LInt(3)), atom("=", LMul(X, X), LInt(9)))
        square = ValidityQuery(atom("=", V, LMul(X, X)), atom(">=", V, LInt(0)))
        for q in (x_is_3, square):
            assert not isinstance(builtin_decide(q), Invalid)
            assert not isinstance(builtin_decide(q, need_model=False), Invalid)
        # x * y = 3 leaves x in {-3, -1, 1, 3}: no model, though not proved
        in_hypothesis = ValidityQuery(atom("=", LMul(X, LVar("y")), LInt(3)), atom("<=", X, LInt(3)))
        assert isinstance(builtin_decide(in_hypothesis), Unknown)
        in_conclusion = ValidityQuery(FTrue(), atom("<=", LMul(X, X), LInt(3)))
        got = builtin_decide(in_conclusion)
        assert isinstance(got, Invalid) and dict(got.model)["x"] ** 2 > 3
        assert evaluate(in_conclusion.conclusion, dict(got.model)) is False

    def test_products_are_computed_from_their_sides(self):
        # x = 8 refutes it: the product takes the value its side gives it,
        # and x is searched past the square root of the bound
        past_50 = ValidityQuery(FTrue(), atom("<=", LMul(X, X), LInt(50)))
        got = builtin_decide(past_50)
        assert isinstance(got, Invalid) and dict(got.model)["x"] ** 2 > 50
        assert evaluate(past_50.conclusion, dict(got.model)) is False
        # y is bound to its own square: the product is searched and checked
        fixed_point = ValidityQuery(atom("=", Y, LMul(Y, Y)), atom("=", Y, LInt(0)))
        got = builtin_decide(fixed_point)
        assert isinstance(got, Invalid) and dict(got.model)["y"] == 1

    def test_scaling_by_a_ground_side_stays_linear(self):
        # (1 + 1) * x and x * -(2) are scalings, however the constant is written
        two_x = LMul(LAdd(LInt(1), LInt(1)), X)
        q = ValidityQuery(atom("=", V, two_x), atom("=", V, LMul(X, LNeg(LNeg(LInt(2))))))
        assert builtin_decide(q) is VALID
        got = builtin_decide(ValidityQuery(atom(">=", X, LInt(1)), atom("<=", two_x, LInt(2))))
        assert isinstance(got, Invalid) and 2 * dict(got.model)["x"] > 2

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
                    not evaluate(p, model) for p in parts if symbols(p)[0].keys() <= model.keys()
                ), (q, model)
        assert invalid > 0

    def test_growth_bound_exceeded_is_unknown(self, monkeypatch):
        import liqinfer.validity as validity

        monkeypatch.setattr(validity, "_MAX_ROWS", 1)
        parts = [atom("<=", LAdd(LVar(f"x{i}"), LVar(f"x{i+1}")), LInt(0)) for i in range(6)]
        parts += [atom(">=", LAdd(LVar(f"x{i}"), LVar(f"x{i+1}")), LInt(1)) for i in range(6)]
        got = builtin_decide(ValidityQuery(FAnd(tuple(parts)), atom("<=", LVar("x0"), LInt(50))))
        assert got == Unknown("row bound exceeded")

    def test_alternative_bound_exceeded_is_unknown(self):
        # each `a = 0 <=> b = 0` has 5 alternatives, so four of them have 625
        iffs = [FIff(atom("=", LVar(f"a{i}"), LInt(0)), atom("=", LVar(f"b{i}"), LInt(0))) for i in range(4)]
        q = ValidityQuery(FAnd(tuple(iffs)), atom("<=", X, LInt(0)))
        assert builtin_decide(q) == Unknown("alternative bound exceeded")
        assert builtin_decide(q, need_model=False) == NOT_PROVED


def xs(i):
    return LVar(f"x{i}")


class TestEqualityElimination:
    """Each hypothesis is compiled once: its equalities with a unit
    coefficient are substituted away before Fourier-Motzkin runs."""

    @pytest.mark.parametrize("order", [1, -1])
    def test_substitution_chains(self, order):
        # x0 = 5 and x_{i+1} = x_i + 1, stated in either order
        eqs = [atom("=", xs(0), LInt(5))]
        eqs += [atom("=", xs(i + 1), LAdd(xs(i), LInt(1))) for i in range(8)]
        hyp = FAnd(tuple(eqs[::order]))
        assert builtin_decide(ValidityQuery(hyp, atom("=", xs(8), LInt(13)))) is VALID
        assert builtin_decide(ValidityQuery(hyp, atom("=", xs(8), LInt(12))), need_model=False) == NOT_PROVED
        # the model reads the substituted system: every x_i is bound
        got = builtin_decide(ValidityQuery(hyp, atom("=", xs(8), LInt(12))))
        assert isinstance(got, Invalid)
        assert dict(got.model) == {f"x{i}": 5 + i for i in range(9)}

    def test_cyclic_equalities_refute_the_hypothesis(self):
        hyp = FAnd((atom("=", X, LVar("y")), atom("=", LVar("y"), LAdd(X, LInt(1)))))
        assert builtin_decide(ValidityQuery(hyp, FFalse())) is VALID

    def test_failing_ground_equality(self):
        hyp = FAnd((atom(">=", X, LInt(0)), atom("=", LInt(0), LInt(1))))
        assert builtin_decide(ValidityQuery(hyp, atom("<=", X, LInt(-5)))) is VALID

    def test_non_unit_equality_stays_sound(self):
        # 2x = 3y has no unit coefficient: Pugh's step solves it
        hyp = atom("=", LMul(LInt(2), X), LMul(LInt(3), LVar("y")))
        at_least_one = FAnd((hyp, atom(">=", LVar("y"), LInt(1))))
        assert builtin_decide(ValidityQuery(at_least_one, atom(">=", X, LInt(2)))) is VALID
        got = builtin_decide(ValidityQuery(hyp, atom(">=", LVar("y"), LInt(0))))
        assert isinstance(got, Invalid)
        model = dict(got.model)
        assert 2 * model["x"] == 3 * model["y"] < 0

    def test_congruence_reads_the_substitution(self):
        # x = y makes x * x and y * y one value, and then their products
        # with z
        f = lambda t: LMul(t, t)  # noqa: E731
        g = lambda t: LMul(t, LVar("z"))  # noqa: E731
        hyp = FAnd((atom("=", X, LAdd(LVar("y"), LInt(0))), atom("=", LVar("a"), g(f(X)))))
        assert builtin_decide(ValidityQuery(hyp, atom("=", LVar("a"), g(f(LVar("y")))))) is VALID
        assert builtin_decide(ValidityQuery(hyp, atom("=", LVar("a"), f(LVar("y")))), need_model=False) == NOT_PROVED

    def test_pugh_step_proves_what_the_real_shadow_misses(self):
        # y = 1 forces 2x = 3, which no integer x meets; the real shadow of
        # eliminating x first is satisfiable
        hyp = atom("=", LMul(LInt(2), X), LMul(LInt(3), Y))
        q = ValidityQuery(hyp, FIff(atom("=", Y, LInt(1)), FFalse()))
        assert builtin_decide(q) is VALID
        assert builtin_decide(q, need_model=False) is VALID

    @pytest.mark.parametrize("concl", [FFalse(), atom("=", X, LInt(7)), atom("<", Y, Y)])
    def test_an_equality_without_integer_solutions_refutes(self, concl):
        # the gcd 2 of the coefficients does not divide 1
        hyp = atom("=", LMul(LInt(2), X), LAdd(LMul(LInt(4), Y), LInt(1)))
        assert builtin_decide(ValidityQuery(hyp, concl)) is VALID

    def test_pugh_variables_stay_out_of_models(self):
        # 3x + 5y + 1 = 0 takes two of Pugh's steps before a unit appears
        hyp = atom("=", LAdd(LAdd(LMul(LInt(3), X), LMul(LInt(5), Y)), LInt(1)), LInt(0))
        for concl in (atom(">=", Y, LInt(2)), atom("<=", X, LInt(-8)), atom("=", X, LInt(-2))):
            got = builtin_decide(ValidityQuery(hyp, concl))
            assert isinstance(got, Invalid)
            model = dict(got.model)
            assert model.keys() == {"x", "y"}
            assert evaluate(hyp, model) and not evaluate(concl, model)

    def test_coefficient_blow_up_is_unknown(self):
        # x4 = 1000^4 * x0 after substitution, past the coefficient bound
        parts = [atom(">=", xs(0), LInt(0))]
        parts += [atom("=", xs(i + 1), LMul(LInt(1000), xs(i))) for i in range(4)]
        q = ValidityQuery(FAnd(tuple(parts)), atom(">=", xs(4), LInt(0)))
        assert builtin_decide(q, need_model=False) == NOT_PROVED
        assert builtin_decide(q) == Unknown("coefficient overflow")

    def test_one_compilation_per_hypothesis(self, monkeypatch):
        compiled = []

        class Counting(validity._Hypothesis):
            __slots__ = ()

            def __init__(self, literals):
                compiled.append(literals)
                super().__init__(literals)

        monkeypatch.setattr(validity, "_Hypothesis", Counting)
        parts = (atom("=", V, LAdd(X, LInt(1))), atom(">=", X, LInt(0)))
        engine = ValidityEngine()
        for q in default_qualifiers() + (FAtom(">=", LVar(VALUE_VAR), LInt(1)),):
            conclusion = FAtom(q.op, LVar(q.lhs.name), LInt(q.rhs.value))
            # a new conjunction per query, as `base_subtype_query` builds it:
            # only the engine keeps it alive from one query to the next
            engine.check(ValidityQuery(FAnd(parts), conclusion), need_model=False)
        assert len(compiled) == 1
        del engine
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, Counting)]


# random conjunctions of linear atoms over a few variables
_names = st.sampled_from(("v", "x", "y", "z"))
_terms = st.one_of(
    st.builds(LInt, st.integers(-3, 3)),
    st.builds(LVar, _names),
    st.builds(lambda n, k: LAdd(LVar(n), LInt(k)), _names, st.integers(-3, 3)),
    st.builds(lambda n, m: LSub(LVar(n), LVar(m)), _names, _names),
    st.builds(lambda k, n: LMul(LInt(k), LVar(n)), st.integers(-2, 3), _names),
)
_atoms = st.builds(FAtom, st.sampled_from(("=", "<=", ">=", "<", ">")), _terms, _terms)
_conjunctions = st.lists(_atoms, min_size=1, max_size=4).map(lambda ps: FAnd(tuple(ps)))


class TestCompiledHypotheses:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_conjunctions, min_size=1, max_size=3), st.lists(_atoms, min_size=1, max_size=4))
    def test_warm_and_renamed_queries_answer_as_fresh_ones(self, hyps, concls):
        queries = [ValidityQuery(h, c) for h in hyps for c in concls]

        def fresh(q):
            q.hypothesis.memo.clear()  # compiled anew, and keyed anew
            return ValidityEngine().check(q)

        verdicts = [fresh(q) for q in queries]
        warm = ValidityEngine()
        assert [warm.check(q) for q in queries] == verdicts
        assert [warm.check(q) for q in queries] == verdicts  # compiled already
        # renamed: the same key and the same proof; a countermodel may
        # differ, since the completion of products tries names in order
        rename = {"v": "a", "x": "b", "y": "c", "z": "d"}
        for q, verdict in zip(queries, verdicts):
            rename_vars = {old: Var(new) for old, new in rename.items()}
            r = ValidityQuery(subst_refinement(q.hypothesis, rename_vars), subst_refinement(q.conclusion, rename_vars))
            assert canonical_key(r) == canonical_key(q)
            assert type(builtin_decide(r, need_model=False)) is type(builtin_decide(q, need_model=False))


# scaled terms whose coefficients share factors, so that gcd tightening and
# Pugh's step take part, over names whose order a renaming can change
_coefficients = st.sampled_from((-3, -2, 2, 3, 4, 6))
_scaled = st.builds(lambda k, n: LMul(LInt(k), LVar(n)), _coefficients, _names)
_scaled_terms = st.one_of(
    _scaled,
    st.builds(LAdd, _scaled, _scaled),
    st.builds(lambda s, k: LAdd(s, LInt(k)), _scaled, st.integers(-6, 6)),
    st.builds(LInt, st.integers(-6, 6)),
)
_scaled_atoms = st.builds(FAtom, st.sampled_from(("=", "<=", ">=", "<", ">")), _scaled_terms, _scaled_terms)


def _scaled_var(k, name):
    return LMul(LInt(k), LVar(name))


class TestRenaming:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_scaled_atoms, min_size=1, max_size=4),
        _scaled_atoms,
        st.permutations(("a", "b", "t1", "t10", "t2", "v", "w", "x", "y", "z")),
    )
    # valid only over the integers; with ties broken by name, this renaming
    # made Fourier-Motzkin eliminate in an order whose tightening fails
    @example(
        hyp=[
            FAtom("<", LAdd(_scaled_var(-3, "v"), LInt(1)), _scaled_var(4, "x")),
            FAtom(">", LAdd(_scaled_var(3, "y"), _scaled_var(4, "v")),
                  LAdd(_scaled_var(-2, "z"), _scaled_var(-3, "v"))),
            FAtom(">=", LAdd(_scaled_var(-2, "x"), LInt(3)), _scaled_var(3, "y")),
            FAtom("<=", _scaled_var(2, "z"), LInt(16)),
        ],
        concl=FAtom(">=", LAdd(_scaled_var(4, "v"), LInt(-2)), LInt(-6)),
        targets=("x", "z", "a", "t10", "b", "t1", "t2", "v", "w", "y"),
    )
    def test_a_renaming_keeps_the_prove_only_verdict(self, hyp, concl, targets):
        """Whether the procedure proves a query does not depend on the names
        of its variables. The engine keeps no verdicts, so a caller outside
        the subtyping memo up to renaming, such as `check-metatheory`, relies
        on this to answer a renamed query as it answered the first."""
        q = ValidityQuery(FAnd(tuple(hyp)), concl)
        rename = {old: Var(new) for old, new in zip(("v", "x", "y", "z"), targets)}
        r = ValidityQuery(subst_refinement(q.hypothesis, rename), subst_refinement(q.conclusion, rename))
        assert (builtin_decide(r, need_model=False) is VALID) == (builtin_decide(q, need_model=False) is VALID)


class TestBackSubstitution:
    """Invalid comes from the Fourier-Motzkin run that fails to refute a
    case: back-substitution gives each variable, last eliminated first, the
    integer nearest 0 between its bounds."""

    def test_offsets_that_add_up(self):
        # every model needs v <= -7: two offsets past the bound of x
        hyp = FAnd((atom("<=", X, LInt(2)), atom("<=", X, LInt(-3)), atom("<", V, LSub(X, LInt(3)))))
        concl = FAnd((atom(">", V, X), atom(">=", V, LInt(-3))))
        got = builtin_decide(ValidityQuery(hyp, concl))
        assert isinstance(got, Invalid)
        model = dict(got.model)
        assert evaluate(hyp, model) and not evaluate(concl, model)
        assert model["v"] <= -7

    def test_oracle_agreement_leaves_nothing_unknown(self):
        report = run_oracle_agreement(2000, seed=3)
        assert (report.queries, report.unknown, report.unsound) == (2000, 0, 0)

    def test_an_integer_gap_is_unknown(self):
        # Pugh's example: 27 <= 11x + 13y <= 45 and -10 <= 7x - 9y <= 4 have
        # real solutions and no integer one, which only a dark shadow shows
        a = LAdd(LMul(LInt(11), X), LMul(LInt(13), Y))
        b = LSub(LMul(LInt(7), X), LMul(LInt(9), Y))
        hyp = FAnd((atom(">=", a, LInt(27)), atom("<=", a, LInt(45)),
                    atom(">=", b, LInt(-10)), atom("<=", b, LInt(4))))
        assert not any(evaluate(hyp, {"x": i, "y": j}) for i in range(-20, 21) for j in range(-20, 21))
        q = ValidityQuery(hyp, FFalse())
        assert builtin_decide(q) == Unknown("no integer between the bounds")
        assert builtin_decide(q, need_model=False) == NOT_PROVED

    def test_a_product_without_completion_is_unknown(self):
        # x * y = 3 and x >= 4 have no model
        q = ValidityQuery(atom("=", LMul(X, Y), LInt(3)), atom("<=", X, LInt(3)))
        assert builtin_decide(q) == Unknown("products not completed")

    @settings(max_examples=80, deadline=None)
    @given(_conjunctions, _conjunctions)
    def test_models_name_only_query_variables_and_falsify_the_query(self, hyp, concl):
        got = builtin_decide(ValidityQuery(hyp, concl))
        if isinstance(got, Invalid):
            model = dict(got.model)
            assert model.keys() == symbols(hyp, concl)[0].keys()
            assert evaluate(hyp, model) and not evaluate(concl, model)


class TestWrapPoints:
    def test_one_decision_per_query(self, monkeypatch):
        """The engine calls the module-level `builtin_decide` once per query,
        repeats included, so that wrapping it counts decisions; compiling a
        hypothesis happens inside it. It keeps no verdicts, so it prints no
        key."""
        queries = add3_family_queries() * 2
        calls = {"decide": 0, "key": 0}
        decide, key = validity.builtin_decide, validity.canonical_key

        def counting_decide(*args, **kwargs):
            calls["decide"] += 1
            return decide(*args, **kwargs)

        def counting_key(*args, **kwargs):
            calls["key"] += 1
            return key(*args, **kwargs)

        monkeypatch.setattr(validity, "builtin_decide", counting_decide)
        monkeypatch.setattr(validity, "canonical_key", counting_key)
        engine = ValidityEngine()
        for query in queries:
            engine.check(query, need_model=False)
        assert calls == {"decide": engine.stats["queries"], "key": 0}
        assert engine.stats["queries"] == len(queries) > 0
        assert engine.cache_size() == 0


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
        q = ValidityQuery(atom("=", V, LMul(X, X)), FTrue())
        script = emit_smtlib(q)
        assert "(declare-fun times (Int Int) Int)" in script

    def test_nonlinear_logic_flag(self):
        # `times` is written as a real product, undeclared
        q = ValidityQuery(atom("=", V, LMul(X, X)), FTrue())
        script = emit_smtlib(q, nonlinear=True)
        assert "(set-logic QF_UFNIA)" in script
        assert "(assert (= v (* x x)))" in script and "times" not in script

    def test_model_parsing(self):
        out = "sat\n(model (define-fun x () Int (- 3)) (define-fun b () Bool true))"
        assert parse_model(out) == {"x": -3, "b": True}


class TestCache:
    """`canonical_key`, which names a query and its alpha-variants with one
    string, the entry under which tests store the queries decided."""

    def test_every_valid_answer_is_one_object(self):
        eng = ValidityEngine()
        assert builtin_decide(neg_query()) is VALID
        assert builtin_decide(D1_PRIME, need_model=False) is VALID
        assert eng.check(neg_query()) is VALID and eng.check(neg_query()) is VALID

    def test_alpha_variants_share_an_entry(self):
        q1 = ValidityQuery(atom(">=", LVar("a"), LInt(0)), atom(">=", LVar("a"), LInt(-1)))
        q2 = ValidityQuery(atom(">=", LVar("zz"), LInt(0)), atom(">=", LVar("zz"), LInt(-1)))
        assert canonical_key(q1) == canonical_key(q2)

    def test_conclusion_names_continue_the_hypothesis_renaming(self):
        hyp = atom(">=", X, LInt(0))
        same = canonical_key(ValidityQuery(hyp, atom(">=", X, LInt(0))))
        # the canonical form of hyp is memoized now; y must not be read as x
        other = canonical_key(ValidityQuery(hyp, atom(">=", LVar("y"), LInt(0))))
        assert same != other
        assert other == canonical_key(ValidityQuery(atom(">=", LVar("y"), LInt(0)), atom(">=", X, LInt(0))))

    def test_keys_tell_iff_from_equality(self):
        # both print as `(= _ _)` in SMT-LIB; the canonical names carry sorts
        p, q = FBoolVar("p"), FBoolVar("q")
        iff = ValidityQuery(FIff(p, q), FIff(p, q))
        eq = ValidityQuery(atom("=", X, LVar("y")), atom("=", X, LVar("y")))
        assert canonical_key(iff) != canonical_key(eq)

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

    def test_a_timeout_past_what_the_system_can_wait_is_a_launch_failure(self, tmp_path):
        cmd = _mock_solver(tmp_path, "cat > /dev/null\necho unsat\n")
        with pytest.raises(SolverError):
            run_solver(cmd, "(check-sat)", float("inf"))
        eng = ValidityEngine(backend="external", smt_cmd=cmd, timeout=1e9)
        assert eng.check(neg_query()) == Unknown("solver launch failure")

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

    def test_one_launch_per_sat_query_reads_the_model_it_printed(self, tmp_path):
        launches = tmp_path / "launches"
        cmd = _mock_solver(tmp_path, f"""\
            echo launch >> {launches}
            cat > /dev/null
            echo sat
            echo '(model (define-fun v () Int (- 1)) (define-fun b () Bool true))'
            """)
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        got = eng.check(ValidityQuery(FTrue(), atom(">=", V, LInt(0))))
        assert got == Invalid((("b", True), ("v", -1)))
        assert launches.read_text().splitlines() == ["launch"]
        eng.check(ValidityQuery(FTrue(), atom("<=", X, LInt(3))))
        assert launches.read_text().splitlines() == ["launch"] * 2
        assert eng.stats["external_calls"] == 2

    def test_a_model_takes_the_names_of_the_query(self, tmp_path):
        """The script declares `x%0` and `%x` under names SMT-LIB accepts;
        the model the solver prints under those names comes back under the
        query's."""
        seen = tmp_path / "script.smt2"
        cmd = _mock_solver(tmp_path, f"""\
            cat > {seen}
            echo sat
            echo '(model (define-fun x_0 () Int (- 1)) (define-fun _x () Int 2))'
            """)
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        q = ValidityQuery(atom("<=", LVar("%x"), LVar("x%0")), atom(">=", LVar("x%0"), LInt(0)))
        assert eng.check(q) == Invalid((("%x", 2), ("x%0", -1)))
        assert "(declare-const _x Int)\n(declare-const x_0 Int)" in seen.read_text()

    def test_the_script_asks_for_a_model_after_the_answer(self, tmp_path):
        seen = tmp_path / "script.smt2"
        cmd = _mock_solver(tmp_path, f"cat > {seen}\necho unsat\n")
        eng = ValidityEngine(backend="external", smt_cmd=cmd)
        assert eng.check(neg_query()) is VALID
        assert seen.read_text().rstrip().endswith("(check-sat)\n(get-model)")

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

    three = default_qualifiers() + (FAtom("=", LVar(VALUE_VAR), LInt(0)),)
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

    @pytest.mark.parametrize("q", [
        # x is an integer in the hypothesis and a boolean in the conclusion
        ValidityQuery(atom(">=", X, LInt(0)), FIff(FBoolVar("x"), FBoolVar("x"))),
        ValidityQuery(FAnd((atom(">=", X, LInt(0)), atom("<=", LInt(1), LInt(0)))), FBoolVar("x")),
    ])
    def test_an_ill_sorted_query_is_valid_on_both_paths(self, q):
        """Each case is refuted before any countermodel is built, so the
        sorts of the integer variables are never read."""
        assert builtin_decide(q, need_model=False) == Valid()
        assert builtin_decide(q) == Valid()

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

