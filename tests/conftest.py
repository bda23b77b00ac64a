import pytest

from liqinfer.metatheory import default_qualifiers
from liqinfer.syntax import App, Const, Lam, Let, Var
from liqinfer.validity import ValidityEngine


@pytest.fixture(scope="session")
def engine():
    return ValidityEngine()


@pytest.fixture(scope="session")
def sign_qualifiers():
    return default_qualifiers()


def _free_vars(t):
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Lam):
        return _free_vars(t.body) - {t.binder}
    if isinstance(t, App):
        return _free_vars(t.fun) | _free_vars(t.arg)
    if isinstance(t, Let):
        return _free_vars(t.bound) | (_free_vars(t.body) - {t.binder})
    return _free_vars(t.body)


@pytest.fixture(scope="session")
def free_vars():
    """The free variables of a term, in which the substitution and
    closedness tests state their properties."""
    return _free_vars


@pytest.fixture()
def shortcuts_off(monkeypatch):
    """A switch that turns off every shortcut the program takes past the
    paper's algorithm, for the rest of the test: the inference memo
    (`Inferencer._age`), the derived types kept on their inputs (literal
    schemes, self-types and one-binding substitutions), the Top type
    settled before the judgement memos (`subtyping._TOPS`), both judgement
    memos (`SubtypeChecker._sub` decides every judgement but a reflexive
    one) and the temporary types a template keeps (`_Template.temps`, by
    way of `_Template.temporary`). The validity engine keeps no verdicts, so
    every judgement decided afresh reaches the decision procedure."""
    from liqinfer import inference, subtyping, syntax
    from liqinfer.inference import Inferencer
    from liqinfer.subtyping import SubtypeChecker
    from liqinfer.syntax import (
        BaseArm, BoolConst, ConstantTable, FAtom, FBoolVar, FIff, INT, IntConst,
        LiquidType, LVar, VALUE_VAR, make_type, mono,
    )

    type_of = ConstantTable.type_of

    def literal_type(table, c):
        if isinstance(c, (IntConst, BoolConst)):
            return mono(syntax._literal_type(c))
        return type_of(table, c)

    def self_type(var):
        if var.shape == INT:
            return mono(LiquidType((BaseArm(INT, FAtom("=", LVar(VALUE_VAR), LVar(var.name))),)))
        return mono(LiquidType((BaseArm(var.shape, FIff(FBoolVar(VALUE_VAR), FBoolVar(var.name))),)))

    def subst_liquid(t, rho):
        return make_type(syntax._subst_arm(a, dict(rho)) for a in t.arms) if rho else t

    def switch_off():
        monkeypatch.setattr(Inferencer, "_age", lambda self: None)
        monkeypatch.setattr(ConstantTable, "type_of", literal_type)
        monkeypatch.setattr(Var, "self_type", property(self_type))
        for module in (syntax, inference, subtyping):
            monkeypatch.setattr(module, "subst_liquid", subst_liquid)
        monkeypatch.setattr(subtyping, "_TOPS", {})
        monkeypatch.setattr(
            SubtypeChecker, "_sub", lambda self, env, a, b: a is b or SubtypeChecker._decide(self, env, a, b)
        )
        monkeypatch.setattr(
            inference._Template, "temporary",
            lambda self, checker, env: inference.temporary_type(self.singles, checker, env, self.shape),
        )

    return switch_off
