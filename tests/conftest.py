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
