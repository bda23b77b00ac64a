"""Liquid intersection type inference for a tiny ML language.

The exports of `metatheory` and `semantics`, which inferring the types of a
file does not use, load on first access, so `liqinfer FILE` does not import
them."""

from .anf import is_anf, normalize
from .inference import ArmCapExceeded, Inferencer, InferenceFailure, fresh
from .parser import ParseError, Program, parse_program, parse_qualifier, parse_scheme, pretty_print
from .shapes import ShapeError, elaborate, shape_env, w_infer
from .subtyping import SubtypeChecker
from .syntax import (
    Env,
    LiqError,
    LiquidType,
    Scheme,
    intersect,
    make_type,
    render_scheme,
    render_term,
    render_type,
    shape_of,
    subst_term,
    subst_type,
    well_founded,
)
from .validity import (
    Invalid,
    SolverError,
    Unknown,
    Valid,
    ValidityEngine,
    ValidityQuery,
    builtin_decide,
    emit_smtlib,
)

__version__ = "0.1.0"

__all__ = [
    "ArmCapExceeded",
    "Env",
    "Inferencer",
    "InferenceFailure",
    "Invalid",
    "LiqError",
    "LiquidType",
    "ParseError",
    "Program",
    "Scheme",
    "ShapeError",
    "SolverError",
    "SubtypeChecker",
    "Unknown",
    "Valid",
    "ValidityEngine",
    "ValidityQuery",
    "builtin_decide",
    "delta",
    "elaborate",
    "emit_smtlib",
    "evaluate",
    "fresh",
    "generate_corpus",
    "intersect",
    "is_anf",
    "make_type",
    "normalize",
    "parse_program",
    "parse_qualifier",
    "parse_scheme",
    "pretty_print",
    "recheck",
    "render_scheme",
    "render_term",
    "render_type",
    "run_oracle_agreement",
    "run_subject_reduction",
    "semantic_implication_oracle",
    "shape_env",
    "shape_of",
    "step",
    "subject_reduction_trial",
    "subst_term",
    "subst_type",
    "w_infer",
    "well_founded",
]

# the exports that load on first access, with their modules
_LAZY = {
    "generate_corpus": "metatheory",
    "recheck": "metatheory",
    "run_oracle_agreement": "metatheory",
    "run_subject_reduction": "metatheory",
    "semantic_implication_oracle": "metatheory",
    "subject_reduction_trial": "metatheory",
    "delta": "semantics",
    "evaluate": "semantics",
    "step": "semantics",
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
