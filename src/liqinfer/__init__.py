"""Liquid intersection type inference for a tiny ML language."""

from .anf import is_anf, normalize
from .inference import ArmCapExceeded, Inferencer, InferenceFailure, fresh
from .metatheory import (
    generate_corpus,
    recheck,
    run_oracle_agreement,
    run_subject_reduction,
    semantic_implication_oracle,
    subject_reduction_trial,
)
from .parser import ParseError, Program, parse_program, parse_qualifier, parse_scheme, pretty_print
from .semantics import delta, evaluate, step
from .shapes import ShapeError, elaborate, erase, shape_env, w_infer
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
    "erase",
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
