#!/usr/bin/env python3
"""Walk through the inference pipeline on the sign-qualifier program.

Run from the repository root:

    python demos/infer_signs.py
"""

from pathlib import Path

from liqinfer import Env, Inferencer, ValidityEngine, normalize, render_scheme, render_term
from liqinfer.inference import fresh
from liqinfer.parser import parse_program
from liqinfer.shapes import w_infer
from liqinfer.subtyping import SubtypeChecker
from liqinfer.syntax import LiquidType, render_refinement, render_simple_type

HERE = Path(__file__).parent

text = (HERE / "sign.ml").read_text()
program = parse_program(text)

print("qualifier set:")
for q in program.qualifiers:
    print("   ", render_refinement(q))

engine = ValidityEngine()
inferencer = Inferencer(program.qualifiers, engine)
env = Env()

for name, term in program.bindings:
    print(f"\n=== val {name} ===")
    print("surface:   ", render_term(term))

    anf_term = normalize(term)
    print("a-normal:  ", render_term(anf_term))

    shape = w_infer({}, anf_term)
    print("ml shape:  ", render_simple_type(shape.ty))

    # the template enumerates every qualifier combination over the shape
    template = fresh(shape.ty, program.qualifiers)
    print(f"template:   {len(template.arms)} candidate arms")
    checker = SubtypeChecker(engine)
    wf = [a for a in template.arms if checker.wf_check(env, LiquidType((a,)))]
    print(f"well-formed: {len(wf)} arms survive scoping")

    scheme = inferencer.infer(env, anf_term)
    print("inferred:  ", render_scheme(scheme))
    env = env.extend(name, scheme)

print(f"\nvalidity queries: {engine.stats['queries']}")
