#!/usr/bin/env python3
"""Show the validity engine's two faces: the built-in decision procedure and
the SMT-LIB script it would hand to an external solver.

    python demos/solver_backends.py
"""

from liqinfer import emit_smtlib
from liqinfer.syntax import FAnd, FAtom, FTrue, LInt, LNeg, LVar
from liqinfer.validity import ValidityQuery, builtin_decide

# with x >= 0 in scope: does v = -x entail v <= 0?
query = ValidityQuery(
    FAnd((FAtom(">=", LVar("x"), LInt(0)), FAtom("=", LVar("v"), LNeg(LVar("x"))))),
    FAtom("<=", LVar("v"), LInt(0)),
)

print("query: x>=0 /\\ v=-x  =>  v<=0")
print("built-in verdict:", builtin_decide(query))
print()
print("SMT-LIB script (unsat answer means the query is valid):")
print(emit_smtlib(query))

# and one that fails, with the countermodel the engine found
bad = ValidityQuery(FTrue(), FAtom(">=", LVar("v"), LInt(0)))
print("query: true => v>=0")
print("built-in verdict:", builtin_decide(bad))
