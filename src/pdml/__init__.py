"""pdml: exact return-set computation for torus dynamics over F_p(t).

Computes sets {n : Phi^n(alpha) in V} for affine self-maps of split tori
over F_p(t), reduces them to polynomial-exponential equations
u_n = sum c_i p^(k_i n_i), classifies the solution sets into arithmetic
progressions plus p-sets with two-sided verification, and generates
hard instances from integer linear recurrences.

Names are imported from their modules (pdml.exact, pdml.lrs, pdml.psets,
pdml.pexp, pdml.torus, pdml.constructions, pdml.serial, pdml.errors), so
importing one module loads only what it uses.
"""
