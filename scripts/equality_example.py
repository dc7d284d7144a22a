#!/usr/bin/env python3
"""Walk through the boundary-case ideal (x1^6 x2^2, x2^4) = x2^2 (x1^6, x2^2).

Prints every invariant, the sharp two-variable bound holding with equality,
the closure factorization, and the degeneration bound for the perturbed
polynomial ideal x2^2 (x1^6, x2^2 + x1^2 x2), whose entry value the monomial
degeneration recovers exactly.
"""

from staircase import (
    MonomialIdeal,
    PolyIdeal,
    RationalPolynomial,
    contains_polynomial,
    integral_closure,
    least_certified_mu,
    mu_upper_bound_details,
    shift_ideal,
    tangent_cone_initial,
    verify_codim2,
)

J = MonomialIdeal(2, [(6, 2), (0, 4)])
r = verify_codim2(J)
print(f"ideal: {J}")
print(f"  mu = {r.mu}, factor exponents b = {r.b_vector}, factor multiplicity = {r.factor_mult}")
print(f"  primitive part multiplicity e = {r.primitive_mult}, length = {r.primitive_length}")
print(f"  sharp bound: {r.sharp_bound_lhs} >= {r.sharp_bound_rhs} (equality: {r.sharp_equality})")

closure = integral_closure(J)
prim_closure = integral_closure(MonomialIdeal(2, [(6, 0), (0, 2)]))
print(f"  closure: {list(closure.gens)}")
print(f"  equals x2^2 * closure((x1^6, x2^2)): {closure == shift_ideal(prim_closure, (0, 2))}")

f = RationalPolynomial(2, {(0, 2): 1, (2, 1): 1})
print(f"  x2^2 + x1^2 x2 in closure((x1^6, x2^2)): {contains_polynomial(prim_closure, f)}")

I = PolyIdeal(2, (RationalPolynomial(2, {(6, 2): 1}), RationalPolynomial(2, {(0, 4): 1, (2, 3): 1})))
print(f"perturbed polynomial ideal: x2^2 (x1^6, x2^2 + x1^2 x2)")
print(f"  tangent-cone degeneration: {list(tangent_cone_initial(I).gens)}")
print(f"  certified upper bound for mu: {least_certified_mu(mu_upper_bound_details(I, trials=8, seed=0))}")
