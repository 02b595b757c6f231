"""Certifying candidate structure maps, by two independent routes.

An assignment of one multilinear map per free generator is an algebra
exactly when, for every generator in bounds, the hat-differential of the
assigned map equals the assignment applied to the generator's boundary.
The generic route computes that residue literally from the free
differential; the direct route re-derives the same relations from the
preset's defining identities without ever touching the free structure.
A verdict only counts when both routes agree.
"""

from fcmc import (
    check_algebra,
    check_both_routes,
    check_direct,
    lift_dga,
    random_assignment,
    random_endx,
)

# ----------------------------------------------------------- dual numbers
# The dual numbers 1, eps with eps*eps = 0 form an honest associative
# algebra; shifting it down one degree with the usual product sign gives
# an assignment for the one-object preset in which every relation holds.
fc, A = lift_dga([("1", 0), ("eps", 0)], {}, {
    ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
    ("eps", "1"): {"eps": 1}, ("eps", "eps"): {}})
print("dual numbers, shifted:")
print(" ", check_algebra(fc, A, 5).summary())
print(" ", check_direct(fc, A, 5).summary())

# ------------------------------------------------- a broken multiplication
# Tamper with the table -- (eps,1) now lands on -eps -- and both routes
# must reject, blaming the same lowest arity, each with a witness input.
fc_bad, A_bad = lift_dga([("1", 0), ("eps", 0)], {}, {
    ("1", "1"): {"1": 1, "eps": 1}, ("1", "eps"): {"eps": 1},
    ("eps", "1"): {"eps": -1}, ("eps", "eps"): {}})
gen_bad, dir_bad, agree = check_both_routes(fc_bad, A_bad, 4)
print("\ntampered table (eps*1 = -eps):")
print(" ", gen_bad.summary().replace("\n", "\n  "))
print(" ", dir_bad.summary().replace("\n", "\n  "))
print("  routes agree:", agree,
      "(same verdict, same lowest failing arity)")

# --------------------------------------------------- seeded random sweeps
# Random degree-consistent assignments over random complexes mostly fail
# and occasionally pass; what matters is that the two routes never
# disagree, on any seed.
tally = {True: 0, False: 0}
for seed in range(12):
    X = random_endx(fc.graph, seed, max_dim=3, degree_range=(-1, 2))
    A_rand = random_assignment(fc, X, seed + 1000, 3, density=0.6)
    gen_rep, dir_rep, agree = check_both_routes(fc, A_rand, 3)
    assert agree, f"route disagreement at seed {seed}"
    tally[gen_rep.ok] += 1
print("\n12 random assignments at arity <= 3:",
      f"{tally[True]} certified, {tally[False]} rejected,",
      "routes agreed on every seed")
