"""The free differential graded structure and its presets.

Each preset freely generates one degree-1 symbol per (profile-loop,
label) pair, excluding the unit case.  The differential replaces a
generator by minus the sum of its two-node splittings; squaring to zero
is exactly the quadratic relation system the presets are named after.
Each named preset is one entry of ``PRESETS``, mapping the name to the
graph it is built on; ``build_preset`` builds any of them, and
``FreeDgFc(labeling, ...)`` the same structure on any labeled graph.
"""

from fcmc import (
    LabelMonoid,
    TRIVIAL_MONOID,
    build_Ainf_bimodule,
    build_Ainf_operad,
    compose_cells,
    delta_squared_report,
    generator_cell,
)
from fcmc.freedg import PRESETS, FreeDgFc, build_preset
from fcmc.graphs import make_graph
from fcmc.labels import LabelingFc

fc = build_Ainf_operad(TRIVIAL_MONOID)
m2, m3, m4 = fc.generators(4)
print("one-loop generators up to arity 4:",
      ", ".join(g.name for g in (m2, m3, m4)))

print("\ndelta of the arity-3 generator (all two-node splittings, "
      "coefficient -1):")
print(" ", fc.delta_generator(m3))

print("\ndelta then delta on the arity-4 generator cancels in pairs:")
d2 = fc.delta(fc.delta_generator(m4))
print("  delta^2(m4) =", d2)

print("\nsweeps over whole presets:")
for name, f, arity in [("one-loop", fc, 8),
                       ("bimodule", build_Ainf_bimodule(TRIVIAL_MONOID), 6),
                       ("one-loop, rank-1 labels <= 2",
                        build_Ainf_operad(LabelMonoid(1, 2)), 6)]:
    print(f"  {name}: {delta_squared_report(f, arity).summary()}")

print("\nevery preset in the table, two objects, arity 4:")
for name in PRESETS:
    f = build_preset(name, TRIVIAL_MONOID, True, ["a", "b"], [["a"], ["b"]])
    print(f"  {name} ({len(f.graph.edges)} edges): "
          f"{delta_squared_report(f, 4).summary()}")

# The same differential on any labeled graph is the "generalized" preset.
# Parallel edges break it: two loops b, c on one vertex give label-0
# arity-1 generators whose composites lie on the unit profiles, where no
# generator's differential can cancel them.
two_loops = make_graph(["v"], [("b", "v", "v"), ("c", "v", "v")])
parallel = FreeDgFc(LabelingFc(two_loops, TRIVIAL_MONOID, reduced=True))
print(f"\ngeneralized on two parallel loops ({parallel.preset}):",
      delta_squared_report(parallel, 2).summary().splitlines()[0])

# Composition of cells carries the same signs the differential uses, so
# delta is a derivation for it: delta(c1 o_i c2) equals
# delta(c1) o_i c2 + (-1)^(degree of c1) c1 o_i delta(c2).
c = compose_cells(fc, generator_cell(m3), 2, generator_cell(m2))
lhs = fc.delta(c)
rhs = compose_cells(fc, fc.delta_generator(m3), 2, generator_cell(m2)) + \
    compose_cells(fc, generator_cell(m3), 2,
                  fc.delta_generator(m2)).scale(-1)
print("\nLeibniz on m3 o_2 m2:", "holds" if lhs == rhs else "BROKEN")

# Dropping the Leibniz sign breaks squaring: the would-be cancelling
# pairs now add up.
faulty = FreeDgFc(fc.labeling, preset="ainf", sign_fault=True)
print("\nwith the sign dropped:",
      delta_squared_report(faulty, 5).summary().splitlines()[0])

# Including empty-input generators (the curved variant) also loses
# squaring, through curvature terms rather than sign errors.
curved = build_Ainf_operad(TRIVIAL_MONOID, reduced=False)
rep = delta_squared_report(curved, 3)
print("\ncurved variant keeps arity-0 symbols; delta^2 instead picks up")
print("curvature terms such as:",
      rep.residues[0][1].split(" + ")[0] if rep.residues else "(none)")
