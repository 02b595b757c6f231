"""Graphs, composable paths, profile-loops, and closedness notions.

A profile-loop is a composable edge word together with one edge sharing
its endpoints; these frame every 2-cell in the rest of the package.
Endpoint-closed subgraphs are exactly the ones whose full sub-instances
are closed under "a composite landed inside, so both factors must be".
"""

from fcmc import (
    FullSub,
    LoopInstance,
    build_bimodule_graph,
    build_pair_graph,
    build_partition_subgraph,
    endpoint_violation,
    enumerate_paths,
    enumerate_profile_loops,
    is_endpoint_closed,
    is_factor_closed,
    subgraph,
)

g = build_bimodule_graph()
print("bimodule graph:", [e.id for e in g.edges])

paths = enumerate_paths(g, 2)
print(f"\ncomposable paths of length <= 2 ({len(paths)}):")
for p in paths:
    word = ",".join(p.edges) if p.edges else f"empty@{p.source}"
    print(f"  ({word}): {p.source} -> {p.target}")

loops = enumerate_profile_loops(g, 2)
print(f"\nprofile-loops with input length <= 2: {len(loops)}")
print("a few:", ", ".join(
    f"({','.join(l.inputs.edges) or 'empty'};{l.output})"
    for l in loops[:5]))

# The subgraph keeping both vertex loops but dropping the bridge is
# endpoint-closed: no path of loops ever connects v0 to v1.
sub = subgraph(g, ["v0", "v1"], ["e0", "e1"])
print("\n{e0,e1} endpoint-closed:", is_endpoint_closed(g, sub))

# Dropping e0 but keeping its endpoints is not: the empty path at v0
# already joins the endpoints of e0.
sub2 = subgraph(g, ["v0", "v1"], ["e01", "e1"])
print("{e01,e1} endpoint-closed:", is_endpoint_closed(g, sub2))
viol = endpoint_violation(g, sub2)
print("  witness: inputs", viol.inputs.edges or "(empty)",
      "at", viol.inputs.source, "with outside output", viol.output)

# Endpoint-closed subgraphs give factor-closed full sub-instances.
inst = LoopInstance(g, 3)
for name, s in [("{e0,e1}", sub), ("{e01,e1}", sub2)]:
    rep = is_factor_closed(inst, FullSub(inst, s), 3)
    print(f"full sub over {name}: {rep.summary()}")

# Ordered partitions of the pair graph's objects always produce
# endpoint-closed subgraphs.
pair = build_pair_graph(["a", "b", "c"])
part = build_partition_subgraph(["a", "b", "c"], [["a"], ["b", "c"]])
print("\npartition ({a},{b,c}) of the pair graph on {a,b,c}:")
print("  kept edges:", [e.id for e in part.edges])
print("  endpoint-closed:", is_endpoint_closed(pair, part))
