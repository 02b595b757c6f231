"""Acceptance gate: six checks, one verdict line each.

Run ``pytest tests/test_acceptance.py -v``: the PASSED/FAILED column is the
per-check verdict, and each test also prints an ``ACCEPTANCE n: PASS`` line
(visible with ``-s`` or in captured output).  All arithmetic is exact;
every tolerance is zero.
"""

import itertools
import random
import time
from fractions import Fraction

from fcmc.cli import main
from fcmc.graphs import (
    EdgePath,
    ProfileLoop,
    is_endpoint_closed,
    make_graph,
    subgraph,
)
from fcmc.labels import TRIVIAL_MONOID, LabelMonoid, LabelingFc
from fcmc.multicat import (
    FullSub,
    LoopInstance,
    OutOfBound,
    check_axioms,
    is_factor_closed,
)
from fcmc.chain import EndX, check_end_dg, make_complex, multimap
from fcmc.algebra import (
    AlgebraData,
    check_algebra,
    check_both_routes,
    check_direct,
    lift_dga,
    random_assignment,
    random_endx,
)
from fcmc.freedg import (
    build_Ainf_bimodule,
    build_Ainf_category,
    build_Ainf_operad,
    build_preset,
)

from test_algebra import (
    dual_numbers,
    ground_field_bimodule,
    strict_two_object_category,
    upper_triangular,
)


def _line(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS — {text}")


# --------------------------------------------------------------- criterion 1


def test_acceptance_1_free_differential_squares_to_zero(capsys):
    commands = [
        ["free-d2", "ainf", "--arity", "8"],
        ["free-d2", "ainf", "--arity", "6", "--labels", "2"],
        ["free-d2", "category", "--arity", "6"],
        ["free-d2", "bimodule", "--arity", "6"],
        ["free-d2", "left-module", "--arity", "5"],
        ["free-d2", "right-module", "--arity", "5"],
    ]
    t0 = time.monotonic()
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, f"{argv}: exit {code}\n{out}"
        assert "verdict: PASS" in out
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"sweeps took {elapsed:.1f}s"
    _line(1, f"all free-differential sweeps exactly zero "
          f"({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 2


def test_acceptance_2_end_complex_laws():
    loop = make_graph(["v"], [("e", "v", "v")])
    two_loop = make_graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    dim3 = make_complex([("x", 0), ("y", 1), ("z", 1)],
                        {"x": {"y": Fraction(1, 2), "z": -1}})
    dim2 = make_complex([("x", 0), ("y", 1)], {"x": {"y": 1}})
    dim1 = make_complex([("w", 0)], {})
    checked = 0
    for X in (EndX(loop, {"e": dim3}),
              EndX(loop, {"e": dim2}),
              EndX(two_loop, {"e": dim2, "f": dim1})):
        rep = check_end_dg(X, arity_bound=2)
        assert rep.ok, rep.summary()
        assert rep.checked > 0
        checked += rep.checked
    _line(2, f"differential, Leibniz, unit, and composition-axiom laws "
          f"hold on {checked} exhaustive identities (dim <= 3, arity <= 2)")


# --------------------------------------------------------------- criterion 3


def test_acceptance_3_route_equivalence_on_random_assignments():
    presets = [
        ("ainf", build_Ainf_operad(TRIVIAL_MONOID)),
        ("category", build_Ainf_category(["x", "y"], TRIVIAL_MONOID)),
        ("bimodule", build_Ainf_bimodule(TRIVIAL_MONOID)),
        ("left-module", build_preset("left-module", TRIVIAL_MONOID,
                                     objects=["x"])),
        ("right-module", build_preset("right-module", TRIVIAL_MONOID,
                                      objects=["x"])),
        ("rmodule", build_preset("rmodule", TRIVIAL_MONOID,
                                 objects=["x", "y"], parts=[["x"], ["y"]])),
    ]
    summary = []
    for name, fc in presets:
        fails = 0
        for seed in range(50):
            X = random_endx(fc.graph, seed, max_dim=3,
                            degree_range=(-1, 2))
            A = random_assignment(fc, X, seed + 1000, 4, density=0.6)
            generic, direct, agree = check_both_routes(fc, A, 4)
            assert agree, (
                f"{name} seed {seed}: generic "
                f"{(generic.ok, generic.lowest_failing_arity())} vs direct "
                f"{(direct.ok, direct.lowest_failing_arity())}")
            fails += (not generic.ok)
        # the sample must exercise both verdicts for agreement to mean much
        assert 0 < fails < 50, f"{name}: degenerate sample ({fails}/50)"
        summary.append(f"{name} {fails}/50 failing")
    _line(3, "generic and direct routes agree on "
          f"{50 * len(presets)} seeded assignments "
          f"({'; '.join(summary)})")


# --------------------------------------------------------------- criterion 4


def _perturbed_table(table, basis, seed):
    """Seeded tweak: add a random multiple of a basis element to one
    product entry."""
    rng = random.Random(seed)
    key = rng.choice(sorted(table))
    target = rng.choice(sorted(basis))
    c = rng.choice([-2, -1, 1, 2])
    out = {k: dict(v) for k, v in table.items()}
    out.setdefault(key, {})
    out[key][target] = out[key].get(target, 0) + c
    return out


def _dual_table():
    return {("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
            ("eps", "1"): {"eps": 1}, ("eps", "eps"): {}}


def _ut_table():
    names = ("E11", "E12", "E22")
    table = {}
    for a in names:
        for b in names:
            table[(a, b)] = {f"E{a[1]}{b[2]}": 1} if a[2] == b[1] else {}
    return table


def _category_fixture_with(coeffs):
    fc = build_Ainf_category(["u", "w"], TRIVIAL_MONOID)
    X = EndX(fc.graph, {e.id: make_complex([(f"b_{e.id}", -1)], {})
                        for e in fc.graph.edges})
    assignment = {}
    for gen in fc.generators(2):
        e1, e2 = gen.profile.inputs.edges
        out = gen.profile.output
        c = coeffs.get((e1, e2), -1)
        assignment[gen] = multimap(X, (e1, e2), out, 1,
                                   {(f"b_{e1}", f"b_{e2}"): {f"b_{out}": c}})
    return fc, AlgebraData(X, assignment)


def _bimodule_fixture_with(coeffs):
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    X = EndX(fc.graph, {e: make_complex([(f"b{e}", -1)], {})
                        for e in ("e0", "e01", "e1")})
    z = fc.monoid.zero()
    assignment = {}
    for word, out in [(("e0", "e0"), "e0"), (("e1", "e1"), "e1"),
                      (("e0", "e01"), "e01"), (("e01", "e1"), "e01")]:
        src = "v0" if word[0] != "e1" else "v1"
        tgt = "v1" if out != "e0" else "v0"
        gen = fc.generator(ProfileLoop(EdgePath(word, src, tgt), out), z)
        key = tuple(f"b{e}" for e in word)
        assignment[gen] = multimap(X, word, out, 1,
                                   {key: {f"b{out}": coeffs.get(word, -1)}})
    return fc, AlgebraData(X, assignment)


def _seeded_coeff(options, seed):
    rng = random.Random(seed)
    return rng.choice(sorted(options)), rng.choice([-3, -2, 1, 2])


def test_acceptance_4_classical_fixtures_and_perturbations():
    # the four clean fixtures pass at arity <= 5
    fixtures = {
        "dual numbers": dual_numbers(),
        "upper triangular 2x2": upper_triangular(),
        "strict 2-object category": strict_two_object_category(),
        "ground-field bimodule": ground_field_bimodule(),
    }
    for name, (fc, A) in fixtures.items():
        generic, direct, agree = check_both_routes(fc, A, 5)
        assert generic.ok and direct.ok and agree, name

    # seeded non-associative perturbations fail at arity 3 with a witness
    perturbed = {
        "dual numbers": lift_dga(
            [("1", 0), ("eps", 0)], {},
            _perturbed_table(_dual_table(), ["1", "eps"], seed=1)),
        "upper triangular 2x2": lift_dga(
            [("E11", 0), ("E12", 0), ("E22", 0)],
            {}, _perturbed_table(_ut_table(),
                                 ["E11", "E12", "E22"], seed=0)),
        "strict 2-object category": _category_fixture_with(
            dict([_seeded_coeff([g.profile.inputs.edges for g in
                                 build_Ainf_category(
                                     ["u", "w"],
                                     TRIVIAL_MONOID).generators(2)],
                                seed=0)])),
        "ground-field bimodule": _bimodule_fixture_with(
            dict([_seeded_coeff([("e0", "e0"), ("e1", "e1"),
                                 ("e0", "e01"), ("e01", "e1")], seed=0)])),
    }
    for name, (fc, A) in perturbed.items():
        generic = check_algebra(fc, A, 5)
        assert not generic.ok, f"{name}: perturbation stayed associative"
        assert generic.lowest_failing_arity() == 3, name
        witness = next(f.witness for f in generic.failures if f.arity == 3)
        assert witness
        print(f"  perturbed {name}: arity-3 witness {witness}")
        d = check_direct(fc, A, 5)
        assert not d.ok and d.lowest_failing_arity() == 3, name
    _line(4, "four classical fixtures pass at arity <= 5; their seeded "
          "non-associative perturbations fail at arity 3 with witnesses")


# --------------------------------------------------------------- criterion 5


def graph_family(max_v=3, max_e=4):
    """All directed multigraphs with |V| <= max_v, |E| <= max_e, one
    representative per vertex-permutation class."""
    out = []
    for nv in range(1, max_v + 1):
        verts = [f"w{k}" for k in range(nv)]
        pairs = [(a, b) for a in range(nv) for b in range(nv)]
        seen = set()
        for ne in range(0, max_e + 1):
            for combo in itertools.combinations_with_replacement(pairs, ne):
                best = min(
                    tuple(sorted((p[a], p[b]) for a, b in combo))
                    for p in itertools.permutations(range(nv)))
                if best in seen:
                    continue
                seen.add(best)
                out.append(make_graph(
                    verts, [(f"g{k}", f"w{a}", f"w{b}")
                            for k, (a, b) in enumerate(combo)]))
    return out


def all_subgraphs(g):
    vids = g.vertex_ids()
    for vmask in range(1 << len(vids)):
        kept_v = [v for k, v in enumerate(vids) if vmask >> k & 1]
        vset = set(kept_v)
        ok_edges = [e.id for e in g.edges
                    if e.src in vset and e.tgt in vset]
        for emask in range(1 << len(ok_edges)):
            yield subgraph(g, kept_v,
                           [e for k, e in enumerate(ok_edges)
                            if emask >> k & 1])


def _inside(cell, sub_v, sub_e):
    p = cell.profile
    if p.inputs.edges:
        return set(p.inputs.edges) <= sub_e and p.output in sub_e
    return p.inputs.source in sub_v and p.output in sub_e


def _oracle_violation(inst, sub):
    """Brute force sharing nothing with is_factor_closed: scan every
    composable pair for a composite inside with a factor outside."""
    sub_e = {e.id for e in sub.edges}
    sub_v = {v.id for v in sub.vertices}
    cells = inst.cells()
    by_out = {}
    for c in cells:
        by_out.setdefault(c.profile.output, []).append(c)
    for u in cells:
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            for v in by_out.get(eid, ()):
                comp = inst.compose(u, i, v)
                if isinstance(comp, OutOfBound):
                    continue
                if _inside(comp, sub_v, sub_e) and not (
                        _inside(u, sub_v, sub_e)
                        and _inside(v, sub_v, sub_e)):
                    return (u, i, v)
    return None


def test_acceptance_5_endpoint_closed_implies_factor_closed():
    closed = caught = vacuous = 0
    for g in graph_family():
        inst = LoopInstance(g, 3)
        for sub in all_subgraphs(g):
            sub_v = {v.id for v in sub.vertices}
            sub_e = {e.id for e in sub.edges}
            rep = is_factor_closed(inst, FullSub(inst, sub),
                                   3)
            if is_endpoint_closed(g, sub):
                closed += 1
                assert rep.ok, (g.edges, sub.edges, rep.summary())
            elif _oracle_violation(inst, sub) is not None:
                caught += 1
                assert not rep.ok, (g.edges, sub.edges)
                u, i, v = rep.witness
                comp = inst.compose(u, i, v)
                assert _inside(comp, sub_v, sub_e)
                assert not (_inside(u, sub_v, sub_e)
                            and _inside(v, sub_v, sub_e))
            else:
                vacuous += 1
                assert rep.ok, (g.edges, sub.edges)
    assert closed > 1000 and caught > 1000
    _line(5, f"endpoint-closed => factor-closed on {closed} closed "
          f"subgraphs; {caught} non-closed subgraphs yield verified "
          f"witnesses ({vacuous} have no violation within length 3)")


# --------------------------------------------------------------- criterion 6


def test_acceptance_6_axiom_audit_exhaustive():
    family = graph_family()
    monoid = LabelMonoid(1, 2)
    # every instance is certified closed and thin, so the nested, parallel
    # and gamma identities are decided by coherence and counted.  A labeled
    # table is expanded from its plain factor's, whose certificate it
    # carries: the plain factor of a labeled instance is the plain
    # instance audited before it at the same length and bound, whose
    # table was composed and certified there
    totals = {}
    certified = set()
    for name, make_fc, bound in [
            ("plain", lambda g: LoopInstance(g, 3), 3),
            ("longer", lambda g: LoopInstance(g, 4), 4),
            ("labeled", lambda g: LoopInstance(
                g, 3, LabelingFc(g, monoid, False)), 3),
            ("labeled_longer", lambda g: LoopInstance(
                g, 4, LabelingFc(g, monoid, False)), 4)]:
        totals[name] = 0
        for k, g in enumerate(family):
            inst = make_fc(g)
            rep = check_axioms(inst, bound)
            assert rep.ok, (g.edges, rep.summary())
            ix = inst._indexed(bound)
            assert ix.closed and ix.thin, g.edges
            if inst.labeling is None:
                certified.add((k, inst.max_len, bound))
            else:
                assert (k, inst.max_len, bound) in certified, g.edges
            totals[name] += rep.checked
    # the totals of the compose build, which composes every labeled pair
    assert totals == {"plain": 1755955, "longer": 52815155,
                      "labeled": 22096148, "labeled_longer": 1010784189}
    _line(6, "unit/associativity/order-independence identities hold: "
          f"{totals['plain']} on profile-loop instances at length <= 3 and "
          f"{totals['longer']} at length <= 4, {totals['labeled']} on "
          f"labeled instances at length <= 3 and "
          f"{totals['labeled_longer']} at length <= 4, truncation <= 2 "
          f"({len(family)} graphs)")
