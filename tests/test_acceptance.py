"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion also asserts, so the suite fails loudly if any gate breaks.
"""

import json
import random
import time
from fractions import Fraction

import ispaces as I
from ispaces import (
    BetweennessTable,
    ExhaustivePopulation,
    SampledPopulation,
    axiom_violations,
    convex_closure_system,
    find_separating,
    free_orbit_encoding,
    random_space,
    verify_antisymmetry_theorem,
    verify_transitivity_theorem,
)
from ispaces.cli import main

import naive
from conftest import TRIANGLE_POINTS


def _gate(num, name, ok, detail="", elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    line = f"acceptance {num} ({name}): {status}{timing}"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line


def _spaces_up_to_4():
    for n in (1, 2, 3, 4):
        yield from I.enumerate_spaces(n)


def _regression_suite(max_n):
    suite = [I.linear_order_space(n) for n in range(1, 7)]
    suite += [
        I.geodesic_space_from_graph(I.complete_bipartite_graph(2, 3)),
        I.geodesic_space_from_graph(I.complete_graph(3)),
        I.geodesic_space_from_graph(I.path_graph(4)),
        I.vector_space_on_points(TRIANGLE_POINTS),
        free_orbit_encoding(4).decode(0),
        free_orbit_encoding(4).decode(free_orbit_encoding(4).space_count - 1),
        random_space(5, 101, 0.3),
        random_space(6, 202, 0.2),
        random_space(6, 203, 0.8),
    ]
    if max_n >= 7:
        suite += [
            random_space(7, 303, 0.15),
            random_space(8, 404, 0.1),
            I.geodesic_space_from_graph(
                I.Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
            ),
        ]
    return [s for s in suite if s.n <= max_n]


def test_criterion_1_axiom_validation():
    start = time.perf_counter()
    distinct = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
                if len({a, b, c}) == 3]
    assert len(distinct) == 6
    accepted = set()
    for bits in range(1 << 6):
        table_bits = I.core._forced_bits(3)
        for k, (a, b, c) in enumerate(distinct):
            if (bits >> k) & 1:
                table_bits |= 1 << I.core._triple_index(3, a, b, c)
        table = BetweennessTable(3, table_bits)
        if not axiom_violations(table):
            accepted.add(table.bits)
    enumerated = {s.table.bits for s in I.enumerate_spaces(3)}
    elapsed = time.perf_counter() - start
    _gate(
        1, "axiom validation", len(accepted) == 8 and accepted == enumerated and elapsed < 1.0,
        f"accepted={len(accepted)}/64", elapsed,
    )


def test_criterion_2_transitivity_theorem():
    start = time.perf_counter()
    reports = [verify_transitivity_theorem(ExhaustivePopulation(n)) for n in (3, 4)]
    elapsed = time.perf_counter() - start
    ok = (
        all(r.violation_count == 0 and r.skipped == () for r in reports)
        and reports[0].total == 8
        and reports[1].total == 4096
        and elapsed < 120.0
    )
    _gate(2, "transitivity equivalences", ok,
          f"violations={[r.violation_count for r in reports]}", elapsed)


def test_criterion_3_antisymmetry_theorem():
    start = time.perf_counter()
    reports = [verify_antisymmetry_theorem(ExhaustivePopulation(n)) for n in (3, 4)]
    sampled = verify_antisymmetry_theorem(SampledPopulation(n=5, seed=20250808, count=100_000))
    elapsed = time.perf_counter() - start
    ok = (
        all(r.violation_count == 0 for r in reports)
        and sampled.violation_count == 0
        and sampled.total == 100_000
        and elapsed < 300.0
    )
    checked = sampled.total - sampled.hypothesis_excluded
    _gate(3, "antisymmetry equivalences", ok,
          f"n=5 samples qualifying={checked}", elapsed)


def test_criterion_4_propositions():
    start = time.perf_counter()
    failures = []

    def run(space):
        if I.base_interval_transitivity_prop_witness(space) is not None:
            failures.append(("base-interval-transitivity", space))
        if I.base_interval_antisymmetry_prop_witness(space) is not None:
            failures.append(("base-interval-antisymmetry", space))
        if I.stiff_convex_antisymmetry_witness(space) is not None:
            failures.append(("stiff-convex-antisymmetry", space))
        if naive.chain_walk(convex_closure_system(space).closed) is not None:
            failures.append(("combinatorial", space))
        if I.interval_transitivity_witness(space) is None:
            for a_set in space.convex_sets():
                if len(a_set) and I.entailment_reverse_witness(space, a_set) is not None:
                    failures.append(("entailment-reverse", space))

    total = 0
    for space in _spaces_up_to_4():
        run(space)
        total += 1
    for _, space in SampledPopulation(n=5, seed=314159, count=10_000).spaces():
        run(space)
        total += 1
    elapsed = time.perf_counter() - start
    _gate(4, "propositions universally valid", not failures,
          f"spaces={total} failures={len(failures)}", elapsed)


def test_criterion_5_set_operator_algebra():
    start = time.perf_counter()
    bad = 0
    for space in _regression_suite(max_n=6):
        tab = space._subset_table()
        size = 1 << space.n
        for am in range(size):
            row = tab[am]
            for cm in range(size):
                if row[cm] != tab[cm][am]:
                    bad += 1
        # every nested pair (A <= B) x (C <= D): two-sided monotonicity
        nested = []
        for big in range(size):
            sub = big
            while True:
                nested.append((sub, big))
                if sub == 0:
                    break
                sub = (sub - 1) & big
        for am, bm in nested:
            row_a, row_b = tab[am], tab[bm]
            for cm, dm in nested:
                if row_a[cm] & ~row_b[dm]:
                    bad += 1
    # sampled check at n=8, no lookup table
    rng = random.Random(5150)
    samples = [random_space(8, 8800 + k, 0.15) for k in range(4)]
    for k in range(10_000):
        space = samples[k % 4]
        full = (1 << 8) - 1
        am, cm = rng.randint(0, full), rng.randint(0, full)
        bm, dm = am | rng.randint(0, full), cm | rng.randint(0, full)
        small = space._set_interval_mask(am, cm)
        if small != space._set_interval_mask(cm, am):
            bad += 1
        if small & ~space._set_interval_mask(bm, dm):
            bad += 1
    elapsed = time.perf_counter() - start
    _gate(5, "set-operator algebra", bad == 0, f"breaches={bad}", elapsed)


def test_criterion_6_hull_oracle():
    start = time.perf_counter()
    bad = 0
    for space in _regression_suite(max_n=8):
        cs = convex_closure_system(space)
        convex_masks = space._convex_masks()
        full = (1 << space.n) - 1
        for am in range(1 << space.n):
            fixpoint = space._hull_mask(am)
            by_intersection = full
            for mask in convex_masks:
                if am & ~mask == 0:
                    by_intersection &= mask
            if fixpoint != by_intersection or fixpoint != cs._cl_mask(am):
                bad += 1
    elapsed = time.perf_counter() - start
    _gate(6, "hull equals closure oracles", bad == 0, f"mismatches={bad}", elapsed)


def test_criterion_7_vector_space_claims():
    start = time.perf_counter()
    bad = 0
    total = 0
    for dim, seed_base in ((2, 9000), (3, 9500)):
        for k in range(100):
            rng = random.Random(seed_base + k)
            pts = set()
            while len(pts) < 6:
                pts.add(tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 8))
                              for _ in range(dim)))
            space = I.vector_space_on_points(sorted(pts))
            total += 1
            if not (I.point_transitivity_witness(space) is None and I.point_antisymmetry_witness(space) is None
                    and I.stiffness_witness(space) is None):
                bad += 1
    elapsed = time.perf_counter() - start
    _gate(7, "vector-space samples", bad == 0 and total == 200,
          f"configurations={total} failures={bad}", elapsed)


def test_criterion_8_known_model_facts():
    start = time.perf_counter()
    k23 = I.geodesic_space_from_graph(I.complete_bipartite_graph(2, 3))
    witness = I.interval_convexity_witness(k23)
    k23_ok = (
        witness is not None
        and witness[:2] == (2, 3)
        and k23.interval(2, 3).members == {0, 1, 2, 3}
        and not k23.is_convex(k23.interval(2, 3))
    )
    chains_ok = True
    for n in range(1, 7):
        space = I.linear_order_space(n)
        cv = I.transitivity_conditions(space)
        dv = I.antisymmetry_conditions(space)
        if cv.values != (True,) * 9 or dv.values != (True,) * 5:
            chains_ok = False
    search_ok = all(
        find_separating(["interval-transitive"], ["point-transitive"],
                        max_spaces=budget, seed=3) is None
        for budget in (1, 10, 1000, 20000)
    )
    elapsed = time.perf_counter() - start
    _gate(8, "known model facts", k23_ok and chains_ok and search_ok,
          f"k23={k23_ok} chains={chains_ok} search={search_ok}", elapsed)


def test_criterion_9_worker_determinism(capsys):
    start = time.perf_counter()

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    outputs = []
    for workers in ("1", "4"):
        outputs.append(run(
            "verify", "--theorem", "transitivity", "--n", "4", "--exhaustive",
            "--workers", workers, "--format", "structured",
        ))
        outputs.append(run(
            "verify", "--theorem", "antisymmetry", "--n", "5", "--samples", "3000",
            "--seed", "424242", "--workers", workers, "--format", "structured",
        ))
        outputs.append(run(
            "search", "--want", "point-transitive", "--want-not", "interval-transitive",
            "--ns", "1,2,3,4,5", "--max-spaces", "4500", "--seed", "777000",
            "--workers", workers, "--format", "structured",
        ))
    half = len(outputs) // 2
    identical = all(
        outputs[i][1].encode() == outputs[half + i][1].encode() and outputs[i][0] == outputs[half + i][0]
        for i in range(half)
    )
    found = json.loads(outputs[2][1])
    elapsed = time.perf_counter() - start
    _gate(9, "worker-count determinism", identical and found["found"] and found["n"] == 5,
          f"runs={len(outputs)}", elapsed)
