"""One test per acceptance criterion; each prints a PASS/FAIL line.

Run with -s to see the lines on success; on failure the line appears in
the captured output along with the first few counterexamples.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

from confrel import (
    ConfidenceRelation,
    accepted_set,
    all_acceptance_preorders,
    brute_force_ct,
    check_axiom,
    check_closure,
    classify_acceptance_belief,
    close_p,
    conditional_from_formulas,
    conditional_kernel_characterization,
    decompose,
    entails,
    evaluate_measure,
    induce_relation,
    induce_sup_relation,
    is_acceptance,
    is_big_stepped,
    is_context_tolerant_belief,
    kernel_characterization,
    lift_strict,
    load_kb,
    make_base,
    make_space,
    mass,
    negligibility_chain,
    negligibility_collapse,
    possibility,
    probability,
    random_mass,
    random_possibility,
    recompose,
    roundtrip_check,
    strict_disjoint_pairs,
    strict_order_from_chain,
    table_for,
    uniform_probability,
)
from confrel.cli import DEFAULT_SEED, main as cli_main
from oracles import naive_acceptance_rows, naive_close_pairs

F = Fraction


def report(number, ok, description):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}",
          flush=True)


def strict_pairs_of(rel):
    n = rel.space.size
    return {(a, b) for a in range(n) for b in range(n) if rel.s(a, b)}


def mass_sample(count):
    """The shared seeded sample used by two criteria."""
    rng = random.Random(DEFAULT_SEED)
    spaces = [make_space([f"s{i}" for i in range(1, n + 1)]) for n in (2, 3, 4)]
    for i in range(count):
        yield random_mass(spaces[i % 3], rng)


def steep_probability(space, rng):
    """Integer weights, each usually above the sum of those drawn before
    it (the big-stepped shape), sometimes any value up to that sum; then
    shuffled and normalised."""
    weights = []
    for _ in range(space.n):
        below = sum(weights)
        weights.append(below + rng.randint(1, 3) if rng.random() < 0.75
                       else rng.randint(0, below + 1))
    rng.shuffle(weights)
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return probability(space, [F(w, total) for w in weights])


def large_sample_agrees(recognizer, make, kind):
    """Recognizer against brute_force_ct on 600 seeded measures at each of
    5 and 6 states, past the exhaustive range, where make(space, rng)
    draws one measure: the mismatches, and how often each verdict came
    out at each n."""
    rng = random.Random(DEFAULT_SEED + 1)
    bad = []
    verdicts = Counter()
    for n in (5, 6):
        space = make_space([f"s{i}" for i in range(1, n + 1)])
        for _ in range(600):
            m = make(space, rng)
            exhaustive = brute_force_ct(table_for(m, kind))
            verdicts[n, exhaustive] += 1
            if recognizer(m) != exhaustive:
                bad.append(dict(m.weights))
    return bad, verdicts


def test_criterion_01_exhaustive_two_state_sweep(s2):
    started = time.monotonic()
    bad = []
    survivors = []
    for rows in product(range(16), repeat=4):
        rel = ConfidenceRelation(s2, rows)
        if is_acceptance(rel):
            survivors.append(rel)
    expected = sorted(rel.rows for rel in all_acceptance_preorders(s2))
    if sorted(rel.rows for rel in survivors) != expected:
        bad.append("sweep disagrees with the dedicated enumerator")
    if sorted(rel.rows for rel in survivors) != sorted(naive_acceptance_rows(4)):
        bad.append("sweep disagrees with the naive oracle")
    full = s2.full_mask
    for rel in survivors:
        strict = strict_pairs_of(rel)
        lifted = lift_strict(s2, strict)  # raises if the strict part is bad
        lifted_strict = strict_pairs_of(lifted)
        if not lifted_strict >= strict:
            bad.append(f"lift lost strict pairs of {rel.rows}")
        if {(a, b) for a, b in lifted_strict if b & ~a} != {
            (a, b) for a, b in strict if b & ~a
        }:
            bad.append(f"lift changed non-inclusion strict pairs of {rel.rows}")
        if not is_acceptance(lifted):
            bad.append(f"lift of {rel.rows} is not an acceptance preorder")
        for verdict in (
            kernel_characterization(rel),
            conditional_kernel_characterization(rel),
            negligibility_chain(rel),
            check_axiom(rel, "CCS"),
            check_axiom(rel, "CAND"),
        ):
            if not verdict.holds:
                bad.append(f"{verdict.axiom} fails on {rel.rows}")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        bad.append(f"over budget: {elapsed:.1f}s")
    ok = not bad and len(survivors) == 13
    report(1, ok, f"{len(survivors)} acceptance preorders out of 65536 "
                  f"matrices; kernel, negligibility and conditional closure "
                  f"checks clean ({elapsed:.1f}s)")
    assert ok, bad[:5]


def test_criterion_02_big_stepped_equivalence():
    started = time.monotonic()

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    bad = []
    checked = 0
    for n in (1, 2, 3, 4):
        space = make_space([f"s{i}" for i in range(1, n + 1)])
        seen = set()
        for denom in range(1, 21):
            for nums in compositions(denom, n):
                values = tuple(F(k, denom) for k in nums)
                if values in seen:
                    continue
                seen.add(values)
                m = probability(space, values)
                structural = is_big_stepped(m)
                exhaustive = brute_force_ct(table_for(m))
                checked += 1
                if structural != exhaustive:
                    bad.append((values, structural, exhaustive))
    large_bad, verdicts = large_sample_agrees(is_big_stepped, steep_probability,
                                              None)
    bad.extend(large_bad)
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        bad.append(f"over budget: {elapsed:.1f}s")
    ok = not bad
    report(2, ok, f"{checked} distinct probability grids and "
                  f"{sum(verdicts.values())} seeded ones at 5-6 states, "
                  f"recognizer and exhaustive check agree everywhere "
                  f"({elapsed:.1f}s)")
    assert ok, bad[:5]
    assert min(verdicts[n, v] for n in (5, 6) for v in (True, False)) >= 20, verdicts


def test_criterion_03_context_tolerant_belief_equivalence():
    started = time.monotonic()
    bad = []
    count = 10000
    for m in mass_sample(count):
        structural = is_context_tolerant_belief(m)
        exhaustive = brute_force_ct(table_for(m, "belief"))
        if structural != exhaustive:
            bad.append(dict(m.weights))
    large_bad, verdicts = large_sample_agrees(
        is_context_tolerant_belief,
        lambda space, rng: random_mass(space, rng, rng.choice((2, 3, 4, 6))),
        "belief")
    bad.extend(large_bad)
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        bad.append(f"over budget: {elapsed:.1f}s")
    ok = not bad
    report(3, ok, f"{count} seeded mass assignments at 2-4 states and "
                  f"{sum(verdicts.values())} at 5-6, structural recognizer "
                  f"matches the exhaustive check ({elapsed:.1f}s)")
    assert ok, bad[:3]
    assert min(verdicts[n, v] for n in (5, 6) for v in (True, False)) >= 20, verdicts


def test_criterion_04_belief_class_soundness_and_completeness():
    started = time.monotonic()
    bad = []
    count = 10000
    labelled = 0
    for m in mass_sample(count):
        label = classify_acceptance_belief(m)
        both = is_acceptance(induce_relation(m, "belief")) and is_acceptance(
            induce_relation(m, "plausibility")
        )
        if (label != "none") != both:
            bad.append((dict(m.weights), label, both))
        if label != "none":
            labelled += 1
    elapsed = time.monotonic() - started
    ok = not bad and labelled > 0
    report(4, ok, f"same {count} masses: class label agrees with acceptance "
                  f"of both induced orders, {labelled} labelled ({elapsed:.1f}s)")
    assert ok, bad[:3]


def test_criterion_05_possibility_grids():
    started = time.monotonic()
    bad = []
    checked = 0
    for n in (2, 3, 4):
        space = make_space([f"s{i}" for i in range(1, n + 1)])
        full = space.full_mask
        disjoint = [
            (a, b)
            for a in range(space.size)
            for b in range(space.size)
            if a & b == 0
        ]
        seen = set()
        for denom in range(1, 11):
            for nums in product(range(denom + 1), repeat=n):
                if max(nums) != denom:
                    continue
                values = tuple(F(k, denom) for k in nums)
                if values in seen:
                    continue
                seen.add(values)
                m = possibility(space, values)
                pi = induce_relation(m, "possibility")
                nec = induce_relation(m, "necessity")
                sup = induce_sup_relation(m)
                checked += 1
                for name, rel in (("pi", pi), ("nec", nec), ("sup", sup)):
                    if not is_acceptance(rel):
                        bad.append((values, name, "not acceptance"))
                if any(
                    sup.s(a, b) != sup.s(full & ~b, full & ~a)
                    for a in range(space.size)
                    for b in range(space.size)
                ):
                    bad.append((values, "sup", "strict part not self-dual"))
                if any(
                    pi.s(a, b) and not sup.s(a, b) for a, b in disjoint
                ):
                    bad.append((values, "sup", "does not refine pi"))
    elapsed = time.monotonic() - started
    ok = not bad
    report(5, ok, f"{checked} possibility grids: all three induced orders "
                  f"are acceptance preorders, two-sided order self-dual and "
                  f"refining ({elapsed:.1f}s)")
    assert ok, bad[:5]


def test_criterion_06_lower_upper_order_reversal():
    space = make_space(["s1", "s2", "s3", "s4"])
    m = mass(space, {space.singleton("s1"): "2/5",
                     space.event(["s3", "s4"]): "3/5"})
    a = space.singleton("s1")
    b = space.event(["s2", "s3"])
    values = (
        evaluate_measure(m, a, "belief"),
        evaluate_measure(m, b, "belief"),
        evaluate_measure(m, a, "plausibility"),
        evaluate_measure(m, b, "plausibility"),
    )
    ok = values == (F(2, 5), F(0), F(2, 5), F(3, 5))
    report(6, ok, "exact lower/upper values 2/5 vs 0 and 2/5 vs 3/5 on the "
                  "two-focal fixture")
    assert ok, values


def test_criterion_07_lottery_closure_failure(tmp_path, capsys):
    started = time.monotonic()
    bad = []
    for k in range(3, 11):
        space = make_space([f"s{i}" for i in range(1, k + 1)])
        m = uniform_probability(space)
        if is_big_stepped(m):
            bad.append((k, "uniform probability counted as big-stepped"))
        rel = induce_relation(m)
        kernel = accepted_set(rel, space.full())
        accepted = {e.bits for e in kernel.accepted}
        full = space.full_mask
        if any(full & ~(1 << i) not in accepted for i in range(k)):
            bad.append((k, "a singleton complement is not accepted"))
        verdict = check_closure(rel, space.full())
        if verdict.holds or verdict.detail != "intersection":
            bad.append((k, "closure did not fail on an intersection"))

    def run_to_file(name, *argv):
        path = tmp_path / name
        code = cli_main([*argv, "--out", str(path)])
        capsys.readouterr()
        return code, path.read_bytes()

    measure_path = str(tmp_path / "lottery3.json")
    code, _ = run_to_file("gen.json", "gen", measure_path,
                          "--type", "lottery", "--n", "3")
    if code != 0:
        bad.append(("cli", "gen failed"))
    code1, induced1 = run_to_file("induce1.json", "induce", measure_path)
    code2, induced2 = run_to_file("induce2.json", "induce", measure_path)
    if (code1, code2) != (0, 0) or induced1 != induced2:
        bad.append(("cli", "induce not byte-stable"))
    relation_path = tmp_path / "rel3.json"
    relation_path.write_text(json.dumps(
        json.loads(induced1)["result"]["relation"]))
    code1, accepted1 = run_to_file("acc1.json", "accepted",
                                   "--relation", str(relation_path))
    code2, accepted2 = run_to_file("acc2.json", "accepted",
                                   "--relation", str(relation_path))
    if (code1, code2) != (1, 1) or accepted1 != accepted2:
        bad.append(("cli", "accepted exit code or bytes unstable"))
    witness = json.loads(accepted1)["result"]["closure"]["witness"]
    if witness != [["s1", "s2"], ["s1", "s3"]]:
        bad.append(("cli", f"unexpected witness {witness}"))
    code1, class1 = run_to_file("cls1.json", "classify-measure", measure_path)
    code2, class2 = run_to_file("cls2.json", "classify-measure", measure_path)
    if (code1, code2) != (1, 1) or class1 != class2:
        bad.append(("cli", "classify-measure unstable"))
    elapsed = time.monotonic() - started
    ok = not bad
    report(7, ok, "uniform orders on 3..10 states accept every singleton "
                  f"complement yet fail closure; CLI runs byte-stable "
                  f"({elapsed:.1f}s)")
    assert ok, bad[:5]


def test_criterion_08_preferential_closure(penguin_doc, s2, s3):
    started = time.monotonic()
    bad = []
    universe, base = load_kb(penguin_doc)
    closed = close_p(base)
    naive = naive_close_pairs(base.pairs, universe.space.full_mask)
    if set(closed.pairs) != naive:
        bad.append("closure disagrees with the naive oracle")
    if not entails(closed, conditional_from_formulas(universe, "p & b", "!f")):
        bad.append("expected entailment missing")
    if entails(closed, conditional_from_formulas(universe, "p", "f")):
        bad.append("unexpected entailment present")

    rng = random.Random(DEFAULT_SEED)
    for i in range(100):
        space = s2 if i % 2 else s3
        m = random_possibility(space, rng)
        rel = (induce_relation(m, "necessity") if i % 4 < 2
               else induce_sup_relation(m))
        seeded = make_base(space, sorted(strict_disjoint_pairs(rel)))
        seeded_closed = close_p(seeded)
        if not seeded_closed.consistent:
            bad.append((i, "relation-sourced base became inconsistent"))
            continue
        kb_verdicts = roundtrip_check(seeded_closed)
        rel_verdicts = roundtrip_check(rel)
        for name, verdict in list(kb_verdicts.items()) + list(rel_verdicts.items()):
            if not verdict.holds:
                bad.append((i, name, verdict.witness))
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        bad.append(f"over budget: {elapsed:.1f}s")
    ok = not bad
    report(8, ok, f"penguin closure ({len(closed.pairs)} pairs) matches the "
                  f"oracle with the right entailments; both round-trip "
                  f"directions hold on 100 seeded bases ({elapsed:.1f}s)")
    assert ok, bad[:5]


def test_criterion_09_decompose_recompose_roundtrip(s2, s3):
    started = time.monotonic()
    bad = []

    def subset_chain_relation(rng):
        mask = s3.full_mask
        chain = [mask]
        while mask and rng.random() < 0.8:
            bit = rng.choice([b for b in range(s3.n) if mask >> b & 1])
            mask &= ~(1 << bit)
            chain.append(mask)
        return lift_strict(s3, strict_order_from_chain(s3, chain))

    rng = random.Random(DEFAULT_SEED)
    relations = list(all_acceptance_preorders(s2))
    for i in range(200):
        if i % 3 == 0:
            relations.append(induce_relation(random_possibility(s3, rng),
                                             "necessity"))
        elif i % 3 == 1:
            relations.append(induce_sup_relation(random_possibility(s3, rng)))
        else:
            relations.append(subset_chain_relation(rng))

    for idx, rel in enumerate(relations):
        family = decompose(rel)
        for member in family.members:
            if not member.is_complete():
                bad.append((idx, "incomplete member"))
            if not is_acceptance(member):
                bad.append((idx, "member lost the acceptance axioms"))
        if recompose(family) != rel:
            bad.append((idx, "recompose did not invert decompose"))

    elapsed = time.monotonic() - started
    ok = not bad
    report(9, ok, f"{len(relations)} relations decomposed and recomposed "
                  f"exactly, members verified ({elapsed:.1f}s)")
    assert ok, bad[:5]


def test_criterion_10_additivity_consequences(s2):
    bad = []
    additive = 0
    for rel in all_acceptance_preorders(s2):
        add = check_axiom(rel, "ADD").holds
        if add:
            additive += 1
            if not check_axiom(rel, "SELF_DUAL").holds:
                bad.append((rel.rows, "additive but not self-dual"))
            if not negligibility_collapse(rel).holds:
                bad.append((rel.rows, "additive but negligibility survives"))
        both_types = (check_axiom(rel, "TYPE_OR").holds
                      and check_axiom(rel, "TYPE_AND").holds)
        if add != both_types:
            bad.append((rel.rows, "additivity does not match the two "
                                  "one-sided conditions"))
    ok = not bad and additive > 0
    report(10, ok, f"{additive} additive preorders among the 13: self-dual, "
                   f"negligibility-free, and equivalent to the one-sided "
                   f"pair everywhere")
    assert ok, bad[:5]
