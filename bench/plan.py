"""Seeded inputs and job lists for the benchmark's three workloads.

Nothing here imports confrel: run.py reads the cli-batch job list
without loading the library, and the worker builds library objects from
the plain documents below (measure, rule-base and relation documents in
the formats confrel's loaders accept).

One round is the fixed job list a seed produces. A run repeats whole
rounds, so the mix of job kinds, and every per-round count, is the same
in every run with that seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("measure-orders", "kb-reasoning", "cli-batch")
SIZES = ("full", "small")

# The percentile job_tail_s reports, per workload: the highest one that
# keeps at least TAIL_BEYOND jobs above it in every untraced run, because
# such a run goes on past --seconds until it has tail_min_jobs() jobs.
TAIL_PERCENTILE = {"measure-orders": 90, "kb-reasoning": 95, "cli-batch": 90}
TAIL_BEYOND = 10


def tail_min_jobs(workload: str) -> int:
    return round(TAIL_BEYOND * 100 / (100 - TAIL_PERCENTILE[workload]))

# Axiom batteries. The 8^n-style checkers (O, CAND, CCS, Qual) and the
# additivity family run only at n <= 7; at n = 10 only the defining axioms
# and the constant-time ones run.
BATTERY = ("T", "MI", "IR", "Ac", "CP", "CS", "AND", "WEAK_AND", "WEAK_OR",
           "SELF_DUAL", "POSS_LIKE", "CERT_LIKE")
BATTERY_SMALL_N = ("O", "Qual", "CCS", "CAND", "ADD", "TYPE_OR", "TYPE_AND")
BATTERY_N10 = ("T", "MI", "Ac", "CP", "POSS_LIKE", "CERT_LIKE")
SUP_BATTERY = ("T", "MI", "Ac", "SELF_DUAL")

# What is known about a job's answer whatever the seed: possibility,
# necessity and sup orders are acceptance preorders whose accepted sets
# are closed in every context.
ACCEPTANCE = {"hold": ["T", "MI", "Ac"], "closed": True}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"confrel-bench:{workload}:{seed}")


def state_names(n: int) -> list[str]:
    return [f"s{i}" for i in range(1, n + 1)]


def names_of(mask: int, n: int) -> list[str]:
    return [f"s{i + 1}" for i in range(n) if mask >> i & 1]


def battery_for(n: int) -> tuple[str, ...]:
    if n >= 10:
        return BATTERY_N10
    if n <= 7:
        return BATTERY + BATTERY_SMALL_N
    return BATTERY


# -- measure documents ------------------------------------------------------

def _ratios(weights) -> list[str]:
    total = sum(weights)
    return [str(Fraction(w, total)) for w in weights]


def possibility_doc(rng, n: int, levels: int) -> dict:
    """Degrees k/levels for k = levels, levels-1, ... repeated over the n
    states (so fewer levels means more ties), permuted by the seed."""
    values = [str(Fraction(levels - i % levels, levels)) for i in range(n)]
    rng.shuffle(values)
    return {"type": "possibility", "states": state_names(n), "values": values}


def bigstep_doc(rng, n: int) -> dict:
    # weight of the k-th smallest atom is about 3^k, jittered by at most
    # 40%, so every atom still outweighs all smaller ones together
    weights = [3 ** k * 100 + rng.randint(0, 3 ** k * 40) for k in range(n)]
    rng.shuffle(weights)
    return {"type": "probability", "states": state_names(n),
            "values": _ratios(weights)}


def uniform_doc(n: int) -> dict:
    return {"type": "probability", "states": state_names(n),
            "values": [str(Fraction(1, n))] * n}


def grid_probability_doc(rng, n: int) -> dict:
    """Weights 1..6 repeated over the states, permuted by the seed."""
    weights = [i % 6 + 1 for i in range(n)]
    rng.shuffle(weights)
    return {"type": "probability", "states": state_names(n),
            "values": _ratios(weights)}


def _mass_doc(n: int, focal: dict) -> dict:
    total = sum(focal.values())
    return {"type": "mass", "states": state_names(n),
            "values": {",".join(names_of(m, n)): str(Fraction(w, total))
                       for m, w in sorted(focal.items())}}


# focal sets as lists of positions in a seeded permutation of the states,
# with their weights
MASS_SHAPES = (
    (((0,), 4), ((1, 2), 3), ((3, 4, 5), 2)),
    (((0, 1), 3), ((1, 2), 3), ((2, 3, 4), 2), ((5,), 1)),
)


def shaped_mass_doc(rng, n: int, shape) -> dict:
    order = list(range(n))
    rng.shuffle(order)
    focal = {sum(1 << order[i] for i in positions): weight
             for positions, weight in shape}
    return _mass_doc(n, focal)


def ranked_mass_doc(rng, n: int) -> dict:
    # singleton focals with steeply falling masses plus one small focal
    # over the whole space: belief and plausibility orders are both
    # context tolerant by construction
    order = list(range(n))
    rng.shuffle(order)
    focal = {1 << i: 4 ** (n - rank) for rank, i in enumerate(order[:3])}
    focal[(1 << n) - 1] = 1
    return _mass_doc(n, focal)


# possibility degrees whose ties fix how many complete orders refine the
# sup order; the seed only permutes them over the states
SUP_PATTERNS = (("1", "1/2", "1/2", "1/4"), ("1", "1", "1/2", "0"),
                ("1", "1/2", "1/4", "1/4"), ("1", "3/4", "1/2", "1/2"),
                ("1", "1/2", "1/2"), ("1", "1", "0"))


def shuffled_possibility_doc(rng, pattern) -> dict:
    values = list(pattern)
    rng.shuffle(values)
    return {"type": "possibility", "states": state_names(len(values)),
            "values": values}


def random_context(rng, n: int) -> int:
    full = (1 << n) - 1
    while True:
        mask = rng.randint(1, full)
        if mask.bit_count() >= 2:
            return mask


# -- rule-base documents ----------------------------------------------------

def _lit(atom: str, negate: bool) -> str:
    return f"!{atom}" if negate else atom


# rule shapes over atom roles x, y, z; a leading '!' negates the role
KB_SHAPES = {
    "penguin": (("y", "z"), ("x", "y"), ("x", "!z")),
    "chain": (("x", "y"), ("y", "z")),
    "cycle": (("x", "y"), ("y", "z"), ("z", "!x")),
    "conjunctive": (("x & y", "z"), ("x", "!y")),
    "disjunctive": (("x | y", "z"), ("z", "x")),
    "inconsistent": (("x", "y"), ("x", "!y"), ("z", "x")),
}


def template_kb(rng, shape: str) -> dict:
    """Three-atom base of a fixed shape. The seed assigns the roles to
    atoms and flips each atom's polarity throughout, which permutes the
    valuations, so every seed gives an isomorphic base."""
    atoms = ["a", "b", "c"]
    role = dict(zip("xyz", rng.sample(atoms, 3)))
    flip = {a: rng.random() < 0.5 for a in atoms}

    def side(text: str) -> str:
        for op in (" & ", " | "):
            if op in text:
                return op.join(side(part) for part in text.split(op))
        negated = text.startswith("!")
        atom = role[text.lstrip("!")]
        return _lit(atom, negated != flip[atom])

    return {"atoms": atoms,
            "rules": [{"if": side(a), "then": side(c)}
                      for a, c in KB_SHAPES[shape]]}


def labelled_kb(rng, n_states: int, shape: str) -> dict:
    """A template base over declared states: n_states distinct valuations
    of the three atoms, in seeded order. Re-drawn until every rule's
    antecedent has a model and its consequent fails somewhere in it, so
    the loader accepts every rule."""
    kb = template_kb(rng, shape)
    atoms = kb["atoms"]
    while True:
        picked = rng.sample(range(8), n_states)
        labels = {f"w{i}": [a for j, a in enumerate(atoms) if v >> j & 1]
                  for i, v in enumerate(picked)}
        if all(_informative(rule, labels) for rule in kb["rules"]):
            kb.update(states=list(labels), labels=labels)
            return kb


def _sat(formula: str, true_atoms) -> bool:
    # formulas from template_kb: literals joined by one '&' or one '|'
    op = "&" if "&" in formula else "|"
    values = [(lit.strip()[1:] not in true_atoms) if lit.strip().startswith("!")
              else (lit.strip() in true_atoms) for lit in formula.split(op)]
    return all(values) if op == "&" else any(values)


def _informative(rule: dict, labels: dict) -> bool:
    ctx = [s for s, true_atoms in labels.items() if _sat(rule["if"], true_atoms)]
    return any(not _sat(rule["then"], labels[s]) for s in ctx)


def kb_queries(kb: dict, rng) -> list[list[str]]:
    """The base's own rules, the contradiction query, and one literal
    query under the first rule's antecedent (which has models)."""
    queries = [[r["if"], r["then"]] for r in kb["rules"]]
    queries.append(["true", "false"])
    queries.append([kb["rules"][0]["if"],
                    _lit(rng.choice(kb["atoms"]), rng.random() < 0.5)])
    return queries


# -- relation documents for decomposition -----------------------------------

def inclusion_doc(n: int) -> dict:
    """Inclusion order alone: a strict_only file with no strict pairs."""
    return {"states": state_names(n), "pairs": [], "strict_only": True}


def strict_doc(rng, n: int, left: int, right: int) -> dict:
    """One strict seed pair A > B of disjoint random events, |A|=left,
    |B|=right; a single such seed always generates an acceptance preorder."""
    picked = rng.sample(state_names(n), left + right)
    return {"states": state_names(n),
            "pairs": [[picked[:left], picked[left:]]],
            "strict_only": True}


# -- workloads --------------------------------------------------------------

def measure_orders_round(seed: int, size: str) -> list[dict]:
    """One job per (measure, set function): induce the order, run the
    axiom battery, accepted sets and closure in four contexts, dual and
    condition. Recognizers and sup orders are jobs of their own."""
    rng = rng_for("measure-orders", seed)
    full = size == "full"
    n7, n8, n9, n10 = (7, 8, 9, 10) if full else (4, 6, 5, 6)
    jobs = []

    def orders(doc, flavours, expect=None, recognizers=None):
        n = len(doc["states"])
        contexts = [random_context(rng, n) for _ in range(3)]
        battery = list(battery_for(n) if full else BATTERY + BATTERY_SMALL_N)
        for flavour in flavours:
            jobs.append({"kind": "order", "n": n, "measure": doc,
                         "flavour": flavour, "battery": battery,
                         "contexts": contexts, "expect": expect or {}})
        if recognizers is not None:
            jobs.append({"kind": "recognize", "n": n, "measure": doc,
                         "expect": recognizers})

    def sup(doc, battery):
        n = len(doc["states"])
        jobs.append({"kind": "sup", "n": n, "measure": doc,
                     "battery": list(battery),
                     "contexts": [random_context(rng, n) for _ in range(2)],
                     "expect": ACCEPTANCE})

    # eight possibility measures of one tie pattern form the block of
    # like-sized jobs that job_p50_s falls in; the other kinds, sizes and
    # patterns sit below and above it
    for _ in range(8):
        orders(possibility_doc(rng, n8, 4), ["possibility", "necessity"],
               ACCEPTANCE)
    for _ in range(2):
        orders(bigstep_doc(rng, n8), ["probability"],
               {"hold": ["Ac"], "closed": True},
               {"big_stepped": True, "ct": True})
    orders(uniform_doc(n8), ["probability"], {"fail": ["Ac"]},
           {"big_stepped": False, "ct": False})
    orders(grid_probability_doc(rng, n8), ["probability"], None, {})
    orders(shaped_mass_doc(rng, n8, MASS_SHAPES[1]),
           ["belief", "plausibility"], None, {})
    orders(ranked_mass_doc(rng, n8), ["belief", "plausibility"], None,
           {"belief_ct": True, "pl_ct": True})
    orders(possibility_doc(rng, n7, 3), ["necessity"], ACCEPTANCE)
    orders(grid_probability_doc(rng, n7), ["probability"], None, {})
    orders(possibility_doc(rng, n10, 8), ["necessity"], ACCEPTANCE)
    # eight sup orders of one tie pattern form the block job_tail_s falls
    # in; their cost still depends on the permutation (row integers get
    # longer or shorter), so the block averages over eight of them
    for _ in range(8):
        sup(possibility_doc(rng, n8, 3), SUP_BATTERY)
    sup(possibility_doc(rng, n9, 8), ACCEPTANCE["hold"])
    return _number(jobs, "mo")


def kb_reasoning_round(seed: int, size: str) -> list[dict]:
    """Rule-base jobs (load, close, entail with derivations, round trip)
    and decomposition jobs (decompose, then recompose)."""
    rng = rng_for("kb-reasoning", seed)
    full = size == "full"
    jobs = []
    penguin = {"atoms": ["b", "f", "p"],
               "rules": [{"if": "b", "then": "f"}, {"if": "p", "then": "b"},
                         {"if": "p", "then": "!f"}]}
    # (base, whether its closure is consistent, when known by construction)
    bases = [(penguin, True)]
    # eight chains form the block of like-sized jobs that job_p50_s falls in
    shapes = (["penguin"] * 2 + ["chain"] * 8 + ["cycle"] * 3
              + ["conjunctive"] * 2 + ["disjunctive"] * 2
              + ["inconsistent"] * 2)
    for shape in shapes:
        bases.append((template_kb(rng, shape), shape != "inconsistent"))
    bases.append((labelled_kb(rng, 6, "penguin"), None))
    bases.append((labelled_kb(rng, 7, "chain"), None))
    for kb, consistent in bases:
        n = len(kb["states"]) if "states" in kb else 1 << len(kb["atoms"])
        jobs.append({"kind": "rules", "n": n, "kb": kb,
                     "queries": kb_queries(kb, rng), "consistent": consistent})

    n4, n3 = (4, 3) if full else (3, 3)
    for pattern in (SUP_PATTERNS if full else SUP_PATTERNS[4:]):
        jobs.append({"kind": "decompose", "n": len(pattern),
                     "sup": shuffled_possibility_doc(rng, pattern)})
    jobs.append({"kind": "decompose", "n": n3, "relation": inclusion_doc(n3)})
    jobs.append({"kind": "decompose", "n": n4,
                 "relation": strict_doc(rng, n4, 1, 3 if full else 1)})
    return _number(jobs, "kb")


def cli_batch_round(seed: int, size: str) -> tuple[list[dict], list[dict]]:
    """Files to write during set-up, and the jobs that read them.

    Every job names its expected exit code, known from how its input was
    built: necessity, possibility and sup orders are acceptance preorders
    with closed accepted sets whose strict parts are stable under the
    closure rules; the uniform probability order breaks Ac for n >= 3; a
    base with x |~ y and x |~ !y is inconsistent, the template bases
    otherwise are consistent; the rules a base states are entailed.
    """
    rng = rng_for("cli-batch", seed)
    full = size == "full"
    n8, n7, n6, n4 = (8, 7, 6, 4) if full else (5, 4, 4, 3)
    n_mass = max(n7, 6)  # the mass shape spans six states
    files = [
        {"name": "m_poss_big.json", "doc": possibility_doc(rng, n8, 3)},
        {"name": "m_poss_small.json", "doc": possibility_doc(rng, n6, 4)},
        {"name": "m_bigstep.json", "doc": bigstep_doc(rng, n8)},
        {"name": "m_uniform.json", "doc": uniform_doc(n6)},
        {"name": "m_mass.json", "doc": ranked_mass_doc(rng, n7)},
        {"name": "m_mass_shaped.json",
         "doc": shaped_mass_doc(rng, n_mass, MASS_SHAPES[0])},
        {"name": "m_poss_mid.json", "doc": possibility_doc(rng, n7, 4)},
        {"name": "r_nec_big.json",
         "induce": possibility_doc(rng, n8, 4), "kind": "necessity"},
        {"name": "r_uniform.json", "induce": uniform_doc(n7),
         "kind": "probability"},
        {"name": "r_poss.json",
         "induce": possibility_doc(rng, n6, 4), "kind": "possibility"},
        {"name": "r_sup.json",
         "sup": shuffled_possibility_doc(rng, SUP_PATTERNS[0])},
        {"name": "r_strict.json", "doc": strict_doc(rng, n7, 1, 2)},
        {"name": "fam.json",
         "family_of": shuffled_possibility_doc(rng, SUP_PATTERNS[1])},
        {"name": "kb_penguin.json", "doc": template_kb(rng, "penguin")},
        {"name": "kb_chain.json", "doc": template_kb(rng, "chain")},
        {"name": "kb_bad.json", "doc": template_kb(rng, "inconsistent")},
        {"name": "kb_labelled.json", "doc": labelled_kb(rng, 6, "chain")},
    ]
    docs = {spec["name"]: spec.get("doc") for spec in files}
    chain = docs["kb_chain.json"]["rules"]
    penguin = docs["kb_penguin.json"]["rules"]
    labelled_rule = docs["kb_labelled.json"]["rules"][0]

    jobs = []

    def job(n, argv, expect):
        jobs.append({"n": n, "argv": argv, "expect": expect, "sub": argv[0]})

    job(n6, ["gen", "g_lottery.json", "--type", "lottery", "--n", str(n6)], 0)
    job(n6, ["gen", "--type", "random-mass", "--n", str(n6),
             "--seed", str(rng.randint(0, 10 ** 6))], 0)
    job(n6, ["gen", "--type", "bigstep", "--n", str(n6)], 0)
    job(n4, ["gen", "--type", "random-relation", "--n", str(n4),
             "--seed", str(rng.randint(0, 10 ** 6))], 0)
    job(n8, ["induce", "m_poss_big.json", "--kind", "necessity"], 0)
    job(n6, ["induce", "m_poss_small.json", "--sup"], 0)
    job(n6, ["induce", "m_uniform.json"], 0)
    job(n8, ["check-axioms", "r_nec_big.json"], 0)
    job(n7, ["check-axioms", "r_uniform.json", "--axioms", "T,MI,Ac,CS"], 1)
    job(n7, ["check-axioms", "r_strict.json"], 0)
    job(n6, ["check-axioms", "r_poss.json", "--axioms", "T,MI,Ac,IR,CP"], 0)
    job(n4, ["check-axioms", "r_sup.json"], 0)
    job(n8, ["accepted", "--relation", "r_nec_big.json", "--given",
             ", ".join(names_of(random_context(rng, n8), n8))], 0)
    job(n8, ["accepted", "--relation", "r_nec_big.json", "--given",
             " | ".join(names_of(random_context(rng, n8), n8))], 0)
    job(n8, ["accepted", "--relation", "r_nec_big.json"], 0)
    job(n7, ["accepted", "--relation", "r_uniform.json"], 1)
    job(n6, ["accepted", "--relation", "r_poss.json"], 0)
    job(n8, ["classify-measure", "m_bigstep.json"], 0)
    job(n6, ["classify-measure", "m_uniform.json"], 1)
    job(n7, ["classify-measure", "m_mass.json"], 0)
    job(n7, ["classify-measure", "m_poss_mid.json"], 0)
    job(n_mass, ["classify-measure", "m_mass_shaped.json"], 1)
    job(8, ["close-kb", "kb_penguin.json"], 0)
    job(8, ["close-kb", "kb_bad.json"], 1)
    job(8, ["close-kb", "kb_chain.json"], 0)
    job(8, ["entail", "--kb", "kb_chain.json",
            f"{chain[0]['if']} |~ {chain[0]['then']}"], 0)
    job(8, ["entail", "--kb", "kb_chain.json", "true |~ false"], 1)
    job(8, ["entail", "--kb", "kb_penguin.json",
            f"{penguin[0]['if']} |~ {penguin[0]['then']}"], 0)
    job(6, ["entail", "--kb", "kb_labelled.json",
            f"{labelled_rule['if']} |~ {labelled_rule['then']}"], 0)
    job(8, ["roundtrip", "--kb", "kb_chain.json"], 0)
    job(8, ["roundtrip", "--kb", "kb_bad.json"], 1)
    job(n6, ["roundtrip", "--relation", "r_poss.json"], 0)
    job(n4, ["roundtrip", "--relation", "r_sup.json"], 0)
    job(n4, ["decompose", "r_sup.json"], 0)
    job(n4, ["decompose", "r_sup.json", "--mode", "maximal"], 0)
    job(n4, ["recompose", "fam.json"], 0)
    return files, _number(jobs, "cli")


def library_round(workload: str, seed: int, size: str) -> list[dict]:
    if workload == "measure-orders":
        return measure_orders_round(seed, size)
    return kb_reasoning_round(seed, size)


def _number(jobs: list[dict], prefix: str) -> list[dict]:
    for i, job in enumerate(jobs):
        job["id"] = f"{prefix}-{i:02d}"
    return jobs
