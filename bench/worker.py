"""Child process that builds a workload's inputs and runs its library jobs.

    python3 bench/worker.py setup --workload W --seed S --size full --dir D
    python3 bench/worker.py run --workload W --seed S --size full \
        --seconds T --trace 0|1 --out RESULT.json

`setup` imports confrel and builds the inputs, then exits; for cli-batch
it also writes the input files into D. `run` does the same set-up, then
repeats whole rounds of the job list until the time is spent, checks
every job's output, and writes per-job records (and spans, when traced)
to RESULT.json. Only the library calls of a job are timed; building the
canonical output, its digest and the checks happen outside that interval.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import plan  # noqa: E402
from confrel import (  # noqa: E402
    fileio, measures, preferential, relations, representation)
from confrel.core import Event  # noqa: E402


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def rows_digest(rows) -> str:
    width = max(1, (len(rows) + 7) // 8)
    h = hashlib.sha256()
    for row in rows:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()[:24]


def masks(events) -> list[int]:
    return [e.bits for e in events]


# -- independent re-evaluation of failing witnesses -------------------------
# Each entry restates the violation its axiom's witness claims, through the
# relation's w/s/e accessors only.

def _disjoint(*ms) -> bool:
    seen = 0
    for m in ms:
        if seen & m:
            return False
        seen |= m
    return True


def _violates(rel, axiom: str, w: list[int]) -> bool:
    full = rel.space.full_mask
    W, S, E = rel.w, rel.s, rel.e
    if axiom == "T":
        a, b, c = w
        return W(a, b) and W(b, c) and not W(a, c)
    if axiom == "MI":
        a, b = w
        return a & ~b == 0 and not W(b, a)
    if axiom == "O":
        a, a2, b, b2 = w
        return S(a, b) and a & ~a2 == 0 and b2 & ~b == 0 and not S(a2, b2)
    if axiom == "IR":
        return S(w[0], w[0])
    if axiom in ("Ac", "Qual"):
        a, b, c = w
        ok = _disjoint(a, b, c) if axiom == "Ac" else True
        return ok and S(a | b, c) and S(a | c, b) and not S(a, b | c)
    if axiom == "CP":
        return S(0, w[0])
    if axiom == "CS":
        a, b = w
        return (S(a, full & ~a) and a & ~b == 0
                and not S(b, full & ~b))
    if axiom == "AND":
        a, b = w
        ab = a & b
        return (S(a, full & ~a) and S(b, full & ~b)
                and not S(ab, full & ~ab))
    if axiom == "CCS":
        c, a, b = w
        return (S(a & c, ~a & c) and a & ~b == 0
                and not S(b & c, ~b & c))
    if axiom == "CAND":
        c, a, b = w
        ab = a & b
        return (S(a & c, ~a & c) and S(b & c, ~b & c)
                and not S(ab & c, ~ab & c))
    if axiom in ("ADD", "TYPE_OR", "TYPE_AND"):
        a, b, c = w
        if a & b or a & c:
            return False
        left, right = W(a | b, a | c), W(b, c)
        return {"ADD": left != right, "TYPE_OR": right and not left,
                "TYPE_AND": left and not right}[axiom]
    if axiom in ("WEAK_AND", "WEAK_OR"):
        a, b, c = w
        first, second = S(a | b, b), S(a | b | c, b | c)
        if not _disjoint(a, b, c):
            return False
        return first and not second if axiom == "WEAK_AND" else second and not first
    if axiom == "SELF_DUAL":
        a, b = w
        return W(a, b) != W(full & ~b, full & ~a)
    if axiom == "POSS_LIKE":
        a = w[0]
        return E(a, 0) and E(full & ~a, 0)
    if axiom == "CERT_LIKE":
        a = w[0]
        return E(a, full) and E(full & ~a, full)
    raise KeyError(axiom)


def _closure_violated(rel, context: int, verdict) -> bool:
    def accepted(x):
        return rel.s(x & context, ~x & context & rel.space.full_mask)
    a, b = masks(verdict.witness)
    if verdict.detail == "superset":
        return accepted(a) and a & ~b == 0 and not accepted(b)
    return accepted(a) and accepted(b) and not accepted(a & b)


def verdict_json(rel, v, problems, where: str) -> list:
    if v.holds:
        return [v.axiom, True]
    w = masks(v.witness)
    if not _violates(rel, v.axiom, w):
        problems.append(f"{where}: {v.axiom} witness {w} does not violate")
    return [v.axiom, False, w]


# -- measure-orders ---------------------------------------------------------

def check_expectations(job, verdicts, closures, problems, where):
    expect = job["expect"]
    holds = {v.axiom: v.holds for v in verdicts}
    for axiom in expect.get("hold", ()):
        if not holds[axiom]:
            problems.append(f"{where}: {axiom} fails")
    for axiom in expect.get("fail", ()):
        if holds[axiom]:
            problems.append(f"{where}: {axiom} holds")
    if expect.get("closed") and not all(v.holds for v in closures):
        problems.append(f"{where}: accepted set not closed")


def _contexts(space, job):
    return [Event(space, space.full_mask)] + [
        Event(space, c) for c in job["contexts"]]


def _kernels_json(kernels) -> list:
    return [[k.context.bits, masks(k.accepted), k.kernel.bits,
             sorted(k.flags)] for k in kernels]


def _closures_json(rel, job, closures, problems, where) -> list:
    out = []
    for ctx, v in zip([rel.space.full_mask] + job["contexts"], closures):
        if v.holds:
            out.append([True])
            continue
        if not _closure_violated(rel, ctx, v):
            problems.append(f"{where}: closure witness in context {ctx} "
                            "does not violate")
        out.append([False, masks(v.witness), v.detail])
    return out


def _examine(rel, job, contexts):
    """The axiom battery, then accepted sets and closure in each context."""
    verdicts = [relations.check_axiom(rel, a) for a in job["battery"]]
    kernels = [relations.accepted_set(rel, c) for c in contexts]
    closures = [relations.check_closure(rel, c) for c in contexts]
    return verdicts, kernels, closures


def _examined_json(job, rel, verdicts, kernels, closures, problems, where):
    check_expectations(job, verdicts, closures, problems, where)
    return {
        "rows": rows_digest(rel.rows),
        "verdicts": [verdict_json(rel, v, problems, where) for v in verdicts],
        "kernels": _kernels_json(kernels),
        "closure": _closures_json(rel, job, closures, problems, where),
    }


def order_run(job, m):
    contexts = _contexts(m.space, job)
    rel = measures.induce_relation(m, job["flavour"])
    return (rel, *_examine(rel, job, contexts), rel.dual(),
            rel.condition(contexts[1]))


def order_check(job, m, raw, problems):
    rel, verdicts, kernels, closures, dual, conditioned = raw
    out = _examined_json(job, rel, verdicts, kernels, closures, problems,
                         f"{job['id']} {job['flavour']}")
    out.update(dual=rows_digest(dual.rows),
               condition=rows_digest(conditioned.rows))
    return out


def recognize_run(job, m):
    if m.kind == "probability":
        return {"big_stepped": measures.is_big_stepped(m),
                "ct": measures.brute_force_ct(measures.table_for(m))}
    pl = measures.recognize_ct_plausibility(m)
    return {"class": measures.classify_acceptance_belief(m),
            "belief_ct": measures.is_context_tolerant_belief(m),
            "pl_ct": pl.holds, "pl_via": pl.via}


def recognize_check(job, m, raw, problems):
    for key, value in job["expect"].items():
        if raw[key] != value:
            problems.append(f"{job['id']}: {key} is {raw[key]}")
    return raw


def sup_run(job, m):
    rel = measures.induce_sup_relation(m)
    return (rel, *_examine(rel, job, _contexts(m.space, job)))


def sup_check(job, m, raw, problems):
    return _examined_json(job, *raw, problems, job["id"])


# -- kb-reasoning -----------------------------------------------------------

# The five closure rules restated on (supporting, violating) pairs, to
# replay every recorded derivation step independently of confrel.
def _same_context(p, q):
    return p[0] | p[1] == q[0] | q[1]


def _replay(rule: str, premises, pair) -> bool:
    if rule == "given":
        return not premises
    if rule == "RW":
        (e, f), = premises
        x = f & ~pair[1]
        return x != 0 and x & ~f == 0 and pair == (e | x, f & ~x)
    p, q = premises
    if rule == "CAND":
        return _same_context(p, q) and pair == (p[0] & q[0], p[1] | q[1])
    if rule == "CM":
        return _same_context(p, q) and pair == (p[0] & q[0], p[0] & q[1])
    if rule == "OR":
        return (not (p[0] & q[1] or q[0] & p[1])
                and pair == (p[0] | q[0], p[1] | q[1]))
    if rule == "CUT":
        return q[0] | q[1] == p[0] and pair == (q[0], p[1] | q[1])
    return False


def rules_run(job, kb):
    universe, base = fileio.load_kb(kb)
    closed = preferential.close_p(base)
    answers = []
    for ante, cons in job["queries"]:
        query = preferential.conditional_from_formulas(
            universe, ante, cons, allow_trivial=True)
        entailed = preferential.entails(closed, query)
        steps = closed.derivation(query.pair()) if entailed else None
        answers.append((query.pair(), entailed, steps))
    verdicts = preferential.roundtrip_check(closed)
    return base, closed, answers, verdicts


def rules_check(job, kb, raw, problems):
    base, closed, answers, verdicts = raw
    where = job["id"]
    members = set(closed.pairs)
    if not set(base.pairs) <= members:
        problems.append(f"{where}: a base rule is not entailed by its closure")
    shape = job.get("consistent")
    if shape is not None and closed.consistent != shape:
        problems.append(f"{where}: consistent is {closed.consistent}")
    out_answers = []
    for (pair, entailed, steps), query in zip(answers, job["queries"]):
        if query == ["true", "false"] and closed.consistent and entailed:
            problems.append(f"{where}: a consistent base entails true |~ false")
        chain = None
        if steps is not None:
            if steps[-1][0] != pair:
                problems.append(f"{where}: derivation ends elsewhere")
            chain = []
            for p, prov in steps:
                if not _replay(prov.rule, prov.premises, p):
                    problems.append(f"{where}: {prov.rule} step {p} does not "
                                    "follow from its premises")
                chain.append([list(p), prov.rule, [list(q) for q in prov.premises]])
        out_answers.append([list(pair), entailed, chain])
    provenance = [[list(p), closed.provenance[p].rule,
                   [list(q) for q in closed.provenance[p].premises]]
                  for p in closed.pairs]
    roundtrip = {name: [v.holds] if v.holds else
                 [False, [[e.bits, f.bits] for e, f in v.witness]]
                 for name, v in verdicts.items()}
    if closed.consistent and not all(v.holds for v in verdicts.values()):
        problems.append(f"{where}: round trip fails on a consistent closure")
    return {"pairs": digest([list(p) for p in closed.pairs]),
            "provenance": digest(provenance), "count": len(closed.pairs),
            "consistent": closed.consistent,
            "contradiction": closed.contradiction and list(closed.contradiction),
            "answers": out_answers, "roundtrip": roundtrip}


def decompose_run(job, rel):
    family = representation.decompose(rel)
    return family, representation.recompose(family)


def decompose_check(job, rel, raw, problems):
    family, back = raw
    if back.rows != rel.rows:
        problems.append(f"{job['id']}: recompose(decompose(r)) != r")
    return {"members": [rows_digest(m.rows) for m in family.members],
            "count": len(family.members), "back": rows_digest(back.rows)}


RUNNERS = {
    "order": (order_run, order_check),
    "recognize": (recognize_run, recognize_check),
    "sup": (sup_run, sup_check),
    "rules": (rules_run, rules_check),
    "decompose": (decompose_run, decompose_check),
}


# -- set-up -----------------------------------------------------------------

def build_input(job):
    kind = job["kind"]
    if kind in ("order", "recognize", "sup"):
        return fileio.load_measure(job["measure"])
    if kind == "rules":
        return job["kb"]
    if "sup" in job:
        return measures.induce_sup_relation(fileio.load_measure(job["sup"]))
    return fileio.load_relation(job["relation"])


def file_doc(spec):
    """The document a cli-batch input file holds. Induced relations are
    what `confrel induce` reports as result.relation."""
    if "doc" in spec:
        return spec["doc"]
    if "induce" in spec:
        m = fileio.load_measure(spec["induce"])
        return fileio.dump_relation(measures.induce_relation(m, spec["kind"]))
    if "sup" in spec:
        m = fileio.load_measure(spec["sup"])
        return fileio.dump_relation(measures.induce_sup_relation(m))
    m = fileio.load_measure(spec["family_of"])
    rel = measures.induce_sup_relation(m)
    return fileio.dump_family(representation.decompose(rel))


def write_cli_files(files, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for spec in files:
        text = json.dumps(file_doc(spec)) + "\n"
        (directory / spec["name"]).write_text(text, encoding="utf-8")


def setup(workload: str, seed: int, size: str, directory):
    if workload == "cli-batch":
        files, _ = plan.cli_batch_round(seed, size)
        write_cli_files(files, Path(directory))
        return None, None
    jobs = plan.library_round(workload, seed, size)
    return jobs, {job["id"]: build_input(job) for job in jobs}


# -- run --------------------------------------------------------------------

def run_phase(jobs, inputs, seconds: float, min_jobs: int = 0, tracer=None):
    """Whole rounds of the job list until `seconds` of wall time are spent
    and at least `min_jobs` jobs have run.

    A record is [round, job id, seconds, digest, problems].
    """
    records = []
    started = perf_counter()
    rnd = 0
    while True:
        for job in jobs:
            run, check = RUNNERS[job["kind"]]
            data = inputs[job["id"]]
            if tracer is not None:
                tracer.job = f"{rnd}:{job['id']}"
            t0 = perf_counter()
            try:
                raw = run(job, data)
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.job = None
            problems = []
            if error is None:
                out = digest(check(job, data, raw, problems))
            else:
                out = None
                problems.append(error)
            records.append([rnd, job["id"], elapsed, out, problems])
        rnd += 1
        if perf_counter() - started >= seconds and len(records) >= min_jobs:
            return records, rnd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=plan.SIZES, default="full")
    parser.add_argument("--dir", default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-jobs", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    jobs, inputs = setup(args.workload, args.seed, args.size, args.dir)
    if args.mode == "setup":
        return 0
    if args.trace:
        half = args.seconds / 2
        records, rounds = run_phase(jobs, inputs, half)
        phases = [{"traced": False, "rounds": rounds, "records": records}]
        import spans
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            records, rounds = run_phase(jobs, inputs, half, tracer=tracer)
        finally:
            restore()
        phases.append({"traced": True, "rounds": rounds, "records": records,
                       "spans": tracer.spans})
    else:
        records, rounds = run_phase(jobs, inputs, args.seconds, args.min_jobs)
        phases = [{"traced": False, "rounds": rounds, "records": records}]
    result = {
        "phases": phases,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "core": [job["n"] if "n" in job else None for job in jobs],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
