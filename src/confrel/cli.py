"""Command-line front end for batch verification, inference and fixtures.

Every run produces a report with a stable field order: the command, a
digest of its inputs, the result (with witnesses where a check fails),
and wall time only when asked for, so identical inputs give
byte-identical JSON. Exit codes: 0 when the checked property holds or
the query is entailed, 1 when it fails (the report carries a witness),
2 for unusable input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from typing import Optional

from . import fileio, measures, preferential, relations, representation
from .core import DECOMPOSE_MAX, Event, StateSpace, make_space
from .errors import ConfrelError
from .logic import LabelledSpace

DEFAULT_SEED = 20240

_ACCEPTANCE_AXIOMS = "T,MI,Ac"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def _jsonable(value):
    if isinstance(value, Event):
        return list(value.names())
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _verdict_json(v: relations.Verdict) -> dict:
    out = {"axiom": v.axiom, "holds": v.holds}
    if v.witness is not None:
        out["witness"] = _jsonable(v.witness)
    if v.detail is not None:
        out["detail"] = v.detail
    return out


def _event_from_text(space: StateSpace, text: str) -> Event:
    """A context argument: state names joined by commas, or a formula
    over the state names used as atoms (true only at that state)."""
    names = [t.strip() for t in text.split(",")]
    if all(n in space.states for n in names):
        return space.event(names)
    labelled = LabelledSpace(space.states, space.states,
                             {s: [s] for s in space.states}, space.n)
    return Event(space, labelled.models(text).bits)


def _report(command: str, inputs: dict, result: dict,
            started: Optional[float] = None) -> dict:
    report = {"command": command, "inputs": inputs, "result": result}
    if started is not None:
        report["wall_time_s"] = round(time.monotonic() - started, 3)
    return report


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(report: dict, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")


# -- subcommand handlers, each returning (exit_code, inputs, result) ---------

def _cmd_check_axioms(args):
    names = [a.strip() for a in args.axioms.split(",") if a.strip()]
    if not names:
        raise ValueError("--axioms names no axiom")
    unknown = [name for name in names if name not in relations.AXIOMS]
    if unknown:
        raise ValueError(f"unknown axiom {unknown[0]}; "
                         f"know {', '.join(sorted(relations.AXIOMS))}")
    rel = fileio.load_relation(args.relation, args.max_states)
    verdicts = [relations.check_axiom(rel, name) for name in names]
    inputs = {"files": {args.relation: _sha256(args.relation)},
              "axioms": names}
    result = {"verdicts": [_verdict_json(v) for v in verdicts],
              "all_hold": all(v.holds for v in verdicts)}
    return (0 if result["all_hold"] else 1), inputs, result


def _cmd_induce(args):
    measure = fileio.load_measure(args.measure, args.max_states)
    if args.sup:
        rel = measures.induce_sup_relation(measure)
        flavor = "sup"
    else:
        rel = measures.induce_relation(measure, args.kind)
        flavor = args.kind or "default"
    inputs = {"files": {args.measure: _sha256(args.measure)},
              "kind": flavor}
    return 0, inputs, {"relation": fileio.dump_relation(rel)}


def _cmd_classify_measure(args):
    measure = fileio.load_measure(args.measure, args.max_states)
    inputs = {"files": {args.measure: _sha256(args.measure)}}
    result = {"type": measure.kind}
    if measure.kind == measures.PROBABILITY:
        big = measures.is_big_stepped(measure)
        result["big_stepped"] = big
        result["context_tolerant"] = measures.brute_force_ct(
            measures.table_for(measure)
        )
        ok = big
    elif measure.kind == measures.POSSIBILITY:
        ok = True
        for flavor in ("possibility", "necessity"):
            verdicts = relations.is_acceptance_preorder(
                measures.induce_relation(measure, flavor))
            result[f"{flavor}_acceptance"] = [_verdict_json(v) for v in verdicts]
            ok = ok and all(v.holds for v in verdicts)
    else:
        label = measures.classify_acceptance_belief(measure)
        belief_ct = measures.is_context_tolerant_belief(measure)
        pl = measures.recognize_ct_plausibility(measure)
        result["belief_class"] = label
        result["belief_context_tolerant"] = belief_ct
        result["plausibility_context_tolerant"] = pl.holds
        result["plausibility_via"] = pl.via
        ok = belief_ct and pl.holds
    return (0 if ok else 1), inputs, result


def _cmd_accepted(args):
    rel = fileio.load_relation(args.relation, args.max_states)
    context = (rel.space.full() if args.given is None
               else _event_from_text(rel.space, args.given))
    kernel = relations.accepted_set(rel, context)
    closure = relations.check_closure(rel, context)
    inputs = {"files": {args.relation: _sha256(args.relation)},
              "given": args.given}
    result = {
        "context": _jsonable(kernel.context),
        "accepted": _jsonable(kernel.accepted),
        "kernel": _jsonable(kernel.kernel),
        "flags": _jsonable(kernel.flags),
        "closure": _verdict_json(closure),
    }
    return (0 if closure.holds else 1), inputs, result


def _pairs_json(space: StateSpace, pairs) -> list:
    return [
        [list(space.names_of(e)), list(space.names_of(f))] for e, f in pairs
    ]


def _cmd_close_kb(args):
    universe, base = fileio.load_kb(args.kb, args.max_states)
    closed = preferential.close_p(base)
    inputs = {"files": {args.kb: _sha256(args.kb)}}
    result = {
        "consistent": closed.consistent,
        "count": len(closed.pairs),
        "pairs": _pairs_json(universe.space, closed.pairs),
    }
    if closed.contradiction is not None:
        result["contradiction"] = _pairs_json(
            universe.space, [closed.contradiction])[0]
    return (0 if closed.consistent else 1), inputs, result


def _cmd_entail(args):
    universe, base = fileio.load_kb(args.kb, args.max_states)
    if "|~" not in args.query:
        raise ValueError('a query looks like "<formula> |~ <formula>"')
    ante, cons = args.query.split("|~", 1)
    query = preferential.conditional_from_formulas(
        universe, ante.strip(), cons.strip(), allow_trivial=True
    )
    closed = preferential.close_p(base)
    entailed = preferential.entails(closed, query)
    inputs = {"files": {args.kb: _sha256(args.kb)}, "query": args.query}
    result = {
        "query_pair": _pairs_json(universe.space, [query.pair()])[0],
        "entailed": entailed,
        "consistent": closed.consistent,
    }
    if entailed:
        steps = closed.derivation(query.pair())
        result["derivation"] = [
            {"pair": _pairs_json(universe.space, [p])[0],
             "rule": prov.rule,
             "premises": _pairs_json(universe.space, prov.premises)}
            for p, prov in steps
        ]
    return (0 if entailed else 1), inputs, result


def _cmd_decompose(args):
    rel = fileio.load_relation(args.relation, args.max_states)
    cap = DECOMPOSE_MAX if args.max_states is None else args.max_states
    family = representation.decompose(rel, max_states=cap)
    inputs = {"files": {args.relation: _sha256(args.relation)},
              "mode": args.mode}
    result = {"members": len(family.members),
              "family": fileio.dump_family(family)}
    return 0, inputs, result


def _cmd_recompose(args):
    family = fileio.load_family(args.family, args.max_states)
    rel = representation.recompose(family)
    inputs = {"files": {args.family: _sha256(args.family)}}
    return 0, inputs, {"relation": fileio.dump_relation(rel)}


def _cmd_roundtrip(args):
    if (args.kb is None) == (args.relation is None):
        raise ValueError("give exactly one of --kb or --relation")
    if args.kb is not None:
        _, base = fileio.load_kb(args.kb, args.max_states)
        verdicts = preferential.roundtrip_check(preferential.close_p(base))
        path = args.kb
    else:
        rel = fileio.load_relation(args.relation, args.max_states)
        verdicts = preferential.roundtrip_check(rel)
        path = args.relation
    inputs = {"files": {path: _sha256(path)}}
    result = {
        "verdicts": {name: _verdict_json(v) for name, v in verdicts.items()},
        "all_hold": all(v.holds for v in verdicts.values()),
    }
    return (0 if result["all_hold"] else 1), inputs, result


def _gen_space(k: int) -> StateSpace:
    return make_space([f"s{i}" for i in range(1, k + 1)])


def _cmd_gen(args):
    rng = random.Random(args.seed)
    space = _gen_space(args.n)
    if args.type == "lottery":
        artifact = fileio.dump_measure(measures.uniform_probability(space))
        key = "measure"
    elif args.type == "bigstep":
        artifact = fileio.dump_measure(
            measures.descending_powers_probability(space))
        key = "measure"
    elif args.type == "random-mass":
        artifact = fileio.dump_measure(measures.random_mass(space, rng))
        key = "measure"
    else:
        measure = measures.random_possibility(space, rng)
        artifact = fileio.dump_relation(measures.induce_sup_relation(measure))
        key = "relation"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(artifact, indent=2) + "\n")
    inputs = {"type": args.type, "n": args.n, "seed": args.seed}
    return 0, inputs, {key: artifact}


def _common_flags(parser: argparse.ArgumentParser, trailing: bool) -> None:
    # defined on the root parser and again on every subparser (with
    # suppressed defaults) so the flags work in either position
    kw = {"default": argparse.SUPPRESS} if trailing else {}
    if not trailing:
        parser.set_defaults(out=None, format="json", seed=DEFAULT_SEED,
                            max_states=None, timing=False)
    parser.add_argument("--out", help="also write the JSON report here", **kw)
    parser.add_argument("--format", choices=("json", "text"), **kw)
    parser.add_argument("--seed", type=int, **kw)
    parser.add_argument("--max-states", type=int, dest="max_states",
                        help="override the built-in state count guards", **kw)
    parser.add_argument("--timing", action="store_true",
                        help="include wall time in the report", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confrel",
        description="Verify, classify and reason with comparative "
                    "confidence over finite state spaces.",
    )
    _common_flags(parser, trailing=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_sub(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _common_flags(p, trailing=True)
        return p

    p = add_sub("check-axioms", "test axioms on a relation file")
    p.add_argument("relation")
    p.add_argument("--axioms", default=_ACCEPTANCE_AXIOMS,
                   help=f"comma-separated names (default {_ACCEPTANCE_AXIOMS})")
    p.set_defaults(handler=_cmd_check_axioms)

    p = add_sub("induce", "relation induced by a measure")
    p.add_argument("measure")
    p.add_argument("--kind", default=None,
                   help="set function to compare by (e.g. necessity, belief)")
    p.add_argument("--sup", action="store_true",
                   help="use the two-sided possibilistic comparison")
    p.set_defaults(handler=_cmd_induce)

    p = add_sub("classify-measure", "context-tolerance labels for a measure file")
    p.add_argument("measure")
    p.set_defaults(handler=_cmd_classify_measure)

    p = add_sub("accepted", "accepted beliefs and their kernel")
    p.add_argument("--relation", required=True)
    p.add_argument("--given", default=None,
                   help="context: state names or a formula over them")
    p.set_defaults(handler=_cmd_accepted)

    p = add_sub("close-kb", "close a conditional base")
    p.add_argument("kb")
    p.set_defaults(handler=_cmd_close_kb)

    p = add_sub("entail", "does the closed base contain a query")
    p.add_argument("query", help='"<formula> |~ <formula>"')
    p.add_argument("--kb", required=True)
    p.set_defaults(handler=_cmd_entail)

    p = add_sub("decompose", "complete relations refining a partial one")
    p.add_argument("relation")
    p.add_argument("--mode", choices=("all", "maximal"), default="all",
                   help="echoed in the report; both give the same family")
    p.set_defaults(handler=_cmd_decompose)

    p = add_sub("recompose", "intersect a family of relations")
    p.add_argument("family")
    p.set_defaults(handler=_cmd_recompose)

    p = add_sub("roundtrip", "axiom/rule stability between bases and relations")
    p.add_argument("--kb", default=None)
    p.add_argument("--relation", default=None)
    p.set_defaults(handler=_cmd_roundtrip)

    p = add_sub("gen", "write a test fixture")
    p.add_argument("output", nargs="?", default=None,
                   help="optional path for the bare artifact")
    p.add_argument("--type", required=True,
                   choices=("lottery", "bigstep", "random-relation",
                            "random-mass"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic() if args.timing else None
    try:
        code, inputs, result = args.handler(args)
    except (ConfrelError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(_report(args.subcommand, inputs, result, started), args)
    return code


if __name__ == "__main__":
    sys.exit(main())
