import ast
import json
import shlex
from pathlib import Path

import pytest

from confrel import (
    ConfidenceRelation,
    close_p,
    dump_family,
    dump_relation,
    load_kb,
    load_measure,
    load_relation,
    make_space,
)
from confrel.cli import main
from conftest import inclusion_relation

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def necessity_file(tmp_path, s3):
    values = [0, 2, 0, 3, 0, 2, 0, 4]
    rows = tuple(
        sum(1 << b for b in range(8) if values[a] >= values[b]) for a in range(8)
    )
    rel = ConfidenceRelation(s3, rows)
    return write_json(tmp_path, "necessity.json", dump_relation(rel)), rel


@pytest.fixture
def lottery_file(tmp_path, s3):
    rows = tuple(
        sum(1 << b for b in range(8) if bin(a).count("1") >= bin(b).count("1"))
        for a in range(8)
    )
    return write_json(tmp_path, "lottery.json", dump_relation(ConfidenceRelation(s3, rows)))


@pytest.fixture
def penguin_file(tmp_path, penguin_doc):
    return write_json(tmp_path, "penguin.json", penguin_doc)


def test_check_axioms_passes_on_acceptance_relation(capsys, necessity_file):
    path, _ = necessity_file
    code, report = run_json(capsys, "check-axioms", path)
    assert code == 0
    assert list(report) == ["command", "inputs", "result"]
    assert report["command"] == "check-axioms"
    assert report["inputs"]["axioms"] == ["T", "MI", "Ac"]
    assert list(report["inputs"]["files"].values())[0].startswith("sha256:")
    assert report["result"]["all_hold"]


def test_check_axioms_reports_witness(capsys, lottery_file):
    code, report = run_json(capsys, "check-axioms", lottery_file, "--axioms", "T,Ac")
    assert code == 1
    failing = [v for v in report["result"]["verdicts"] if not v["holds"]]
    assert failing == [
        {"axiom": "Ac", "holds": False, "witness": [["s1"], ["s2"], ["s3"]]}
    ]


def test_reports_are_byte_identical_across_runs(capsys, necessity_file):
    path, _ = necessity_file
    _, out1, _ = run(capsys, "check-axioms", path, "--axioms", "T,MI,O,Ac,Qual")
    _, out2, _ = run(capsys, "check-axioms", path, "--axioms", "T,MI,O,Ac,Qual")
    assert out1 == out2


def test_timing_flag_appends_wall_time(capsys, necessity_file):
    path, _ = necessity_file
    code, report = run_json(capsys, "check-axioms", path, "--timing")
    assert code == 0
    assert list(report) == ["command", "inputs", "result", "wall_time_s"]
    assert isinstance(report["wall_time_s"], (int, float))


def test_out_writes_the_same_report(capsys, tmp_path, necessity_file):
    path, _ = necessity_file
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check-axioms", path, "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_global_flags_work_in_both_positions(capsys, tmp_path, necessity_file):
    path, _ = necessity_file
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    code1, _, _ = run(capsys, "--out", str(before), "check-axioms", path)
    code2, _, _ = run(capsys, "check-axioms", path, "--out", str(after))
    assert code1 == code2 == 0
    assert before.read_text() == after.read_text()


def test_format_text_renders_lines(capsys, necessity_file):
    path, _ = necessity_file
    code, out, _ = run(capsys, "check-axioms", path, "--format", "text")
    assert code == 0
    assert out.startswith('command: "check-axioms"')
    assert "all_hold: true" in out


def test_induce_matches_library(capsys, tmp_path, s3):
    doc = {
        "states": ["s1", "s2", "s3"],
        "type": "possibility",
        "values": {"s1": 1, "s2": "1/2", "s3": "1/2"},
    }
    path = write_json(tmp_path, "poss.json", doc)
    code, report = run_json(capsys, "induce", path, "--kind", "necessity")
    assert code == 0
    rel = load_relation(report["result"]["relation"])
    assert rel.strict(s3.singleton("s1"), s3.singleton("s2"))
    code, report = run_json(capsys, "induce", path, "--sup")
    assert code == 0
    assert report["inputs"]["kind"] == "sup"
    sup = load_relation(report["result"]["relation"])
    assert sup.incomparable(s3.singleton("s2"), s3.singleton("s3"))


def test_classify_measure_probability(capsys, tmp_path):
    big = {
        "states": ["s1", "s2", "s3"],
        "type": "probability",
        "values": {"s1": "4/7", "s2": "2/7", "s3": "1/7"},
    }
    path = write_json(tmp_path, "big.json", big)
    code, report = run_json(capsys, "classify-measure", path)
    assert code == 0
    assert report["result"] == {
        "type": "probability",
        "big_stepped": True,
        "context_tolerant": True,
    }
    uniform = {
        "states": ["s1", "s2", "s3"],
        "type": "probability",
        "values": {"s1": "1/3", "s2": "1/3", "s3": "1/3"},
    }
    path = write_json(tmp_path, "uniform.json", uniform)
    code, report = run_json(capsys, "classify-measure", path)
    assert code == 1
    assert not report["result"]["big_stepped"]


def test_classify_measure_mass(capsys, tmp_path):
    doc = {
        "states": ["s1", "s2", "s3"],
        "type": "mass",
        "values": {"s1": "4/7", "s2": "2/7", "s3": "1/7"},
    }
    path = write_json(tmp_path, "mass.json", doc)
    code, report = run_json(capsys, "classify-measure", path)
    assert code == 0
    assert report["result"]["belief_class"] == "singleton_kernel"
    assert report["result"]["belief_context_tolerant"]
    assert report["result"]["plausibility_via"] == "example1"


def test_accepted_with_context(capsys, necessity_file, s3):
    path, _ = necessity_file
    code, report = run_json(capsys, "accepted", "--relation", path,
                            "--given", "s1,s2")
    assert code == 0
    assert report["result"]["kernel"] == ["s1"]
    assert report["result"]["closure"]["holds"]
    code2, report2 = run_json(capsys, "accepted", "--relation", path,
                              "--given", "s1 | s2")
    assert report2["result"] == report["result"]


def test_accepted_flags_lottery_closure_failure(capsys, lottery_file):
    code, report = run_json(capsys, "accepted", "--relation", lottery_file)
    assert code == 1
    assert report["result"]["flags"] == ["empty_kernel"]
    closure = report["result"]["closure"]
    assert closure["detail"] == "intersection"
    assert closure["witness"] == [["s1", "s2"], ["s1", "s3"]]


def test_close_kb_penguin(capsys, penguin_file):
    code, report = run_json(capsys, "close-kb", penguin_file)
    assert code == 0
    assert report["result"]["consistent"]
    assert report["result"]["count"] == 108
    assert len(report["result"]["pairs"]) == 108


def test_close_kb_contradiction(capsys, tmp_path):
    doc = {
        "atoms": ["a", "b"],
        "rules": [{"if": "b", "then": "a"}, {"if": "b", "then": "!a"}],
    }
    path = write_json(tmp_path, "bad.json", doc)
    code, report = run_json(capsys, "close-kb", path)
    assert code == 1
    assert not report["result"]["consistent"]
    assert report["result"]["contradiction"][0] == []


def test_entail_with_derivation(capsys, penguin_file):
    code, report = run_json(capsys, "entail", "p |~ !f", "--kb", penguin_file)
    assert code == 0
    assert report["result"]["entailed"]
    steps = report["result"]["derivation"]
    assert steps[-1]["pair"] == report["result"]["query_pair"]
    assert all(step["rule"] == "given" for step in steps if not step["premises"])
    code, report = run_json(capsys, "entail", "p |~ f", "--kb", penguin_file)
    assert code == 1
    assert not report["result"]["entailed"]
    assert "derivation" not in report["result"]


def test_decompose_and_recompose_via_files(capsys, tmp_path, s3):
    rel = inclusion_relation(s3)
    path = write_json(tmp_path, "incl.json", dump_relation(rel))
    code, report = run_json(capsys, "decompose", path)
    assert code == 0
    assert report["result"]["members"] == 12
    family_path = write_json(tmp_path, "family.json", report["result"]["family"])
    code, report = run_json(capsys, "recompose", family_path)
    assert code == 0
    assert load_relation(report["result"]["relation"]) == rel


def test_decompose_modes_differ_only_in_the_echoed_mode(capsys, tmp_path, s3):
    # every member is complete with the original's equivalences, so
    # "maximal" keeps the whole family; the mode is only echoed
    path = write_json(tmp_path, "incl.json", dump_relation(inclusion_relation(s3)))
    code, every = run_json(capsys, "decompose", path, "--mode", "all")
    assert code == 0
    code, maximal = run_json(capsys, "decompose", path, "--mode", "maximal")
    assert code == 0
    assert every["inputs"].pop("mode") == "all"
    assert maximal["inputs"].pop("mode") == "maximal"
    assert maximal == every


def test_roundtrip_subcommand(capsys, penguin_file, necessity_file):
    path, _ = necessity_file
    code, report = run_json(capsys, "roundtrip", "--kb", penguin_file)
    assert code == 0
    assert report["result"]["all_hold"]
    assert set(report["result"]["verdicts"]) == {"IR", "T", "O", "Ac", "CP"}
    code, report = run_json(capsys, "roundtrip", "--relation", path)
    assert code == 0
    assert set(report["result"]["verdicts"]) == {
        "CAND", "OR", "CM", "CUT", "RW", "CP"
    }
    code, _, err = run(capsys, "roundtrip")
    assert code == 2 and "exactly one" in err


def test_gen_is_seed_deterministic(capsys, tmp_path):
    _, out1, _ = run(capsys, "gen", "--type", "random-mass", "--n", "3")
    _, out2, _ = run(capsys, "gen", "--type", "random-mass", "--n", "3")
    _, out3, _ = run(capsys, "gen", "--type", "random-mass", "--n", "3",
                     "--seed", "7")
    assert out1 == out2
    assert out1 != out3
    report = json.loads(out1)
    assert report["inputs"]["seed"] == 20240
    # --seed is a gen option only, before or after another subcommand
    for argv in (["check-axioms", "r.json", "--seed", "3"],
                 ["--seed", "3", "gen", "--type", "lottery", "--n", "2"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2, argv


def test_gen_writes_loadable_artifacts(capsys, tmp_path):
    measure_path = str(tmp_path / "lottery.json")
    code, _, _ = run(capsys, "gen", measure_path, "--type", "lottery", "--n", "4")
    assert code == 0
    m = load_measure(measure_path)
    assert m.kind == "probability"
    assert len(m.weights) == 4
    rel_path = str(tmp_path / "rel.json")
    code, _, _ = run(capsys, "gen", rel_path, "--type", "random-relation",
                     "--n", "3")
    assert code == 0
    assert load_relation(rel_path).space.n == 3
    bigstep_path = str(tmp_path / "bigstep.json")
    code, _, _ = run(capsys, "gen", bigstep_path, "--type", "bigstep", "--n", "4")
    assert code == 0
    code, report = run_json(capsys, "classify-measure", bigstep_path)
    assert code == 0 and report["result"]["big_stepped"]
    code, out, err = run(capsys, "gen", "--type", "lottery", "--n", "13")
    assert (code, out) == (2, "") and "cap of 12" in err
    code, _, _ = run(capsys, "gen", measure_path, "--type", "lottery",
                     "--n", "13", "--max-states", "13")
    assert code == 0
    assert len(load_measure(measure_path, max_states=13).weights) == 13


def test_unusable_inputs_exit_2(capsys, tmp_path, necessity_file):
    path, _ = necessity_file
    code, out, err = run(capsys, "check-axioms", str(tmp_path / "missing.json"))
    assert code == 2 and out == "" and err.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check-axioms", str(bad))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "check-axioms", path, "--axioms", "T,XYZ")
    assert code == 2 and err.startswith("error: unknown axiom XYZ;")
    # names are checked before the file is read
    code, _, err = run(capsys, "check-axioms", str(tmp_path / "missing.json"),
                       "--axioms", "Nope")
    assert code == 2 and err.startswith("error: unknown axiom Nope;")
    # a list that names nothing is not an empty battery that holds
    for axioms in (",", " , ", ""):
        code, out, err = run(capsys, "check-axioms", path, "--axioms", axioms)
        assert code == 2 and out == "" and err == "error: --axioms names no axiom\n"
    code, _, err = run(capsys, "entail", "p !f", "--kb", str(bad))
    assert code == 2
    # a formula with a character outside the grammar is bad input, not a
    # traceback, in a query and in a context
    kb = write_json(tmp_path, "kb.json", {"atoms": ["a", "b"], "rules": []})
    for argv in (["entail", "a $ b |~ a", "--kb", kb],
                 ["accepted", "--relation", path, "--given", "s1 $ s2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error:"), argv
        assert "Traceback" not in err and "'$'" in err, argv
    code, _, err = run(capsys, "decompose", path, "--max-states", "2")
    assert code == 2 and "cap" in err
    for command, doc, field in (
        ("check-axioms", {"states": ["a", "b"], "pairs": 5}, "pairs"),
        ("check-axioms", {"states": ["a", "b"], "pairs": [5]}, "pairs"),
        ("check-axioms", {"states": [1, 2], "pairs": []}, "states"),
        ("check-axioms", {"states": "ab", "pairs": []}, "states"),
        ("check-axioms", {"states": ["a", "b"], "pairs": [["ab", "b"]]},
         "pairs"),
        ("check-axioms", {"states": ["a", "b"], "pairs": [[{"a": 1}, ["b"]]]},
         "pairs"),
        ("check-axioms", ["states"], "JSON object"),
        ("check-axioms", {"states": ["a", "b"], "pairs": [[["a"], ["b"]]],
                          "strict_only": "false"}, "strict_only"),
        ("check-axioms", {"states": ["a", "b"], "pairs": [[["a"], ["b"]]],
                          "strict_only": 1}, "strict_only"),
        ("classify-measure",
         {"states": ["a", "b"], "type": "mass", "values": ["1"]}, "values"),
        ("classify-measure", {"states": ["a", "b"], "type": "probability",
                              "values": ["1/0", "0"]}, "1/0"),
        ("induce", {"states": ["a", "b"], "type": "mass",
                    "values": {"a": "0/0", "b": "1"}}, "0/0"),
        ("classify-measure", {"states": ["a", "b"], "type": "possibility",
                              "values": {"a": "1", "b": "1/0"}}, "1/0"),
        ("classify-measure", {"states": ["a", "b"], "type": "probability",
                              "values": ["1e9999999", "0"]}, "1e9999999"),
        ("induce", {"states": ["a", "b"], "type": "mass",
                    "values": {"a": "1e-9999999", "b": "1"}}, "1e-9999999"),
        ("close-kb", {"atoms": ["a"], "rules": [5]}, "rules"),
        ("close-kb", {"atoms": "ab", "rules": []}, "atoms"),
        ("close-kb", {"states": ["w"], "atoms": ["a"], "labels": 5,
                      "rules": []}, "labels"),
        ("close-kb", {"states": ["w", "v"], "atoms": ["a"],
                      "labels": {"w": ["a"], "vv": ["a"]}, "rules": []},
         "labels"),
        ("close-kb", {"states": [f"w{i}" for i in range(14)], "atoms": ["a"],
                      "rules": []}, "cap"),
        ("close-kb", {"atoms": ["a"],
                      "rules": [{"if": "!" * 5000 + "a", "then": "a"}]},
         "nested"),
        ("recompose", {"states": ["a"], "members": [5]}, "members"),
    ):
        shape = write_json(tmp_path, "shape.json", doc)
        code, out, err = run(capsys, command, shape)
        assert (code, out) == (2, ""), doc
        assert err.startswith("error:") and field in err, err


def test_readme_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    source = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    scope, checked = {}, 0
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if comment in ("True", "False"):
            expected = comment == "True"
            code = compile(ast.Expression(node.value), "README.md", "eval")
            assert eval(code, scope) is expected, ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert checked == 5


def test_readme_lottery_example_runs_as_written(capsys, tmp_path, monkeypatch):
    # the sh block that starts with gen lottery.json, and the result object
    # shown in the json block after it
    blocks = README.read_text(encoding="utf-8").split("```")
    i = next(i for i, block in enumerate(blocks)
             if block.startswith("sh\nconfrel gen lottery.json"))
    gen, classify = (shlex.split(line, comments=True)[1:]
                     for line in blocks[i].splitlines()[1:])
    shown = json.loads("{" + blocks[i + 2].removeprefix("json\n") + "}")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *gen)[0] == 0
    code, report = run_json(capsys, *classify)
    assert (code, report["result"]) == (1, shown["result"])


def test_unknown_state_names_print_the_bare_message(capsys, tmp_path):
    # a KeyError's message is printed as is, not in repr quotes
    measure = write_json(tmp_path, "mass.json", {
        "states": ["a", "b"], "type": "mass", "values": {"a,zz": "1"}})
    relation = write_json(tmp_path, "rel.json", {
        "states": ["a", "b"], "pairs": [[["a"], ["zz"]]]})
    for argv in (["classify-measure", measure],
                 ["check-axioms", relation]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: no state named 'zz'\n"), argv
