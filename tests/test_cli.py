import hashlib
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dimonoids
from dimonoids import (
    OpTable,
    Permutation,
    cases,
    classify,
    dumps_catalog,
    left_zero_sg,
    lo_arrow_pair,
    lo_ro_plus_zero,
    naive_flip,
    null_sg,
    pair,
    relabel_dimonoid,
    right_zero_sg,
)
from dimonoids.cli import main
from dimonoids.families import BUILD_BOUND, build, make_params
from reference import reference_assoc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_example_runs(capsys, monkeypatch, tmp_path):
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    exec(example, {})
    # every `dimonoids ...` line of the shell blocks, continuations joined
    commands = [shlex.split(line)[1:]
                for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dimonoids ")]
    assert [argv[0] for argv in commands] == ["build", "classify", "suite", "iso"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "iso":
            assert json.loads(out) == {"isomorphic": True}
        if argv[0] == "classify":
            written = tmp_path / argv[argv.index("--out") + 1]
            assert len(written.read_text(encoding="utf-8").splitlines()) == 734


def test_build_json_matches_library(capsys):
    code, out, err = run(capsys, "build", "--family", "LOB", "--n", "3",
                         "--a", "0", "--c", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "table": [[0, 1, 1], [1, 1, 1], [2, 2, 2]]}


def test_build_inline_params(capsys):
    doc = json.dumps({"family": "LO_arrow", "n": 3, "A": [0, 1], "a": 0})
    code, out, _ = run(capsys, "build", "--json", doc)
    assert code == 0
    assert json.loads(out)["table"] == [[0, 0, 0], [1, 1, 1], [0, 0, 0]]


def test_build_table_format(capsys):
    code, out, _ = run(capsys, "build", "--family", "LO", "--n", "2",
                       "--format", "table")
    assert code == 0
    assert "0 | 0 0" in out and "1 | 1 1" in out


def test_build_validation_error_exit_3(capsys):
    code, out, err = run(capsys, "build", "--family", "LOB", "--n", "1",
                         "--a", "0", "--c", "0")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "EqualDistinguished"


def test_build_names_a_bool_parameter_as_a_bad_index_exit_3(capsys):
    doc = json.dumps({"family": "LOB", "n": 3, "a": True, "c": 1})
    code, out, err = run(capsys, "build", "--json", doc)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "IndexOutOfRange"


def test_build_rejects_non_int_size_exit_3(capsys):
    for n in (True, 2.0):
        doc = json.dumps({"family": "LO", "n": n})
        code, out, err = run(capsys, "build", "--json", doc)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "SizeMismatch"
    # no family at all, from the flags or from the document
    for argv, error in ((("build",), "DimonoidError"),
                        (("build", "--json", '{"n": 2}'), "BadFamilyParams")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == error


def test_build_rejects_mistyped_params_exit_3(capsys):
    for doc, error in (({"family": "LO", "n": 2, "A": 3}, "BadFamilyParams"),
                       ({"family": ["LO"], "n": 2}, "BadFamilyParams"),
                       ({"family": "LO_tilde0", "n": 2, "A": [[0]]}, "BadFamilyParams"),
                       # a bool is no element of A, even where A holds 1
                       ({"family": "LO_arrow", "n": 2, "A": [1], "a": True},
                        "ANotContainingA"),
                       ({"family": "LO_arrow", "n": 2, "A": [0], "a": [0]},
                        "ANotContainingA")):
        code, out, err = run(capsys, "build", "--json", json.dumps(doc))
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == error


def test_build_refuses_carriers_above_the_bound_exit_3(capsys):
    for argv in (("--family", "O", "--n", "1000000000", "--zero", "0"),
                 ("--family", "LO", "--n", "100000"),
                 # plus_zero adjoins a zero, so its carrier is n + 1
                 ("--family", "plus_zero", "--n", str(BUILD_BOUND))):
        code, out, err = run(capsys, "build", *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "BoundExceeded"
    assert build(make_params("plus_zero", BUILD_BOUND - 1)).n == BUILD_BOUND


def test_usage_error_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "classify")[0] == 2  # --n is required


def test_verify_dimonoid_and_counterexample(capsys, tmp_path):
    good = pair(left_zero_sg(2), right_zero_sg(2))
    bad = naive_flip(good)
    good_path = tmp_path / "good.json"
    bad_path = tmp_path / "bad.json"
    good_path.write_text(json.dumps(good.to_json()))
    bad_path.write_text(json.dumps(bad.to_json()))

    code, out, _ = run(capsys, "verify", str(good_path))
    assert code == 0
    assert json.loads(out) == {k: "ok" for k in
                               ("assoc_left", "assoc_right", "d1", "d2", "d3")}

    code, out, _ = run(capsys, "verify", str(bad_path))
    assert code == 1
    doc = json.loads(out)
    # every failing axiom is reported with its witness, not only the first
    assert doc["d1"] == {"witness": [0, 0, 1]}
    assert doc["d2"] == {"witness": [0, 0, 1]}
    assert doc["d3"] == {"witness": [0, 1, 0]}


def test_verify_above_256_elements(capsys):
    # bytes cannot hold the cells of 257 elements: the axiom kernels run over str
    n, axioms = 257, ("assoc_left", "assoc_right", "d1", "d2", "d3")
    t = null_sg(n, 3)
    code, out, _ = run(capsys, "verify", "--json", json.dumps(t.to_json()))
    assert code == 0
    assert json.loads(out) == {k: "ok" for k in axioms}
    e = list(t.entries)
    e[3 * n + 3] = 256
    bad = OpTable(n, tuple(e))
    # the first violating triple of a cell-by-cell scan: (0*0)*3 = 3*3 = 256, 0*(0*3) = 3
    witness = list(reference_assoc(bad))
    assert witness == [0, 0, 3]
    code, out, _ = run(capsys, "verify", "--json", json.dumps(bad.to_json()))
    assert code == 1
    # a bare table is the trivial dimonoid on it: all five axioms read one identity
    assert json.loads(out) == {k: {"witness": witness} for k in axioms}


def test_verify_accepts_inline_and_bare_tables(capsys):
    doc = json.dumps({"n": 2, "table": [[0, 0], [1, 1]]})
    code, out, _ = run(capsys, "verify", "--json", doc)
    assert code == 0


def test_verify_rejects_garbage_exit_3(capsys):
    code, _, err = run(capsys, "verify", "--json", "{broken")
    assert code == 3
    code, _, err = run(capsys, "verify", "--json",
                       json.dumps({"n": 2, "left": [[0, 0], [1, 1]], "right": [[5, 0], [1, 1]]}))
    assert code == 3
    assert json.loads(err)["error"]["code"] == "IndexOutOfRange"
    # no input at all, and a document with no tables
    for argv, error in ((("verify",), "DimonoidError"),
                        (("verify", "--json", '{"n": 2}'), "SizeMismatch")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == error


def test_verify_rejects_boolean_size_exit_3(capsys):
    # JSON true is not the carrier size 1
    code, out, err = run(capsys, "verify", "--json",
                         json.dumps({"n": True, "left": [[0]], "right": [[0]]}))
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "SizeMismatch"


def test_unknown_keys_and_ambiguous_documents_exit_3(capsys):
    # a key no reader knows is refused, and so is a document holding both a
    # bare table and a pair, which is neither
    d = pair(left_zero_sg(2), right_zero_sg(2))
    doc, table = d.to_json(), left_zero_sg(2).to_json()
    good = json.dumps(doc)
    for bad in (dict(doc, extra=1), dict(table, x=1), dict(table, left=doc["left"]),
                dict(doc, table=table["table"])):
        text = json.dumps(bad)
        for argv in (["verify", "--json", text], ["props", "--json", text],
                     ["halo", "--json", text], ["dual", "--json", text],
                     ["aut", "--json", text], ["iso", text, good], ["iso", good, text]):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "", argv
            assert json.loads(err)["error"]["code"] == "FormatError", argv


def test_props_halo_dual_aut(capsys, tmp_path):
    d = pair(left_zero_sg(2), right_zero_sg(2))
    path = tmp_path / "d.json"
    path.write_text(json.dumps(d.to_json()))

    code, out, _ = run(capsys, "props", str(path))
    assert code == 0 and json.loads(out)["abelian"] is True

    code, out, _ = run(capsys, "halo", str(path))
    assert code == 0 and json.loads(out) == {"halo": [0, 1]}

    code, out, _ = run(capsys, "dual", str(path))
    assert code == 0 and json.loads(out) == d.to_json()

    code, out, _ = run(capsys, "dual", "--naive", str(path))
    flipped = json.loads(out)
    assert flipped["left"] == [[0, 1], [0, 1]]

    code, out, _ = run(capsys, "aut", str(path), "--spec", "fixed=;blocks=0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2 and doc["matches_spec"] is True

    code, out, _ = run(capsys, "aut", str(path), "--spec", "fixed=0,1;blocks=")
    assert code == 1 and json.loads(out)["matches_spec"] is False


def test_aut_spec_over_another_carrier_is_input_error_exit_3(capsys):
    doc = json.dumps(pair(left_zero_sg(2), right_zero_sg(2)).to_json())
    # the last spec names no part a spec has
    for spec, error in (("fixed=0,1,2;blocks=", "SizeMismatch"),
                        ("fixed=;blocks=0,1,2", "SizeMismatch"),
                        ("bogus=1", "DimonoidError")):
        for fmt in ("json", "table"):
            code, out, err = run(capsys, "aut", "--json", doc, "--spec", spec,
                                 "--format", fmt)
            assert code == 3 and out == ""
            assert json.loads(err)["error"]["code"] == error


def test_aut_spec_naming_a_part_twice_or_covering_nothing_exits_3(capsys):
    doc = json.dumps(pair(left_zero_sg(2), right_zero_sg(2)).to_json())
    for spec, error, message in (
            ("blocks=0,1;blocks=", "DimonoidError", "'blocks' twice"),
            ("fixed=;blocks=0,1;blocks=0,1", "DimonoidError", "'blocks' twice"),
            ("fixed=0;blocks=1; fixed=0", "DimonoidError", "'fixed' twice"),
            ("fixed=;blocks=", "SizeMismatch", "covers no element"),
            ("", "SizeMismatch", "covers no element")):
        for fmt in ("json", "table"):
            code, out, err = run(capsys, "aut", "--json", doc, "--spec", spec,
                                 "--format", fmt)
            assert code == 3 and out == ""
            err = json.loads(err)["error"]
            assert err["code"] == error and message in err["message"], spec


# SHA-256 of the `aut --json` stdout of two groups at the search bound
AUT_STDOUT_DIGESTS = {
    "lo_ro_plus_zero(7)": "ca13fb930031aec7571aecb97ca77f6480b33868c4339eec159c8bbe260c1543",
    "left_zero_sg(8)": "c14e8d42f4e43aa2748350db082ed9123ca9514ed77de127a5a0a8a427e7ca59",
}


def test_aut_listing_at_the_search_bound_is_pinned(capsys):
    digests = {}
    for name, d in (("lo_ro_plus_zero(7)", lo_ro_plus_zero(7)),
                    ("left_zero_sg(8)", left_zero_sg(8))):
        code, out, _ = run(capsys, "aut", "--json", json.dumps(d.to_json()))
        assert code == 0
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == AUT_STDOUT_DIGESTS


def test_aut_table_format_does_not_list_the_group(capsys, monkeypatch):
    from dimonoids.morphisms import AutSet

    def listed(self):
        raise AssertionError("the member set was expanded")

    monkeypatch.setattr(AutSet, "perms", property(listed))
    monkeypatch.setattr(AutSet, "_member_list", listed)
    doc = json.dumps(left_zero_sg(8).to_json())
    code, out, _ = run(capsys, "aut", "--json", doc, "--format", "table")
    assert (code, out) == (0, "order: 40320\n")
    code, out, _ = run(capsys, "aut", "--json", doc, "--format", "table",
                       "--spec", "fixed=;blocks=0,1,2,3,4,5,6,7")
    assert (code, out) == (0, "order: 40320\nmatches_spec: True\n")


def test_json_output_renders_no_grid(capsys, monkeypatch):
    import dimonoids.cli as cli

    def rendered(table):
        raise AssertionError("a text grid was rendered for JSON output")

    monkeypatch.setattr(cli, "_render_ditable", rendered)
    monkeypatch.setattr(cli, "_render_optable", rendered)
    d = pair(left_zero_sg(2), right_zero_sg(2))
    code, out, _ = run(capsys, "verify", "--json", json.dumps(d.to_json()))
    assert code == 0 and json.loads(out) == d.axiom_status.to_json()
    flipped = naive_flip(d)
    code, out, _ = run(capsys, "verify", "--json", json.dumps(flipped.to_json()))
    assert code == 1 and json.loads(out) == flipped.axiom_status.to_json()
    code, out, _ = run(capsys, "dual", "--json", json.dumps(d.to_json()))
    assert code == 0 and json.loads(out) == d.to_json()
    code, out, _ = run(capsys, "build", "--family", "LO", "--n", "3")
    assert code == 0 and json.loads(out) == left_zero_sg(3).to_json()
    # the table format still renders its grid
    for argv in (("verify", "--json", json.dumps(d.to_json())),
                 ("dual", "--json", json.dumps(d.to_json())),
                 ("build", "--family", "LO", "--n", "3")):
        with pytest.raises(AssertionError, match="text grid"):
            main([*argv, "--format", "table"])


def test_props_on_non_dimonoid_is_input_error(capsys, tmp_path):
    bad = naive_flip(pair(left_zero_sg(2), right_zero_sg(2)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, _, err = run(capsys, "props", str(path))
    assert code == 3
    assert json.loads(err)["error"]["code"] == "NotADimonoid"


def test_iso_exit_codes(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    a.write_text(json.dumps(lo_arrow_pair(4, {0, 1}, 0).to_json()))
    b.write_text(json.dumps(lo_arrow_pair(4, {0, 3}, 3).to_json()))
    c.write_text(json.dumps(lo_arrow_pair(4, {0}, 0).to_json()))

    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0 and json.loads(out) == {"isomorphic": True}

    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 1 and json.loads(out) == {"isomorphic": False}

    code, out, _ = run(capsys, "iso", "--format", "table", str(a), str(b))
    assert code == 0 and out.strip() == "true"


def test_iso_accepts_inline_documents(capsys):
    d = pair(left_zero_sg(2), right_zero_sg(2))
    doc = json.dumps(d.to_json())
    code, out, _ = run(capsys, "iso", doc, doc)
    assert code == 0 and json.loads(out)["isomorphic"] is True


def doc(structure):
    return json.dumps(structure.to_json())


def test_iso_answers_up_to_eight_elements(capsys):
    d = next(cases("lob*rob", 6)).dimonoid
    reversal = Permutation(tuple(range(5, -1, -1)))
    code, out, _ = run(capsys, "iso", doc(d), doc(relabel_dimonoid(d, reversal)))
    assert code == 0 and json.loads(out) == {"isomorphic": True}
    for name, n in (("lo_arrow*o", 7), ("lob*o_fixed", 8), ("lo*ro+0", 7)):
        d = list(cases(name, n))[-1].dimonoid
        shift = Permutation(tuple((x + 3) % d.n for x in range(d.n)))
        code, out, _ = run(capsys, "iso", doc(d), doc(relabel_dimonoid(d, shift)))
        assert code == 0 and json.loads(out) == {"isomorphic": True}, (name, d.n)


def test_aut_and_iso_refuse_above_eight_elements(capsys):
    big = doc(null_sg(12, 0))
    for argv in (("aut", "--json", big), ("iso", big, big)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "BoundExceeded"


def test_classify_writes_catalog(capsys, tmp_path):
    out_path = tmp_path / "cat2.jsonl"
    code, out, err = run(capsys, "classify", "--n", "2", "--out", str(out_path))
    assert code == 0
    assert "classes: 8" in err
    assert out_path.read_text() == dumps_catalog(classify(2))


def test_classify_to_stdout_is_stable(capsys):
    code1, out1, _ = run(capsys, "classify", "--n", "2")
    code2, out2, _ = run(capsys, "classify", "--n", "2")
    assert code1 == code2 == 0 and out1 == out2


def test_classify_quotient_flag(capsys):
    code, out, _ = run(capsys, "classify", "--n", "2", "--quotient", "iso-dual")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_suite_cli(capsys):
    code, out, _ = run(capsys, "suite", "--n-max", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run(capsys, "suite", "--n-max", "2", "--format", "table")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())

    code, _, err = run(capsys, "suite", "--n-max", "7")
    assert code == 3


SUITE_N6_DIGESTS = {
    "json": "da96a82266f8bcad09f2955e561ca70dfb52ffbf5378103dcfbd785c6586f9fe",
    "table": "b3e51198d33955bff56c3741ffbd57302087968226bbac719592012a5c0acfa1",
}


def test_suite_output_bytes_are_pinned(capsys):
    # SHA-256 of the stdout of `dimonoids suite --n-max 6` in each format
    for fmt, digest in SUITE_N6_DIGESTS.items():
        code, out, _ = run(capsys, "suite", "--n-max", "6", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_json_output_is_byte_stable(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(pair(left_zero_sg(3), right_zero_sg(3)).to_json()))
    outputs = {run(capsys, "aut", str(path))[1] for _ in range(3)}
    assert len(outputs) == 1


def _python(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter, started with the given flags, that
    imports this checkout's package."""
    src = str(Path(dimonoids.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *flags, "-c", script],
                          env=env, capture_output=True, text=True, check=True)


def test_cli_import_does_not_load_multiprocessing():
    # classify runs in one process, so neither the import nor a classify
    # pays for multiprocessing
    out = _python(
        "import dimonoids.cli, sys\n"
        "dimonoids.classify(3)\n"
        "assert dimonoids.cli.main(['classify', '--n', '2']) == 0\n"
        "print('multiprocessing' in sys.modules, file=sys.stderr)")
    assert out.stderr.strip().splitlines()[-1] == "False"


def test_single_structure_commands_load_no_dataclasses(tmp_path):
    # the records on their path are NamedTuples and a slotted DiTable; -S
    # keeps site hooks from importing either module first
    path = tmp_path / "d.json"
    path.write_text(json.dumps(pair(left_zero_sg(3), right_zero_sg(3)).to_json()))
    out = _python(f"""
import contextlib, io, sys
import dimonoids.cli, dimonoids.families, dimonoids.morphisms

for argv in (["build", "--family", "LOB", "--n", "3", "--a", "0", "--c", "1"],
             ["aut", {str(path)!r}], ["iso", {str(path)!r}, {str(path)!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert dimonoids.cli.main(argv) == 0
print(sorted({{"dataclasses", "inspect"}} & set(sys.modules)))
""", "-S")
    assert out.stdout.strip() == "[]"


def test_catalog_commands_load_no_dataclasses():
    # the catalog and construction records are NamedTuples too, so classify
    # and suite run without dataclasses and inspect
    out = _python("""
import contextlib, io, sys
import dimonoids.cli

sink = io.StringIO()
for argv in (["classify", "--n", "2"], ["suite", "--n-max", "2"]):
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert dimonoids.cli.main(argv) == 0
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
""", "-S")
    assert out.stdout.strip() == "[]"


def test_each_subcommand_imports_only_the_modules_it_runs(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(pair(left_zero_sg(3), right_zero_sg(3)).to_json()))
    out = _python(f"""
import contextlib, io, json, sys
import dimonoids.cli

def loaded():
    return sorted(k for k in sys.modules if k.startswith("dimonoids"))

seen = {{"import": loaded()}}
for argv in (["verify", {str(path)!r}], ["aut", {str(path)!r}], ["classify", "--n", "2"]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert dimonoids.cli.main(argv) == 0
    seen[argv[0]] = loaded()
seen["classify_out"] = buf.getvalue()
print(json.dumps(seen))
""")
    seen = json.loads(out.stdout)
    core = ["dimonoids", "dimonoids.cli", "dimonoids.dimonoid", "dimonoids.errors",
            "dimonoids.tables"]
    assert seen["import"] == seen["verify"] == core
    assert "dimonoids.morphisms" in seen["aut"]
    assert "dimonoids.catalog" not in seen["aut"]
    assert "dimonoids.catalog" in seen["classify"]
    assert seen["classify_out"] == dumps_catalog(classify(2))


def test_public_names_are_the_defining_modules_objects():
    # the package resolves each name lazily from the module that defines it
    assert len(dimonoids.__all__) == 92
    assert set(dimonoids.__all__) <= set(dir(dimonoids))
    for name in dimonoids.__all__:
        module = importlib.import_module(f"dimonoids.{dimonoids._MODULE_OF[name]}")
        value = getattr(dimonoids, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__
    assert dimonoids.morphisms.as_ditable is dimonoids.dimonoid.as_ditable
    assert not hasattr(dimonoids, "no_such_name")
    # the reference routes moved to tests/reference.py in 0.1.0
    for name in ("all_permutations", "automorphisms_brute", "enumerate_dimonoids",
                 "enumerate_semigroups_brute"):
        for module in (dimonoids, dimonoids.catalog, dimonoids.morphisms):
            assert not hasattr(module, name), (module.__name__, name)
    assert list(inspect.signature(dimonoids.AutSet).parameters) == ["n", "base", "transversals"]
    assert not hasattr(dimonoids.AutSet, "is_group")


def test_deeply_nested_json_is_input_error_exit_3(capsys, tmp_path):
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["verify", str(path)], ["build", "--json", deep]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "FormatError"


def test_a_closed_stdout_exits_1_without_an_error_document(capsys, monkeypatch, tmp_path):
    # a reader such as `head -1` that closes the pipe is no input error
    sink = tmp_path / "sink"

    class ClosedPipe:
        def __init__(self):
            self.fd = os.open(sink, os.O_WRONLY | os.O_CREAT)

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    closed = ClosedPipe()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", closed)
        code = main(["build", "--family", "LO", "--n", "60"])
    try:
        # what is left of stdout now goes to the null device
        os.write(closed.fd, b"rest")
    finally:
        os.close(closed.fd)
    assert code == 1
    assert capsys.readouterr().err == ""
    assert sink.read_bytes() == b""
    # a missing input file is still invalid input
    code, out, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "FileNotFoundError"


def test_a_closed_pipe_ends_a_process_quietly():
    # the whole process: the reader takes one line of a table far larger
    # than a pipe holds and closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(dimonoids.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "dimonoids.cli", "build", "--family",
                             "LO", "--n", "200"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
