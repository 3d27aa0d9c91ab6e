import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import dimonoids
from dimonoids import (
    Permutation,
    cases,
    classify,
    dumps_catalog,
    left_zero_sg,
    lo_arrow_pair,
    naive_flip,
    null_sg,
    pair,
    relabel_dimonoid,
    right_zero_sg,
)
from dimonoids.cli import main
from dimonoids.families import BUILD_BOUND, build, make_params


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_aut_table_format_does_not_list_the_group(capsys, monkeypatch):
    from dimonoids.morphisms import AutSet

    def listed(self):
        raise AssertionError("the member set was expanded")

    monkeypatch.setattr(AutSet, "perms", property(listed))
    doc = json.dumps(left_zero_sg(8).to_json())
    code, out, _ = run(capsys, "aut", "--json", doc, "--format", "table")
    assert (code, out) == (0, "order: 40320\n")
    code, out, _ = run(capsys, "aut", "--json", doc, "--format", "table",
                       "--spec", "fixed=;blocks=0,1,2,3,4,5,6,7")
    assert (code, out) == (0, "order: 40320\nmatches_spec: True\n")


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


def test_json_output_is_byte_stable(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(pair(left_zero_sg(3), right_zero_sg(3)).to_json()))
    outputs = {run(capsys, "aut", str(path))[1] for _ in range(3)}
    assert len(outputs) == 1


def _python(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports this checkout's package."""
    src = str(Path(dimonoids.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script],
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
    assert len(dimonoids.__all__) == 96
    assert set(dimonoids.__all__) <= set(dir(dimonoids))
    for name in dimonoids.__all__:
        module = importlib.import_module(f"dimonoids.{dimonoids._MODULE_OF[name]}")
        value = getattr(dimonoids, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__
    assert dimonoids.morphisms.as_ditable is dimonoids.dimonoid.as_ditable
    assert not hasattr(dimonoids, "no_such_name")


def test_deeply_nested_json_is_input_error_exit_3(capsys, tmp_path):
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["verify", str(path)], ["build", "--json", deep]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "FormatError"
