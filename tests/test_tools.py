"""Tests for the scripts under tools/."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv, code=0):
    return {"argv": argv, "exit": code, "stdout": "s", "stderr": "e",
            "files": {}}


def test_compare_counts_the_lines_of_both_records(tmp_path, capsys):
    # B changes one line of A's two and holds a third that A lacks: two
    # lines differ, of three distinct command lines in A and B together
    corpus = _load("output_corpus")
    first = {"runs": [_run(["catalog"]), _run(["surface", "--grid", "8x16"])]}
    second = {"runs": [_run(["catalog"]),
                       _run(["surface", "--grid", "8x16"], 1),
                       _run(["constraints"])]}
    assert corpus.compare(first, second) == (
        ["surface --grid 8x16", "constraints"], 3)
    assert corpus.compare(first, first) == ([], 2)

    paths = []
    for name, record in (("a", first), ("b", second)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    assert corpus.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: surface --grid 8x16", "  exit differs",
        "differs: constraints", "  only in B",
        "2 of 3 command lines differ"]
    assert corpus.main(["--compare", str(paths[1]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 3 command lines differ"]


def test_compare_prints_each_changed_cell(tmp_path, capsys):
    # key,value files are keyed by key, one-row tables by column, longer
    # tables by row and column; eigenfunction.csv is compared by hash
    corpus = _load("output_corpus")
    old = _run(["eigen"])
    old["files"] = {
        "audit_x.csv": "key,value\nlhs,2.0\nverdict,Holds\n",
        "eigen.csv": "lambda1,residual\n0.25,1e-13\n",
        "eigenfunction.csv": "aaaa",
        "sweep.csv": "step,area\n0,4.0\n1,8.0\n"}
    new = _run(["eigen"])
    new["files"] = {
        "audit_x.csv": "key,value\nlhs,2.5\nverdict,Holds\nnotes,zero\n",
        "eigen.csv": "lambda1,residual\n0.25,2e-13\n",
        "eigenfunction.csv": "bbbb",
        "sweep.csv": "step,area\n0,4.0\n1,6.0\n"}
    assert corpus.changed_cells(old, new) == [
        "audit_x.csv lhs: 2.0 → 2.5 (+2.50e-01)",
        "audit_x.csv notes: None → zero",
        "eigen.csv residual: 1e-13 → 2e-13 (+1.00e+00)",
        "eigenfunction.csv differs",
        "sweep.csv [2] area: 8.0 → 6.0 (-2.50e-01)"]

    paths = []
    for name, record in (("a", {"runs": [old]}), ("b", {"runs": [new]})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    assert corpus.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["differs: eigen",
                       "  audit_x.csv lhs: 2.0 → 2.5 (+2.50e-01)",
                       "  audit_x.csv notes: None → zero"]
    assert out[-1] == "1 of 1 command lines differ"


def test_record_keeps_csv_text_and_hashes_the_eigenfunction(tmp_path):
    corpus = _load("output_corpus")

    def main(argv):
        out = pathlib.Path(argv[argv.index("--out") + 1])
        (out / "eigen.csv").write_text("lambda1\n0.25\n", encoding="utf-8")
        (out / "eigenfunction.csv").write_text("u,v,phi\n", encoding="utf-8")
        return 0

    files = corpus.record(main, ["eigen"])["files"]
    assert files["eigen.csv"] == "lambda1\n0.25\n"
    assert files["eigenfunction.csv"] == corpus._sha(b"u,v,phi\n")
