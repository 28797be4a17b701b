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
        "differs: surface --grid 8x16", "differs: constraints",
        "2 of 3 command lines differ"]
    assert corpus.main(["--compare", str(paths[1]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 3 command lines differ"]
