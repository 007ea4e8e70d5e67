"""The mutant table of ``tests/mutants.py`` still fits the code and the tests,
checked without running a mutant: a mutant written against code or tests
that have since changed fails here, not only when the table is run."""

import ast

from mutants import MUTANTS, ROOT


def test_each_mutant_old_text_is_in_its_file_once():
    stale = [m.name for m in MUTANTS
             if (ROOT / "src" / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    assert stale == []


def test_each_test_a_mutant_names_is_defined_in_its_file():
    defined = {}
    missing = []
    for mutant in MUTANTS:
        for test_id in mutant.tests:
            path, _, name = test_id.partition("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                defined[path] = {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}
            if name.partition("[")[0] not in defined[path]:
                missing.append((mutant.name, test_id))
    assert missing == []
