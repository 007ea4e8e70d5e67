"""No function of ``src/commonground`` loads an enum member through its
class.  On Python 3.11 every ``Strength.LINGUISTIC`` goes through the enum
metaclass's ``__getattr__`` hook, at about five times the cost of a plain
class attribute, and the event path read about 17 of them per event.
Function bodies read the members through the names that ``evidence`` and
``grounding`` bind once beside each enum.  Module and class bodies run
once and are not checked; nor is ``__main__``, which runs the program when
it is imported."""

import importlib
import inspect
from pathlib import Path

import commonground
from commonground.evidence import Strength
from event_costs import enum_member_loads

PACKAGE = Path(commonground.__file__).parent


def function_codes(code):
    """The function bodies (``CO_OPTIMIZED``) among ``code`` and the code
    objects nested in it, comprehensions included."""
    stack = [code]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if inspect.iscode(const))
        if code.co_flags & inspect.CO_OPTIMIZED:
            yield code


def test_the_finder_sees_a_member_load_in_a_comprehension():
    code = compile("def f(xs):\n    return [x for x in xs if x > Strength.DEFAULT]\n",
                   "<test>", "exec")
    namespace = {"Strength": Strength}
    found = [(c.co_name, i.argval) for c in function_codes(code)
             for i in enum_member_loads(c, namespace)]
    assert found == [("<listcomp>", "DEFAULT")]


def test_no_function_loads_an_enum_member_through_its_class():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = commonground if path.stem == "__init__" else \
            importlib.import_module(f"commonground.{path.stem}")
        for code in function_codes(compile(path.read_text(encoding="utf-8"), str(path), "exec")):
            found += [f"{path.name}:{i.positions.lineno} {code.co_name} {i.argval}"
                      for i in enum_member_loads(code, vars(module))]
    assert found == []
