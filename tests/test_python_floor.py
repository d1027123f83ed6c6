"""The source keeps to the declared Python floor, ``requires-python =
">=3.9"``.

CI runs 3.11 and 3.12 only, so nothing else catches a construct that
needs a newer interpreter.  The netlist records hand-write ``__slots__``
and ``__init__`` under ``@dataclass(init=False)`` because
``dataclass(slots=True)`` needs 3.10.  These checks read the source
with the standard library only: every module parses under the 3.9
grammar, and no ``dataclass(...)`` call passes a 3.10 keyword.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

#: ``dataclass`` keywords that Python 3.9 rejects.
NEWER_DATACLASS_KEYWORDS = {"slots", "kw_only"}


def _parse(path, **kwargs):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                     **kwargs)


def _is_dataclass_call(node):
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "dataclass") or (
        isinstance(func, ast.Attribute) and func.attr == "dataclass")


def test_every_module_parses_as_python_3_9():
    assert SRC / "physd" / "netlist.py" in MODULES  # the tree is found
    offenders = []
    for path in MODULES:
        try:
            _parse(path, feature_version=(3, 9))
        except SyntaxError as error:
            offenders.append(f"{path.relative_to(SRC)}:{error.lineno} {error.msg}")
    assert not offenders, offenders


def test_no_dataclass_call_needs_python_3_10():
    offenders = []
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if not (isinstance(node, ast.Call) and _is_dataclass_call(node)):
                continue
            keywords = {kw.arg for kw in node.keywords}
            for keyword in sorted(keywords & NEWER_DATACLASS_KEYWORDS):
                offenders.append(
                    f"{path.relative_to(SRC)}:{node.lineno} {keyword}=")
    assert not offenders, offenders
