"""The CI workflow calls only code that exists.

CI's heredocs and ``python -m repro`` steps are not run by the test
suite, so deleting a subcommand or a module can leave a CI job calling
something that is gone.  These tests read ``.github/workflows/ci.yml``
with the standard library only (the CI test job installs no YAML
parser) and check every repro command line and import line in it.
"""

import importlib
import pathlib
import re
import shlex

from repro.cli import build_parser

CI_YML = (pathlib.Path(__file__).resolve().parent.parent
          / ".github" / "workflows" / "ci.yml")

_RUN = re.compile(r"^(\s*)(?:- )?run: ?(.*)$")
_COMMAND = re.compile(r"python -m repro\s+([^>|&;\n]*)")
_IMPORT = re.compile(r"^\s*from (repro[\w.]*) import ([\w, ]+)$", re.M)


def run_scripts(text):
    """The shell text of every ``run:`` step: a ``>`` block folded onto
    one line, a ``|`` block kept line by line, backslash continuations
    joined."""
    scripts = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = _RUN.match(lines[i])
        i += 1
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value[:1] not in (">", "|"):
            scripts.append(value)
            continue
        block = []
        while i < len(lines) and (not lines[i].strip()
                                  or len(lines[i]) - len(lines[i].lstrip())
                                  > indent):
            block.append(lines[i].strip())
            i += 1
        joined = (" " if value.startswith(">") else "\n").join(block)
        scripts.append(joined.replace("\\\n", " "))
    return scripts


def repro_commands():
    """The arguments of every ``python -m repro`` command in ci.yml."""
    scripts = run_scripts(CI_YML.read_text(encoding="utf-8"))
    return [m.group(1).strip() for script in scripts
            for m in _COMMAND.finditer(script)]


def test_every_repro_command_parses():
    commands = repro_commands()
    assert commands, "no `python -m repro` command found in ci.yml"
    parser = build_parser()
    rejected = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            rejected.append(command)
    assert not rejected, f"ci.yml runs unknown repro commands: {rejected}"


def test_ci_profiles_both_table_flows():
    parser = build_parser()
    parsed = [parser.parse_args(shlex.split(c)) for c in repro_commands()]
    profiled = {args.flow for args in parsed if args.command == "profile"}
    assert {"table2", "table3"} <= profiled, profiled


def test_every_heredoc_import_resolves():
    scripts = run_scripts(CI_YML.read_text(encoding="utf-8"))
    imports = [(m.group(1), m.group(2)) for script in scripts
               for m in _IMPORT.finditer(script)]
    assert imports, "no `from repro... import` line found in ci.yml"
    missing = []
    for module_name, names in imports:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name)
            continue
        for name in names.split(","):
            name = name.split(" as ")[0].strip()
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert not missing, f"ci.yml imports names that are gone: {missing}"
