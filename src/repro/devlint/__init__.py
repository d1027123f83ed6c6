"""Devlint: AST-based correctness analyzer for the repro codebase itself.

Where the circuit packs of ``repro lint`` check *designs* (ERC, netlist
and fault-plan rules), ``repro devlint`` checks the *Python source* for
the project-specific hazards no generic linter knows about:

* determinism — unseeded RNG streams, wall-clock reads on cache-keyed
  paths, unsorted iteration feeding canonical digests;
* cache-key completeness — every device/parameter field and engine
  constant cross-referenced against the serializers in ``cache/keys.py``;
* serialization hygiene — Serializable protocol completeness and
  schema-version bumps on payload drift (via a committed manifest);
* cross-process and observability safety — picklable task callables,
  ``with``-managed spans, ``super().__init__`` in error subclasses.

Its rules are the ``"dev"`` kind of the one rule registry,
:mod:`repro.lint.registry`; importing this package registers them, and
``repro lint --list-rules`` lists them with the other packs.  Analysis
is purely static (``ast`` + marker comments; linted code is never
imported).  Run it with ``repro devlint src`` or
programmatically::

    from repro.devlint import lint_paths
    report = lint_paths(["src/repro"])
    if report.has_errors:
        print(report.render_text())
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.lint.diagnostics import (  # noqa: F401  (re-exported)
    Diagnostic,
    LintReport,
    Severity,
)
from repro.lint.registry import run_rules

from repro.devlint.model import (  # noqa: F401
    Project,
    PyModule,
    load_project,
)

# Importing the packs registers their rules (same pattern as repro.lint).
from repro.devlint import rules_determinism  # noqa: F401,E402
from repro.devlint import rules_cachekey  # noqa: F401,E402
from repro.devlint import rules_serialization  # noqa: F401,E402
from repro.devlint import rules_obs  # noqa: F401,E402
from repro.devlint import rules_recovery  # noqa: F401,E402


def lint_paths(paths: Sequence[str],
               target: str = "src",
               root: Optional[str] = None) -> LintReport:
    """Load ``paths`` into a project and run every ``dev`` rule."""
    return run_rules("dev", load_project(paths, root=root), target)
