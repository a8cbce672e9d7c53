#!/usr/bin/env python3
"""Print the functions of ``src/dirac_reduce`` that no command enters.

Runs the command line in this process under ``sys.settrace``: ``run`` (json
and text) and ``validate`` on each scenario file, and ``bracket`` (json and
text) on each payload.  Prints ``module.py:line  name`` for every function or
method of the package whose code no run entered, then their count.  These
are the candidates for deletion: what a test or a tracer still calls is not
shown apart, so check each one's other callers before removing it.

    python3 scripts/untrafficked.py                      # the bundled scenarios
    python3 scripts/untrafficked.py a.json b.json --payload sections.json

Without ``--payload`` the bracket runs on one built-in pair of sections.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dirac_reduce"
sys.path.insert(0, str(ROOT / "src"))

from dirac_reduce.cli import main as cli_main  # noqa: E402

DEFAULT_PAYLOAD = {
    "version": "dirac-reduce/1",
    "n": 2,
    "s1": {"tangent": ["y", "0"], "covector": ["0", "0"]},
    "s2": {"tangent": ["0", "x"], "covector": ["x*y", "1"]},
}


def package_functions() -> dict:
    """``{(file, first line, name): qualified name}`` for every function and
    method defined in the package's modules (comprehensions and lambdas
    excluded)."""
    found = {}

    def visit(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}{const.co_name}"
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
            visit(const, f"{name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")
    return found


def entered_functions(commands) -> set:
    """``(file, first line, name)`` of every code object entered while the
    command lines ``commands`` run, their output discarded."""
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sink = io.StringIO()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands:
                cli_main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return entered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", help="scenario files (default: scenarios/*.json)")
    parser.add_argument("--payload", action="append", default=[], help="a bracket payload file")
    args = parser.parse_args(argv)
    scenarios = args.scenarios or [str(p) for p in sorted((ROOT / "scenarios").glob("*.json"))]
    with tempfile.TemporaryDirectory() as scratch:
        payloads = args.payload
        if not payloads:
            default = pathlib.Path(scratch) / "payload.json"
            default.write_text(json.dumps(DEFAULT_PAYLOAD), encoding="utf-8")
            payloads = [str(default)]
        commands = []
        for path in scenarios:
            commands += [["run", path, "--format", fmt] for fmt in ("json", "text")]
            commands.append(["validate", path])
        for path in payloads:
            commands += [["bracket", path, "--format", fmt] for fmt in ("json", "text")]
        entered = entered_functions(commands)
    unused = sorted(
        (pathlib.Path(file).name, line, name)
        for (file, line, short), name in package_functions().items()
        if (file, line, short) not in entered
    )
    for module, line, name in unused:
        print(f"{module}:{line}  {name}")
    print(f"{len(unused)} functions entered by no run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
