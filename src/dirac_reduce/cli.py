"""Command line front end: validate, run, bracket."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .polyfield import courant_bracket, dorfman_bracket
from .reduction import InternalConsistencyError
from .scenario import (
    ScenarioError,
    check_tolerance,
    dirac_kind,
    emit_report,
    exit_code,
    load_bracket_payload,
    load_scenario,
    run_scenario,
    sample_points,
    summarize,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-reduce",
        description="Reduce Dirac structures along compact linear symmetries "
        "and cross-check the two reduction routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file and exit")
    p_validate.add_argument("file")

    p_run = sub.add_parser("run", help="run a scenario and emit a report")
    p_run.add_argument("file")
    p_run.add_argument("--rank-tol", type=float, default=None, help="override rank tolerance")
    p_run.add_argument("--agree-tol", type=float, default=None, help="override agreement tolerance")
    p_run.add_argument(
        "--samples", type=int, default=None, help="override the random sample count"
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the random seed")
    p_run.add_argument("--format", choices=("text", "json"), default="text")

    p_bracket = sub.add_parser(
        "bracket", help="Courant and Dorfman brackets of two polynomial sections"
    )
    p_bracket.add_argument("file")
    p_bracket.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.file)
    kind = dirac_kind(scenario.dirac)
    circle = (
        "none"
        if scenario.action.circle is None
        else f"weights {list(scenario.action.circle.weights)}"
    )
    n_points = len(sample_points(scenario))
    print(
        f"ok: n={scenario.n}, dirac={kind}, finite order {scenario.action.finite.order}, "
        f"circle {circle}, {n_points} sample points"
    )
    return EXIT_OK


def _apply_overrides(scenario, args):
    if args.rank_tol is not None:
        scenario = replace(scenario, rank_tol=check_tolerance(args.rank_tol, "--rank-tol"))
    if args.agree_tol is not None:
        scenario = replace(scenario, agree_tol=check_tolerance(args.agree_tol, "--agree-tol"))
    if args.samples is not None or args.seed is not None:
        if scenario.samples.count is None:
            raise ScenarioError(
                "--samples/--seed override a random sample block, "
                "but the scenario has none"
            )
        samples = scenario.samples
        if args.samples is not None:
            if args.samples < 0:
                raise ScenarioError("--samples must be nonnegative")
            samples = replace(samples, count=args.samples)
        if args.seed is not None:
            if args.seed < 0:
                raise ScenarioError("--seed must be nonnegative")
            samples = replace(samples, seed=args.seed)
        scenario = replace(scenario, samples=samples)
    return scenario


def _cmd_run(args) -> int:
    scenario = _apply_overrides(load_scenario(args.file), args)
    report = run_scenario(scenario)
    sys.stdout.write(emit_report(report, args.format))
    code = exit_code(report)
    if code != EXIT_OK and args.format == "text":
        summary = summarize(report)
        print(f"FAILED: {summary['failures']} failure(s)", file=sys.stderr)
    return code


def _cmd_bracket(args) -> int:
    s1, s2 = load_bracket_payload(args.file)
    results = {
        "courant": courant_bracket(s1, s2),
        "dorfman": dorfman_bracket(s1, s2),
    }
    if args.format == "json":
        payload = {
            name: {
                "tangent": [p.to_str() for p in sec.tangent.components],
                "covector": [p.to_str() for p in sec.covector.components],
            }
            for name, sec in results.items()
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, sec in results.items():
            tangent = ", ".join(p.to_str() for p in sec.tangent.components)
            covector = ", ".join(p.to_str() for p in sec.covector.components)
            print(f"{name} tangent:  [{tangent}]")
            print(f"{name} covector: [{covector}]")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"validate": _cmd_validate, "run": _cmd_run, "bracket": _cmd_bracket}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
