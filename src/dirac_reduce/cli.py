"""Command line front end: validate, run, bracket."""

from __future__ import annotations

import argparse
import sys

from .lindirac import NotLagrangianError
from .polyfield import courant_bracket, dorfman_bracket
from .reduction import InternalConsistencyError
from .scenario import (
    MAX_SAMPLES,
    ScenarioError,
    _describe,
    _dumps,
    _read_json,
    _scenario_from_file,
    _section_to_dict,
    check_tolerance,
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
    p_run.add_argument(
        "--bases", action="store_true",
        help="add D_Q and both route images to each point of the json report",
    )

    p_bracket = sub.add_parser(
        "bracket", help="Courant and Dorfman brackets of two polynomial sections"
    )
    p_bracket.add_argument("file")
    p_bracket.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.file)
    print(f"ok: {_describe(scenario)}, {len(sample_points(scenario))} sample points")
    return EXIT_OK


def _apply_overrides(data, args) -> None:
    """Write the flags into the scenario document ``data``, each checked
    under its own name first, so that the scenario is built once, with its
    distribution's rank decided at the run's rank tolerance."""
    tolerances, random = {}, {}
    for field, flag in (("rank_tol", "--rank-tol"), ("agree_tol", "--agree-tol")):
        if getattr(args, field) is not None:
            tolerances[field] = check_tolerance(getattr(args, field), flag)
    if args.samples is not None:
        if args.samples < 0:
            raise ScenarioError("--samples must be nonnegative")
        if args.samples > MAX_SAMPLES:
            raise ScenarioError(f"--samples: more than {MAX_SAMPLES} points")
        random["count"] = args.samples
    if args.seed is not None:
        if args.seed < 0:
            raise ScenarioError("--seed must be nonnegative")
        random["seed"] = args.seed
    if not isinstance(data, dict):
        return  # not a scenario document, which scenario_from_dict reports
    current, samples = data.get("tolerances"), data.get("samples")
    if tolerances and (current is None or isinstance(current, dict)):
        data["tolerances"] = {**(current or {}), **tolerances}
    if random:
        if not (isinstance(samples, dict) and isinstance(samples.get("random"), dict)):
            raise ScenarioError("--samples/--seed: the scenario has no random sample block")
        samples["random"] = {**samples["random"], **random}


def _cmd_run(args) -> int:
    if args.bases and args.format != "json":
        raise ScenarioError("--bases needs --format json")
    data = _read_json(args.file)
    _apply_overrides(data, args)
    scenario = _scenario_from_file(args.file, data)
    report = run_scenario(scenario)
    sys.stdout.write(emit_report(report, args.format, args.bases))
    code = exit_code(report)
    if code != EXIT_OK and args.format == "text":
        summary = summarize(report)
        print(f"FAILED: {summary['failures']} failure(s)", file=sys.stderr)
    return code


def _cmd_bracket(args) -> int:
    s1, s2 = load_bracket_payload(args.file)
    payload = {
        "courant": _section_to_dict(courant_bracket(s1, s2)),
        "dorfman": _section_to_dict(dorfman_bracket(s1, s2)),
    }
    if args.format == "json":
        print(_dumps(payload))
    else:
        for name, parts in payload.items():
            print(f"{name} tangent:  [{', '.join(parts['tangent'])}]")
            print(f"{name} covector: [{', '.join(parts['covector'])}]")
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
    except NotLagrangianError as exc:
        print(f"numerical failure: a fiber failed the Lagrangian test: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
