"""One repetition of a workload, in a fresh interpreter.

Runs the public sequence of ``dirac-reduce run <file> --format json``
(load_scenario, run_scenario, emit_report, exit_code), writes the JSON
report to stdout as the command does, and writes one JSON line of timings
to stderr.  Exits with the report's exit code.

    PYTHONPATH=src python3 perfbench/child.py SCENARIO [TRACE_OUT]

With TRACE_OUT the layers are wrapped (see tracing.py) before the scenario
is loaded, and the recorded spans are written to TRACE_OUT at the end.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    from dirac_reduce import scenario

    tracer = None
    if len(argv) > 1:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    loaded = scenario.load_scenario(argv[0])
    setup_end = time.perf_counter()
    report = scenario.run_scenario(loaded)
    run_end = time.perf_counter()
    sys.stdout.write(scenario.emit_report(report, "json"))
    sys.stdout.flush()
    emit_end = time.perf_counter()
    code = scenario.exit_code(report)
    if tracer is not None:
        tracer.write(argv[1])
    timings = {
        "setup_s": setup_end - start,
        "run_s": run_end - setup_end,
        "emit_s": emit_end - run_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(timings), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
