"""Run one toricshrink CLI call under the tracer (the traced cli_calls mode).

    python perfbench/cli_child.py TRACE_JSON <subcommand> <args...>

Times the import of ``toricshrink.cli`` and the call to ``main``, records
per-layer spans inside it, writes the totals to TRACE_JSON and exits with
the CLI's own exit code.
"""

import json
import sys
import time


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import toricshrink.cli as cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
        totals = tracer.take()
        totals["cli.import_s"] = import_s
        totals["cli.main_s"] = main_s
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
