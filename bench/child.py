"""Entry point of the benchmark's child processes (fresh interpreters).

    child.py setup <workload>           set up, print {"setup_end": monotonic time}
    child.py tables <seed> <trace 0|1>  one cold exact_tables pass, print its result
    child.py cli <trace file> <argv...> one traced CLI call; its output is the CLI's own

The parent takes time.monotonic() just before the spawn, so set-up time
includes interpreter start-up; CLOCK_MONOTONIC is shared by all processes.
"""

import sys
import time
from pathlib import Path


def main(argv):
    mode = argv[0]
    if mode == "setup":
        from setups import SETUPS

        SETUPS[argv[1]]()
        end = time.monotonic()
        import json

        print(json.dumps({"setup_end": end}))
        return 0
    if mode == "tables":
        import gepnerstab  # noqa: F401 - import time stays out of the traced set-up

        tracer = None
        if argv[2] == "1":
            from tracer import Tracer

            tracer = Tracer().install()
        from setups import exact_tables as setup

        lattices = setup()
        setup_end = time.monotonic()
        import exact_tables

        return exact_tables.child_pass(int(argv[1]), lattices, setup_end, tracer)
    if mode == "cli":
        import json

        import gepnerstab.cli
        from tracer import Tracer

        tracer = Tracer().install()
        try:
            with tracer.op("bench.cli_cold.call", 0):
                code = gepnerstab.cli.main(argv[2:])
        finally:
            tracer.uninstall()
        sys.stdout.flush()
        Path(argv[1]).write_text(json.dumps(tracer.aggregates()))
        tracer.write_spans(Path(argv[1]).with_suffix(".spans.jsonl"))
        return code
    raise SystemExit(f"unknown child mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
