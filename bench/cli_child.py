"""Run one dtraj CLI command with the tracer installed, for the traced cli workload.

    python3 bench/cli_child.py SPANS_JSON ROUND <dtraj arguments...>

Times the import of dtraj.cli, runs the command through dtraj.cli.main, and
writes the import time and the command's spans to SPANS_JSON. Exits with the
command's exit code.
"""

import json
import sys
import time

from tracer import Tracer, install


def main() -> int:
    out, rnd, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import dtraj
    import dtraj.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.phase, tracer.round = "round", rnd
    install(tracer, dtraj)
    with tracer.span("bench.command"):
        rc = dtraj.cli.main(argv)
    spans = [[name, parent, phase, r, t0, t1, leaves, info]
             for name, parent, phase, r, t0, t1, leaves, info in tracer.spans]
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
