"""One traced chenlie CLI call, for the traced run of the cli workload.

    python3 bench/cli_child.py STATS_FILE [chenlie arguments...]

Behaves like ``python -m chenlie.cli`` with the same arguments, and writes
the per-function span aggregates and the private cache counters to
STATS_FILE, also when the call ends in an exception.
"""

import json
import sys

import spans
from chenlie import cli

tracer = spans.Tracer()
tracer.install()
try:
    status = cli.run(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"functions": tracer.summary(), "counters": spans.private_counters()}, fh)
sys.exit(status)
