"""The `splitg2` command line with per-layer tracing switched on.

    python3 perfbench/tracecli.py verify-paper --seed 3

Prints the command's report unchanged on stdout and, as the last line on
stderr, the tracer's snapshot as JSON (see layers.py).  Exits with the
command's exit code.
"""

import json
import sys

from workloads import SRC

sys.path.insert(0, str(SRC))

from layers import Tracer  # noqa: E402
from splitg2 import cli  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(json.dumps(tracer.snapshot()), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
