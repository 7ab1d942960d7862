"""Run the l2approx CLI under the span tracer.

    python3 benchmarks/traced_cli.py SUMMARY.json CLI-ARGS...

Prints the CLI's report exactly as the untraced CLI does, exits with its
exit code, and writes the span summary to SUMMARY.json.  The whole process
after interpreter start is one top-level span, ``process``; importing the
package is the span ``import`` inside it.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.open("process")
    tracer.open("import")
    import l2approx.cli

    tracer.close()
    install(tracer)
    try:
        code = l2approx.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.close()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
