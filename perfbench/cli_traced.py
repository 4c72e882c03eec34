"""Run one `tfchirp` command with its layers traced.

Usage: python3 cli_traced.py SPANS_JSON <tfchirp arguments...>

Times the import of ``tfchirp.cli`` as a ``cli.import`` span, runs the
command through ``tfchirp.cli.main`` with the tracer installed, writes the
spans and counters to SPANS_JSON and exits with the command's exit code.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import tfchirp.cli

    imported = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.add_span("cli.import", start, imported)
    tracer.install()
    try:
        code = tfchirp.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
    sys.exit(code)
