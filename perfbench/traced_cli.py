"""`python -m ptensor.cli` with spans: traced_cli.py SPAN_FILE OP_ID ARGS...

Times the import of ptensor.cli, installs the tracer, runs the command
line with ARGS and writes the spans to SPAN_FILE when it ends.  Standard
output is the command's own, byte for byte.
"""

import sys
import time

t0 = time.perf_counter()
import ptensor.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def main() -> int:
    span_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tr = tracer.Tracer()
    tr.op_id = op_id
    tr.install()
    try:
        code = ptensor.cli.main(argv)
    finally:
        tr.uninstall()
        tr.save(span_file, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
