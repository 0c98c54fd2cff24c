"""Run one `qbret` command line under the tracer (cli-oneshot, traced run).

Usage: python cli_shim.py SPANS_FILE OP_ID -- ARGS...
The untraced run invokes `python -m qbret.cli` directly; this stand-in
exists only so the traced run can see the layers inside each invocation.
"""

import sys

import tracer as tr


def main() -> int:
    spans_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py SPANS_FILE OP_ID -- ARGS...")
    import qbret.cli
    tracer = tr.Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        return qbret.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
