"""``repro serve`` with spans around the service parent's public calls.

Usage: ``python3 perfbench/serve_traced.py SPANS_FILE <repro serve args>``.
Installs :func:`instrument.install_service`, runs the CLI's ``serve``
command unchanged, and writes the spans to SPANS_FILE once serve has
drained.  Workers are forked from this parent, so the wrappers ride
along, but workers never call the wrapped functions.
"""

from __future__ import annotations

import sys


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    from instrument import install_service
    from spans import SpanRecorder

    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    install_service(recorder)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
