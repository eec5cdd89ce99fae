"""Run ``repro serve`` with the service's layers wrapped in spans.

Usage: ``python perfbench/serve_traced.py SPANS_OUT serve [serve options]``
with ``src`` on ``PYTHONPATH``.  The wrappers go in before the server
starts; when it drains and exits, the spans and counters are written to
``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers
import spans


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    out = Path(argv[0])
    tracer = spans.Tracer()
    with spans.installed(tracer, layers.service_targets()):
        code = cli_main(argv[1:])
    out.write_text(json.dumps(spans.to_json(tracer)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
