"""Run one freshplan CLI command with spans around its module calls.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- <freshplan CLI arguments>

Exit codes follow `freshplan.cli.main` (0 ok, 1 input error, 2 invariant).
The spans are written to SPANS_JSON whatever the outcome.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from freshplan import cli  # noqa: E402
from freshplan.errors import InputError, InvariantError  # noqa: E402

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- <cli arguments>")
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    try:
        code = tracer.span(f"cli.{cli_args[-1]}", cli.run, cli_args)
    except InputError as exc:
        logging.error("%s", exc)
        code = 1
    except InvariantError as exc:
        logging.error("internal invariant violated: %s", exc)
        code = 2
    finally:
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "missing": missing}),
                                    encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
