"""Run the adtrap command line with spans recorded around its layers.

Usage: python3 perfbench/traced_cli.py SPANS_OUT RUN_ID -- ADTRAP_ARGS...

Behaves like ``python -m adtrap.cli ADTRAP_ARGS...`` (same artifacts, same
exit code) and, once the command has returned, writes its spans to
SPANS_OUT.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = spans.Tracer(run_id)
    spans.install(tracer)
    from adtrap import cli

    code = cli.main(cli_args)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
