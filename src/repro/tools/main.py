"""The ``repro`` console entry point.

One installed script, three subcommands, each delegating to the module
CLI it names — so ``repro verify --quick`` is exactly
``python -m repro.verify --quick`` without the ``PYTHONPATH`` dance::

    repro verify  [args...]   # round-trip certification / parity / fuzzing
    repro inspect [args...]   # PHD5 container inspector (ls/stat/dump/...)
    repro serve   [args...]   # multi-tenant ingest daemon

Registered in ``setup.py`` as ``console_scripts: repro=repro.tools.main:main``.
"""

from __future__ import annotations

import sys

from repro._version import __version__

_USAGE = """\
usage: repro [-h | --version] {verify,inspect,serve} [args...]

subcommands:
  verify   end-to-end verification suite (python -m repro.verify)
  inspect  PHD5 container inspector      (python -m repro.tools.inspect)
  serve    multi-tenant ingest daemon    (python -m repro.serve)

run `repro <subcommand> --help` for that tool's options.
"""


def main(argv: "list[str] | None" = None) -> int:
    """Dispatch to the named subcommand's CLI with the remaining args."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    if argv[0] == "--version":
        print(__version__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(rest)
    if command == "inspect":
        from repro.tools.inspect import main as inspect_main

        return inspect_main(rest)
    if command == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(rest)
    print(f"repro: unknown subcommand {command!r}\n\n{_USAGE}", file=sys.stderr, end="")
    return 2


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
