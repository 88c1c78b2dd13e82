"""Entry point for ``python -m repro.verify``."""

from repro.verify.cli import main

# Guarded: importing this module must not run the verification suite.
if __name__ == "__main__":
    raise SystemExit(main())
