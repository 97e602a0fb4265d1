"""Run one eqfield CLI command in a fresh process with timing wrappers.

    python3 bench/cliprobe.py SPANS_JSON ARGV...

Behaves like ``python -m eqfield.cli ARGV...`` (same output, same exit
code) but calls ``cli.main(argv)`` in-process with the wrappers of
bench/spans.py installed, and writes the spans to SPANS_JSON.  The import of
eqfield.cli is recorded as a ``cli.import`` span.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    patches = []
    try:
        idx = rec.open("cli.import")
        try:
            import eqfield.cli as cli
        finally:
            rec.close(idx)
        patches = spans.install(rec)
        return cli.main(argv)
    finally:
        spans.uninstall(patches)
        with open(out, "w") as fh:
            json.dump({"spans": rec.spans, "leftovers": spans.leftovers()}, fh)


if __name__ == "__main__":
    sys.exit(main())
