"""One fresh-interpreter set-up: import the CLI, then build and validate the input.

Usage: python3 bench/setup_probe.py ARGV_JSON [SCAN_CONFIG]

Prints {"import_s": ..., "parse_s": ...}.  The caller times the whole
process, interpreter start and exit included, as one `setup_s` sample.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    import cohent.cli
    import cohent.statespec

    imported = time.perf_counter()
    cohent.cli.build_parser().parse_args(json.loads(sys.argv[1]))
    if len(sys.argv) > 2:
        with open(sys.argv[2], encoding="utf-8") as handle:
            cohent.statespec.parse_scan_text(handle.read())
    parsed = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported}))


if __name__ == "__main__":
    main()
