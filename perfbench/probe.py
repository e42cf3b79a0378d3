"""Time one benchmark set-up in a fresh interpreter.

Reads config texts from stdin, one per line, then times ``import
fuzzfix`` plus ``parse_config`` of every text: all a CLI run pays before
its first ``cli.run``. Before the timed region it imports nothing beyond
``sys`` and ``time``, so the standard-library modules fuzzfix needs are
charged to the import. Prints the seconds as its only output line.

Usage: python3 perfbench/probe.py SRC_DIR < configs.txt
"""

import sys
import time


def main() -> int:
    texts = sys.stdin.read().splitlines()
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    from fuzzfix.cli import parse_config

    for text in texts:
        parse_config(text)
    elapsed = time.perf_counter() - start
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
