"""The committed output set: sweep tables that a speed change must not move.

Runs 20 ``hybridnoc sweep`` calls in one process: the 18 rate sweeps
{vc, cs, hybrid} x {e2e, r2r} x {uniform_random, hotspot, regular_mix} on
4x4 at rates 0.02, 0.1 and 0.3 (1500 cycles, seed 3, 4 subnets), and two
subnet-count sweeps.  It prints the SHA-256 of each call's exit code and
stdout, then one SHA-256 over all of them.  It needs only the standard
library and the package in src/, so it runs under every supported
interpreter, from the root of a checkout:

    python3 tests/output_set.py

tests/test_output_set.py holds these digests to committed values; a
change that means to alter a table updates them and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import sys
from itertools import product
from pathlib import Path
from typing import Dict, List, Tuple

RATE_SWEEPS: List[List[str]] = [
    ["sweep", "--mesh", "4x4", "--rates", "0.02,0.1,0.3", "--cycles", "1500",
     "--seed", "3", "--subnets", "4", "--fabric", fabric, "--granularity", gran,
     "--pattern", pattern] + (["--regularity", "0.9"] if pattern == "regular_mix" else [])
    for fabric, gran, pattern in product(("vc", "cs", "hybrid"), ("e2e", "r2r"),
                                         ("uniform_random", "hotspot", "regular_mix"))
]
SUBNET_SWEEPS: List[List[str]] = [
    ["sweep", "--mesh", "2x2", "--subnet-counts", "2,4", "--cycles", "1500"],
    ["sweep", "--mesh", "4x4", "--subnet-counts", "2,4,8", "--cycles", "1500",
     "--seed", "3", "--granularity", "r2r", "--pattern", "regular_mix",
     "--regularity", "0.9"],
]
CALLS = RATE_SWEEPS + SUBNET_SWEEPS


def digests() -> Tuple[Dict[str, str], str]:
    """SHA-256 of each call, keyed by its argv joined by spaces, and the
    SHA-256 over those digests in call order."""
    from hybridnoc.cli import main

    logging.disable(logging.INFO)  # the sweeps' progress lines go to stderr
    try:
        each = {}
        for argv in CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            each[" ".join(argv)] = hashlib.sha256(
                f"{code}\n{out.getvalue()}".encode()).hexdigest()
    finally:
        logging.disable(logging.NOTSET)
    return each, hashlib.sha256("".join(each.values()).encode()).hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    each, total = digests()
    for call, digest in each.items():
        print(digest, call)
    print(total, "all", sys.version.split()[0])
